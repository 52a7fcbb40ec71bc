"""One run's random draws, served from prefetched PCG64 words.

A :class:`DrawFeed` wraps a run's ``numpy.random.Generator`` and returns
exactly the values the generator would, in the same order, for the three
forms the evolutionary strategy draws: ``integers(bound)``, ``random()``
and ``random(n)``.  numpy draws an integer below a bound under 2^32 by Lemire's
method (Lemire, "Fast random integer generation in an interval", ACM TOMACS
2019) from one 32-bit half of a PCG64 word, low half first, and keeps the
unused high half for the next such draw; a float takes a whole word.  The
feed does the same integer arithmetic on words it fetches in blocks, which
costs far less than a numpy call per draw.  :meth:`DrawFeed.flush` writes
the feed's position back into the generator, which then goes on as if it
had made every draw itself.
"""

from __future__ import annotations

import numpy as np

# words fetched from the bit generator at a time, and words turned into
# Python ints at a time for the one-at-a-time draws
BLOCK = 1024
CHUNK = 64
_MASK32 = 0xFFFFFFFF
_LIMIT = 1 << 32
_TO_UNIT = 2.0**-53


class DrawFeed:
    """Draws of a PCG64 ``numpy.random.Generator``, value for value.

    While a feed is in use, the generator's own state runs ahead of the
    draws served; draw from the generator again only after :meth:`flush`.
    """

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "a draw feed reproduces the PCG64 stream only, "
                f"not {type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        self._start()

    def _start(self) -> None:
        """Serve from the bit generator's current state."""
        state = self._start_state = self._bit_generator.state
        # numpy's buffered high half: ``_half`` keeps its value once used,
        # as ``uinteger`` does
        self._has_half = bool(state["has_uint32"])
        self._half = state["uinteger"]
        # words fetched since ``_start_state``; the unserved ones are
        # ``_words``, a reversed copy of ``_block[_cursor - len(_words) :
        # _cursor]`` that serves by ``pop``, then ``_block[_cursor:]``
        self._fetched = 0
        self._block = np.empty(0, np.uint64)
        self._cursor = 0
        self._words: list[int] = []

    def _word(self) -> int:
        if not self._words:
            if self._cursor == len(self._block):
                self._refill(CHUNK)
            chunk = self._block[self._cursor : self._cursor + CHUNK]
            self._cursor += len(chunk)
            self._words = chunk[::-1].tolist()
        return self._words.pop()

    def _peek(self, count: int) -> np.ndarray:
        """The next ``count`` words, not yet served."""
        self._cursor -= len(self._words)
        self._words = []
        if len(self._block) - self._cursor < count:
            self._refill(count)
        return self._block[self._cursor : self._cursor + count]

    def _refill(self, need: int) -> None:
        """Fetch words until at least ``need`` are unserved; ``_words`` is empty."""
        rest = self._block[self._cursor :]
        fresh = self._bit_generator.random_raw(max(BLOCK, need - len(rest)))
        self._fetched += len(fresh)
        self._block = np.concatenate((rest, fresh))
        self._cursor = 0

    def integers(self, bound: int) -> int:
        """A uniform int in [0, bound).  A bound of 1 draws nothing."""
        if not 1 <= bound < _LIMIT:
            raise ValueError(f"a draw feed serves bounds in [1, 2^32), got {bound}")
        if bound == 1:
            return 0
        while True:
            if self._has_half:
                self._has_half = False
                product = self._half * bound
            else:
                words = self._words
                word = words.pop() if words else self._word()
                self._has_half = True
                self._half = word >> 32
                product = (word & _MASK32) * bound
            # every rejection threshold lies below its bound, so the modulo
            # is needed only for leftovers below the bound
            leftover = product & _MASK32
            if leftover >= bound or leftover >= (_LIMIT - bound) % bound:
                return product >> 32

    def random(self, size: int | None = None):
        """A uniform float in [0, 1), or an array of ``size`` of them."""
        if size is None:
            return (self._word() >> 11) * _TO_UNIT
        words = self._peek(size)
        self._cursor += size
        return (words >> 11) * _TO_UNIT

    def flush(self) -> None:
        """Put the generator in the state its own draws would have left.

        The feed then serves on from that state.
        """
        bit_generator = self._bit_generator
        bit_generator.state = self._start_state
        unserved = len(self._block) - self._cursor + len(self._words)
        bit_generator.advance(self._fetched - unserved)
        state = bit_generator.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bit_generator.state = state
        self._start()
