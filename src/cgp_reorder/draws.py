"""One run's random draws, served from prefetched PCG64 words.

A :class:`DrawFeed` wraps a run's ``numpy.random.Generator`` and returns
exactly the values the generator would, in the same order, for the three
forms the evolutionary strategy draws: ``integers(bound)``, ``random()``
and ``random(n)``.  numpy draws an integer below a bound under 2^32 by Lemire's
method (Lemire, "Fast random integer generation in an interval", ACM TOMACS
2019) from one 32-bit half of a PCG64 word, low half first, and keeps the
unused high half for the next such draw; a float takes a whole word.

The feed fetches words in blocks and turns a small chunk of them at a time
into a list of 32-bit halves, low half first, read through a cursor: the
half under the cursor is numpy's buffered high half whenever an odd number
of halves is left.  An integer draw takes the half under the cursor, so
:func:`~cgp_reorder.mutation.single_mutation` reads ``halves`` and ``at``
and draws inline, handing a rejection candidate and the end of the list to
:meth:`DrawFeed.integer_at`.  Floats come from whole words: ``random()``
from the list or the block, ``random(n)`` from a slice of the block.
:meth:`DrawFeed.flush` writes the feed's position back into the generator,
which then goes on as if it had made every draw itself.
"""

from __future__ import annotations

import numpy as np

# words fetched from the bit generator at a time, and words turned into
# 32-bit halves at a time for the integer draws
BLOCK = 1024
CHUNK = 256
_MASK32 = 0xFFFFFFFF
_LIMIT = 1 << 32
_TO_UNIT = 2.0**-53


class DrawFeed:
    """Draws of a PCG64 ``numpy.random.Generator``, value for value.

    While a feed is in use, the generator's own state runs ahead of the
    draws served; draw from the generator again only after :meth:`flush`.

    The unserved halves are ``halves[at:]``: numpy's buffered high half if
    their number is odd, then both halves of each word of ``_block[_cursor
    - k : _cursor]``, k whole words in all.  While no half is buffered,
    ``halves[at - 1]`` is numpy's ``uinteger``, which keeps its value once
    used.  ``halves`` stays the same list object.
    """

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "a draw feed reproduces the PCG64 stream only, "
                f"not {type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        self.halves: list[int] = []
        self._start()

    def _start(self) -> None:
        """Serve from the bit generator's current state."""
        state = self._start_state = self._bit_generator.state
        self.halves[:] = [state["uinteger"]] * (1 + state["has_uint32"])
        self.at = 1
        # words fetched since ``_start_state``
        self._fetched = 0
        self._block = np.empty(0, np.uint64)
        self._cursor = 0

    def _refill(self, need: int) -> None:
        """Fetch words until at least ``need`` are unconverted.  No
        converted word may be left unserved."""
        rest = self._block[self._cursor :]
        fresh = self._bit_generator.random_raw(max(BLOCK, need - len(rest)))
        self._fetched += len(fresh)
        self._block = np.concatenate((rest, fresh))
        self._cursor = 0

    def integer_at(self, at: int, bound: int) -> tuple[int, int]:
        """A uniform int in [0, bound) drawn from ``halves[at]`` on, and the
        cursor after it.

        The slow path of an inline draw, for a bound of 1 (which draws
        nothing), a low product below the bound, and a cursor at the end of
        ``halves``, which it refills in place.
        """
        if bound == 1:
            return 0, at
        halves = self.halves
        while True:
            if at == len(halves):
                if len(self._block) - self._cursor < CHUNK:
                    self._refill(CHUNK)
                chunk = self._block[self._cursor : self._cursor + CHUNK]
                self._cursor += CHUNK
                halves[:] = chunk.astype("<u8", copy=False).view("<u4").tolist()
                at = 0
            product = halves[at] * bound
            at += 1
            # every rejection threshold lies below its bound, so the modulo
            # is needed only for leftovers below the bound
            leftover = product & _MASK32
            if leftover >= bound or leftover >= (_LIMIT - bound) % bound:
                return product >> 32, at

    def integers(self, bound: int) -> int:
        """A uniform int in [0, bound).  A bound of 1 draws nothing."""
        if not 1 <= bound < _LIMIT:
            raise ValueError(f"a draw feed serves bounds in [1, 2^32), got {bound}")
        at = self.at
        halves = self.halves
        if bound > 1 and at < len(halves) and (product := halves[at] * bound) & _MASK32 >= bound:
            self.at = at + 1
            return product >> 32
        value, self.at = self.integer_at(at, bound)
        return value

    def random(self, size: int | None = None):
        """A uniform float in [0, 1), or an array of ``size`` of them."""
        halves, at = self.halves, self.at
        buffered = (len(halves) - at) & 1
        if size is None and len(halves) - at > buffered:
            # the next whole word; a buffered half stays next in line, and
            # ``halves[at - 1]`` keeps its value
            low = at + buffered
            word = halves[low + 1] << 32 | halves[low]
            halves[low + 1] = halves[low - 1]
            self.at = at + 2
            return (word >> 11) * _TO_UNIT
        # hand the converted words back to the block
        self._cursor -= (len(halves) - at) // 2
        del halves[at + buffered :]
        count = 1 if size is None else size
        if len(self._block) - self._cursor < count:
            self._refill(count)
        words = self._block[self._cursor : self._cursor + count]
        self._cursor += count
        if size is None:
            return (int(words[0]) >> 11) * _TO_UNIT
        return (words >> 11) * _TO_UNIT

    def flush(self) -> None:
        """Put the generator in the state its own draws would have left.

        The feed then serves on from that state.
        """
        halves, at = self.halves, self.at
        buffered = (len(halves) - at) & 1
        bit_generator = self._bit_generator
        bit_generator.state = self._start_state
        unserved = len(self._block) - self._cursor + (len(halves) - at) // 2
        bit_generator.advance(self._fetched - unserved)
        state = bit_generator.state
        state["has_uint32"] = buffered
        state["uinteger"] = halves[at - 1 + buffered]
        bit_generator.state = state
        self._start()
