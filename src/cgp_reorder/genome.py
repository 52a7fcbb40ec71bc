"""Single-row CGP genotype: construction, decoding, evaluation, flat text.

Global node numbering runs input nodes first, then computational nodes, then
output nodes.  A computational node carries one function gene and a fixed
number of connection genes; every connection gene must reference a strictly
smaller global position, so the encoded graph is feed-forward by
construction.  Every node stores ``ARITY`` connection genes; functions that
consume fewer simply ignore the excess genes, both when decoding which
nodes are active and when evaluating.

A genotype is treated as immutable after construction: mutation and
reordering return new instances and share untouched node records with the
parent.

Evaluation is one walk over the active nodes in position order, filling a
vector indexed by global position with each node's value: a packed
truth-table column for the Boolean set, a read-only float64 array over the
batch of points for the regression set.  A genome keeps the vector of its
last evaluation, and a mutant is evaluated from its parent's vector: only
what its mutation changed, and the nodes that read a changed value, are
computed again.  The walk finds those readers in the mutant's active set,
which lists for every node the genes that read it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .functions import FUNCTION_SETS, FunctionSet, read_only

# connection genes per computational node: no function consumes more
ARITY = 2


@dataclass(frozen=True)
class GraphParams:
    """Shape of the encoded graph: node counts and function set."""

    num_inputs: int
    num_outputs: int
    num_computational: int
    function_set: str = "boolean"

    def __post_init__(self) -> None:
        for name in ("num_inputs", "num_outputs", "num_computational"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def comp_start(self) -> int:
        """Global position of the first computational node."""
        return self.num_inputs

    @property
    def comp_end(self) -> int:
        """Global position of the last computational node."""
        return self.num_inputs + self.num_computational - 1

    @property
    def num_connectable(self) -> int:
        """Positions an output connection may target (inputs + computational)."""
        return self.num_inputs + self.num_computational

    def functions(self) -> FunctionSet:
        """The function set named by ``function_set``."""
        return FUNCTION_SETS[self.function_set]


@dataclass(slots=True)
class NodeGene:
    """One computational node: function gene plus its connection genes."""

    function_id: int
    connections: tuple[int, ...]


@dataclass(slots=True)
class Delta:
    """What a mutant changed against its parent.

    ``nodes`` are computational indices of replaced node records: every one
    that was active in the parent, and possibly others.  A replaced
    inactive node matters only once the mutant activates it, and
    :func:`decode_active` finds those: when it derives the mutant's active
    set from its parent's, it fills in ``activated``, the nodes that became
    active, and ``released``, the nodes that became inactive.  ``outputs``
    are the indices of the output genes that changed.
    """

    nodes: tuple[int, ...]
    outputs: tuple[int, ...]
    activated: list[int] | None = None
    released: list[int] | None = None


@dataclass
class Genotype:
    params: GraphParams
    computational: list[NodeGene]
    output_connections: tuple[int, ...]
    # the active set of a genome a reorder operator built, carried over
    # from its source genome instead of decoded; None otherwise
    active: ActiveSet | None = field(default=None, compare=False, repr=False)
    # how a mutant differs from its parent; None for any other genome
    delta: Delta | None = field(default=None, compare=False, repr=False)
    # the vector of the last evaluation, by global position: packed column
    # (Boolean) or read-only float64 array over the batch (regression) for
    # inputs and active nodes, None for inactive nodes
    values: list | None = field(default=None, compare=False, repr=False)


@dataclass(eq=False)
class ActiveSet:
    """Which computational nodes lie on a path to an output, and what reads
    each of them.

    ``readers[i]`` is indexed by computational position (0-based, not
    global): a tuple with one entry per gene that reads node i, an output
    gene k as ``num_computational + k`` and a consumed connection gene of an
    active node as that node's index, in no set order.  A node is active
    exactly when its tuple is non-empty, so this list is the only stored
    copy of the set; the bitmap, the count and the ascending positions are
    derived from it.  A caller that knows the positions already passes them
    as the second argument.  An active set is never mutated after
    construction, so sets may share their lists, and two sets compare equal
    only when they are the same object.  Its entries are tuples of ints,
    which the garbage collector stops tracking: lists would add hundreds of
    live containers to every collection while the set lives.
    """

    readers: list[tuple[int, ...]]
    _positions: list[int] | None = field(default=None, repr=False)

    def positions(self) -> list[int]:
        """Ascending computational indices of the active nodes.

        Computed on first use and shared by later calls: do not mutate it.
        """
        if self._positions is None:
            self._positions = list(compress(range(len(self.readers)), self.readers))
        return self._positions

    @property
    def count(self) -> int:
        return len(self.positions())

    @property
    def bitmap(self) -> list[bool]:
        """Whether each node is active, as a new list."""
        return list(map(bool, self.readers))


def random_genome(params: GraphParams, rng: np.random.Generator) -> Genotype:
    """Sample a uniformly random valid genotype for the given shape."""
    fset = params.functions()
    nodes = []
    for i in range(params.num_computational):
        position = params.comp_start + i
        fid = int(rng.integers(fset.size))
        conns = tuple(int(rng.integers(position)) for _ in range(ARITY))
        nodes.append(NodeGene(fid, conns))
    outputs = tuple(
        int(rng.integers(params.num_connectable)) for _ in range(params.num_outputs)
    )
    return Genotype(params, nodes, outputs)


def _consumed(node: NodeGene, idx: int, arities: Sequence[int], start: int, into: list) -> None:
    """Append a ``(target, idx)`` pair to ``into`` for every computational
    node ``target`` that ``node``, at index ``idx``, reads through a gene its
    function consumes."""
    for conn in node.connections[: arities[node.function_id]]:
        if conn >= start:
            into.append((conn - start, idx))


def _activate(nodes, arities, start, readers, moves) -> list[int]:
    """Add the reader of every ``(target, reader)`` pair on ``moves`` to the
    target's entry; a target whose entry was empty becomes active and adds
    itself, depth first, to the entries of the nodes its function reads.
    Returns the nodes that became active."""
    added = []
    while moves:
        idx, reader = moves.pop()
        entry = readers[idx]
        readers[idx] = entry + (reader,)
        if not entry:
            added.append(idx)
            _consumed(nodes[idx], idx, arities, start, moves)
    return added


def _deactivate(nodes, arities, start, readers, moves) -> list[int]:
    """Remove the reader of every ``(target, reader)`` pair on ``moves``
    from the target's entry, once; a target whose entry empties becomes
    inactive and leaves, in turn, the entries of the nodes its function
    reads.  Returns the nodes that became inactive."""
    removed = []
    while moves:
        idx, reader = moves.pop()
        entry = readers[idx]
        cut = entry.index(reader)
        entry = readers[idx] = entry[:cut] + entry[cut + 1 :]
        if not entry:
            removed.append(idx)
            _consumed(nodes[idx], idx, arities, start, moves)
    return removed


def decode_active(
    genome: Genotype,
    parent: Genotype | None = None,
    parent_active: ActiveSet | None = None,
) -> ActiveSet:
    """Backward reachability from the output connections.

    Only the connection genes a node's function actually consumes are
    followed; the unused genes of sub-arity functions never activate a node.

    Given the ``parent`` of a mutant that records its :class:`Delta`, and
    the parent's active set, the result is derived from that set instead of
    a full walk, and the delta's ``activated`` and ``released`` are filled
    in.  Every read of a changed parent-active node or a changed output
    gene moves as a ``(target, reader)`` pair: the old reads leave their
    targets' entries and the new ones join them.  A node whose entry fills
    is activated depth first, and one whose entry empties is released,
    cascading.  The work is proportional to what changed, not to the size
    of the genome.
    """
    params = genome.params
    arities = params.functions().arities
    start = params.comp_start
    num = params.num_computational
    nodes = genome.computational
    delta = genome.delta
    if parent is None or parent_active is None or delta is None:
        readers: list[tuple[int, ...]] = [()] * num
        moves = [
            (conn - start, num + k)
            for k, conn in enumerate(genome.output_connections)
            if conn >= start
        ]
        _activate(nodes, arities, start, readers, moves)
        return ActiveSet(readers)

    old_nodes = parent.computational
    released: list[tuple[int, int]] = []
    gained: list[tuple[int, int]] = []
    for idx in delta.nodes:
        if parent_active.readers[idx]:
            _consumed(old_nodes[idx], idx, arities, start, released)
            _consumed(nodes[idx], idx, arities, start, gained)
    for k in delta.outputs:
        old, new = parent.output_connections[k], genome.output_connections[k]
        if old >= start:
            released.append((old - start, num + k))
        if new >= start:
            gained.append((new - start, num + k))
    if released == gained:
        # no read moved, as when only a function gene of the same arity or
        # an unconsumed gene changed: the child's set is the parent's
        delta.activated = delta.released = []
        return parent_active

    readers = parent_active.readers.copy()
    # gains first: a parent-active node that the delta releases but that a
    # newly activated node reads again never empties, so it is neither
    # activated again nor released
    activated = delta.activated = _activate(nodes, arities, start, readers, gained)
    delta.released = _deactivate(nodes, arities, start, readers, released)
    if activated or delta.released:
        return ActiveSet(readers)
    # no entry filled or emptied: the same nodes are active
    return ActiveSet(readers, parent_active.positions())


def _walk(
    genome: Genotype,
    active: ActiveSet,
    operations: Sequence[Callable],
    context: object,
    inputs: Callable[[], list],
    parent: Genotype | None = None,
    differs: Callable[[object, object], bool] = operator.ne,
) -> list:
    """The evaluation vector of ``genome``: the value of every input and
    active node, by global position.

    ``operations[f](a, b, context)`` is the value of a node with function
    id ``f`` whose connection genes read the values ``a`` and ``b`` (a
    unary function ignores ``b``), and ``inputs()`` gives the inputs'
    values.  Every active node is computed, in position order, unless
    ``genome`` is a mutant of ``parent`` whose active set was derived from
    the parent's.  Then the walk starts from the parent's vector, copied on
    the first value that differs, and computes again the changed and the
    newly activated active nodes, and beyond those only the readers of a
    node whose value differs from the parent's, as ``differs(new, old)``
    tells.  It visits those nodes alone, lowest position first, from the
    readers the mutant's own set lists, which are all active: a reader sits
    above what it reads, so every value a node reads is final when the node
    is computed.  Output entries are skipped.  The entries of inactive
    nodes are None.
    """
    params = genome.params
    start = params.num_inputs
    nodes = genome.computational
    delta = genome.delta
    if (
        parent is None
        or parent.values is None
        or delta is None
        or delta.activated is None
    ):
        vector = inputs() + [None] * params.num_computational
        for idx in active.positions():
            node = nodes[idx]
            conns = node.connections
            vector[start + idx] = operations[node.function_id](
                vector[conns[0]], vector[conns[1]], context
            )
        return vector

    readers = active.readers
    num = params.num_computational
    # copied on the first value that differs from the parent's
    vector = base = parent.values
    # a node the same change activated and released again is not computed
    queued = set(filter(readers.__getitem__, (*delta.nodes, *delta.activated)))
    # a heap, lowest position first
    queue = sorted(queued)
    while queue:
        idx = heappop(queue)
        node = nodes[idx]
        conns = node.connections
        value = operations[node.function_id](vector[conns[0]], vector[conns[1]], context)
        position = start + idx
        if differs(value, vector[position]):
            if vector is base:
                vector = base.copy()
            vector[position] = value
            for reader in readers[idx]:
                if reader < num and reader not in queued:
                    queued.add(reader)
                    heappush(queue, reader)
    if delta.released:
        # a value no active node reads any more would only hold memory
        if vector is base:
            vector = base.copy()
        for idx in delta.released:
            vector[start + idx] = None
    return vector


def evaluate_packed(
    genome: Genotype,
    input_masks: Sequence[int],
    full_mask: int,
    active: ActiveSet,
    parent: Genotype | None = None,
) -> list[int]:
    """Evaluate a Boolean genome on all truth-table rows at once.

    ``input_masks[i]`` packs input bit i across rows (bit r = row r's value);
    the returned masks pack each output column the same way, so bit r of
    each result is the output on row r alone.  ``parent``, when ``genome``
    is its mutant, must have been evaluated on the same masks; its vector
    is then the starting point.
    """
    params = genome.params
    fset = params.functions()
    if not fset.is_boolean:
        raise ConfigError("packed evaluation is defined for the boolean set only")
    inputs = lambda: [int(mask) for mask in input_masks]
    values = genome.values = _walk(genome, active, fset.functions, full_mask, inputs, parent)
    return [values[c] for c in genome.output_connections]


def _bits_differ(value: np.ndarray, old: np.ndarray | None) -> bool:
    """Whether two node values differ in any byte: -0.0 differs from 0.0,
    and NaNs with other payloads differ, so no stale byte is kept."""
    return old is None or value.tobytes() != old.tobytes()


def evaluate_batch(
    genome: Genotype,
    xs: np.ndarray,
    active: ActiveSet,
    parent: Genotype | None = None,
) -> np.ndarray:
    """Evaluate a regression genome on a batch of points.

    ``xs`` has shape (n_points, num_inputs); the result has shape
    (n_points, num_outputs) and may be a read-only view of node values.
    ``parent``, when ``genome`` is its mutant, must have been evaluated on
    the same ``xs``; its vector is then the starting point.
    """
    params = genome.params
    fset = params.functions()
    if fset.is_boolean:
        raise ConfigError("batch evaluation is defined for the regression set only")
    if xs.ndim != 2 or xs.shape[1] != params.num_inputs:
        raise ConfigError(f"expected shape (n, {params.num_inputs}), got {xs.shape}")
    # contiguous copies of the columns, so that the ufuncs read the same
    # memory layout, and give the same bits, whatever the layout of ``xs``
    inputs = lambda: [read_only(xs[:, i].astype(np.float64)) for i in range(xs.shape[1])]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = genome.values = _walk(
            genome, active, fset.functions, None, inputs, parent, _bits_differ
        )
    outputs = [values[c] for c in genome.output_connections]
    if len(outputs) == 1:
        return outputs[0][:, None]
    return np.column_stack(outputs)


def to_flat_text(genome: Genotype) -> str:
    """Flat serialization: one `pos function_id conn...` line per node,
    then one `out_i conn` line per output. Shape metadata rides in comments."""
    params = genome.params
    lines = [
        f"# inputs={params.num_inputs} outputs={params.num_outputs} "
        f"nodes={params.num_computational} arity={ARITY} "
        f"function_set={params.function_set}"
    ]
    for idx, node in enumerate(genome.computational):
        conns = " ".join(str(c) for c in node.connections)
        lines.append(f"{params.comp_start + idx} {node.function_id} {conns}")
    for k, conn in enumerate(genome.output_connections):
        lines.append(f"out_{k} {conn}")
    return "\n".join(lines) + "\n"
