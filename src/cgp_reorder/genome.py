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
computed again.  The walk finds those readers in a reader index that the
parent's active set carries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .functions import FunctionSet, FunctionSpec, get_function_set

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
        get_function_set(self.function_set)

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
        return get_function_set(self.function_set)


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


@dataclass
class ActiveSet:
    """Which computational nodes lie on a path to an output.

    ``consumers[i]`` is indexed by computational position (0-based, not
    global): the number of output genes and consumed connection genes of
    active nodes that reference node i.  A node is active exactly when it
    has a consumer, so the counts are the only stored copy of the set; the
    bitmap, the count and the ascending positions are derived from them.
    A caller that knows the positions already passes them as the second
    argument.  An active set is never mutated after construction, so sets
    may share their lists.

    The reader index, built on first use by :meth:`readers`, lists for each
    node the active nodes whose consumed genes read it.  A set that
    :func:`decode_active` derived from a parent's keeps ``source``: the
    parent's set, the parent's nodes and the nodes whose consumed genes
    may differ between the two.  Its index is then derived from the
    parent's, and ``source`` is dropped.
    """

    consumers: list[int]
    _positions: list[int] | None = field(default=None, repr=False, compare=False)
    _readers: list | None = field(default=None, repr=False, compare=False)
    source: tuple | None = field(default=None, repr=False, compare=False)

    def positions(self) -> list[int]:
        """Ascending computational indices of the active nodes.

        Computed on first use and shared by later calls: do not mutate it.
        """
        if self._positions is None:
            self._positions = list(compress(range(len(self.consumers)), self.consumers))
        return self._positions

    @property
    def count(self) -> int:
        return len(self.positions())

    @property
    def bitmap(self) -> list[bool]:
        """Whether each node is active, as a new list."""
        return list(map(bool, self.consumers))

    def readers(self, nodes: list[NodeGene], arities: Sequence[int], start: int) -> list:
        """Per computational index, a tuple of the active nodes whose
        consumed genes read it, one entry per gene, in no set order.

        ``nodes`` are the nodes of a genome with this active set.  Computed
        on first use and shared by later calls: do not mutate it.
        """
        if self._readers is None:
            source, self.source = self.source, None
            if source is not None and source[0]._readers is not None:
                self._readers = _derived_readers(self, nodes, arities, start, *source)
            else:
                # tuples of ints, which the garbage collector stops
                # tracking: lists would add hundreds of live containers to
                # every collection while the index lives
                readers = [()] * len(self.consumers)
                for idx in self.positions():
                    node = nodes[idx]
                    first, second = node.connections
                    if first >= start:
                        readers[first - start] += (idx,)
                    if second >= start and arities[node.function_id] > 1:
                        readers[second - start] += (idx,)
                self._readers = readers
        return self._readers


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


def _consumed(node: NodeGene, arities: Sequence[int], start: int, into: list) -> None:
    """Append the computational indices ``node``'s function reads to ``into``."""
    for conn in node.connections[: arities[node.function_id]]:
        if conn >= start:
            into.append(conn - start)


def _activate(nodes, arities, start, consumers, stack) -> list[int]:
    """Count one more consumer for every node on ``stack``; a node whose
    count goes from 0 to 1 becomes active and counts, depth first, the
    nodes its function reads.  Returns the nodes that became active."""
    added = []
    while stack:
        idx = stack.pop()
        consumers[idx] += 1
        if consumers[idx] == 1:
            added.append(idx)
            _consumed(nodes[idx], arities, start, stack)
    return added


def _deactivate(nodes, arities, start, consumers, stack) -> list[int]:
    """Count one consumer less for every node on ``stack``; a node whose
    count goes from 1 to 0 becomes inactive and releases, in turn, the
    nodes its function reads.  Returns the nodes that became inactive."""
    removed = []
    while stack:
        idx = stack.pop()
        consumers[idx] -= 1
        if not consumers[idx]:
            removed.append(idx)
            _consumed(nodes[idx], arities, start, stack)
    return removed


def _derived_readers(active, nodes, arities, start, parent_active, parent_nodes, touched):
    """The reader index of ``active`` from that of ``parent_active``: every
    node in ``touched`` stops reading what it read as a parent-active node
    and reads what it reads as an active node of ``nodes``.  Only those
    entries are replaced; the others are shared with the parent's index."""
    readers = parent_active._readers.copy()
    consumers, parent_consumers = active.consumers, parent_active.consumers
    for idx in dict.fromkeys(touched):
        old: list[int] = []
        new: list[int] = []
        if parent_consumers[idx]:
            _consumed(parent_nodes[idx], arities, start, old)
        if consumers[idx]:
            _consumed(nodes[idx], arities, start, new)
        if old == new:
            continue
        for target in old:
            entry = list(readers[target])
            entry.remove(idx)
            readers[target] = tuple(entry)
        for target in new:
            readers[target] += (idx,)
    return readers


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
    a full walk, and the delta's ``activated`` is filled in.  The genes of
    the changed parent-active nodes and the changed output genes move
    consumer counts; a node that gains its first consumer is activated depth
    first, and one that loses its last is released, cascading.  The work is
    proportional to what changed, not to the size of the genome.
    """
    params = genome.params
    arities = params.functions().arities
    start = params.comp_start
    nodes = genome.computational
    delta = genome.delta
    if parent is None or parent_active is None or delta is None:
        consumers = [0] * params.num_computational
        stack = [conn - start for conn in genome.output_connections if conn >= start]
        _activate(nodes, arities, start, consumers, stack)
        return ActiveSet(consumers)

    old_nodes = parent.computational
    old_consumers = parent_active.consumers
    released: list[int] = []
    gained: list[int] = []
    changed = [idx for idx in delta.nodes if old_consumers[idx]]
    for idx in changed:
        _consumed(old_nodes[idx], arities, start, released)
        _consumed(nodes[idx], arities, start, gained)
    # with one changed node, equal lists mean that it reads what it read
    reads_kept = len(changed) < 2 and released == gained
    for k in delta.outputs:
        old, new = parent.output_connections[k], genome.output_connections[k]
        if old >= start:
            released.append(old - start)
        if new >= start:
            gained.append(new - start)
    if reads_kept and released == gained:
        # no gene moved, as when only a function gene of the same arity or
        # an unconsumed gene changed: the active graph is the parent's, and
        # so is every node's list of readers
        delta.activated = delta.released = []
        return parent_active

    consumers = old_consumers.copy()
    # gains first: a parent-active node that the delta releases but that a
    # newly activated node consumes again never reaches zero, so it is
    # neither activated again nor released
    activated = delta.activated = _activate(nodes, arities, start, consumers, gained)
    delta.released = _deactivate(nodes, arities, start, consumers, released)
    source = (parent_active, old_nodes, changed + activated + delta.released)
    if activated or delta.released:
        return ActiveSet(consumers, source=source)
    # no count crossed zero: the same nodes are active
    return ActiveSet(consumers, parent_active.positions(), source=source)


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
    parent's reader index: a reader sits above what it reads, so every
    value a node reads is final when the node is computed.  A reader that
    the mutant released is skipped, and one whose genes the mutant changed
    is computed anyway.  The entries of inactive nodes are None.
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

    arities = params.functions().arities
    source = active.source
    if source is not None and source[1] is parent.computational:
        # the set was derived from the parent's, whose index serves
        readers = source[0].readers(source[1], arities, start)
    else:
        # the parent's set itself, or one whose index is built already
        readers = active.readers(nodes, arities, start)
    consumers = active.consumers
    # copied on the first value that differs from the parent's
    vector = base = parent.values
    # a node the same change activated and released again is not computed
    queued = set(filter(consumers.__getitem__, (*delta.nodes, *delta.activated)))
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
                if reader not in queued and consumers[reader]:
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
    active: ActiveSet | None = None,
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
    if active is None:
        active = decode_active(genome)
    inputs = lambda: [int(mask) for mask in input_masks]
    values = genome.values = _walk(genome, active, fset.functions, full_mask, inputs, parent)
    return [values[c] for c in genome.output_connections]


def _read_only(value: np.ndarray) -> np.ndarray:
    value.flags.writeable = False
    return value


def _bits_differ(value: np.ndarray, old: np.ndarray | None) -> bool:
    """Whether two node values differ in any byte: -0.0 differs from 0.0,
    and NaNs with other payloads differ, so no stale byte is kept."""
    return old is None or value.tobytes() != old.tobytes()


@lru_cache(maxsize=None)
def _array_operations(set_id: str) -> tuple[Callable, ...]:
    """Per function id of a regression set, the value of a node from its
    inputs' values, as a read-only float64 array."""

    def operation(spec: FunctionSpec) -> Callable:
        fn, unary = spec.fn, spec.arity == 1

        def apply(a: np.ndarray, b: np.ndarray, context: None) -> np.ndarray:
            return _read_only(np.asarray(fn(a) if unary else fn(a, b), dtype=np.float64))

        return apply

    return tuple(map(operation, get_function_set(set_id).entries))


def evaluate_batch(
    genome: Genotype,
    xs: np.ndarray,
    active: ActiveSet | None = None,
    parent: Genotype | None = None,
) -> np.ndarray:
    """Evaluate a regression genome on a batch of points.

    ``xs`` has shape (n_points, num_inputs); the result has shape
    (n_points, num_outputs) and may be a read-only view of node values.
    ``parent``, when ``genome`` is its mutant, must have been evaluated on
    the same ``xs``; its vector is then the starting point.
    """
    params = genome.params
    if params.functions().is_boolean:
        raise ConfigError("batch evaluation is defined for the regression set only")
    if xs.ndim != 2 or xs.shape[1] != params.num_inputs:
        raise ConfigError(f"expected shape (n, {params.num_inputs}), got {xs.shape}")
    if active is None:
        active = decode_active(genome)
    operations = _array_operations(params.function_set)
    # contiguous copies of the columns, so that the ufuncs read the same
    # memory layout, and give the same bits, whatever the layout of ``xs``
    inputs = lambda: [_read_only(xs[:, i].astype(np.float64)) for i in range(xs.shape[1])]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = genome.values = _walk(
            genome, active, operations, None, inputs, parent, _bits_differ
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
