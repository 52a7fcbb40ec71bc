"""Single-row CGP genotype: construction, validation, decoding, evaluation.

Global node numbering runs input nodes first, then computational nodes, then
output nodes.  A computational node carries one function gene and a fixed
number of connection genes; every connection gene must reference a strictly
smaller global position, so the encoded graph is feed-forward by
construction.  Functions that consume fewer connections than the genome
stores simply ignore the excess genes, both when decoding which nodes are
active and when evaluating.

A genotype is treated as immutable after construction: mutation and
reordering return new instances and share untouched node records with the
parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .functions import FunctionSet, get_function_set


@dataclass(frozen=True)
class GraphParams:
    """Shape of the encoded graph: node counts, arity, and function set."""

    num_inputs: int
    num_outputs: int
    num_computational: int
    arity: int = 2
    function_set: str = "boolean"

    def __post_init__(self) -> None:
        for name in ("num_inputs", "num_outputs", "num_computational", "arity"):
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


@dataclass
class Genotype:
    params: GraphParams
    computational: list[NodeGene]
    output_connections: tuple[int, ...]
    # the active set of a genome a reorder operator built, carried over
    # from its source genome instead of decoded; None otherwise
    active: ActiveSet | None = field(default=None, compare=False, repr=False)


@dataclass
class ActiveSet:
    """Which computational nodes lie on a path to an output.

    ``bitmap[i]`` is indexed by computational position (0-based, not global),
    and so is ``consumers[i]``: the number of output genes and consumed
    connection genes of active nodes that reference node i.  A node is
    active exactly when it has a consumer.  An active set is never mutated
    after construction, so sets may share their lists.
    """

    bitmap: list[bool]
    count: int
    consumers: list[int]
    _positions: list[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def positions(self) -> list[int]:
        """Ascending computational indices of the active nodes.

        Computed on first use and shared by later calls: do not mutate it.
        """
        if self._positions is None:
            self._positions = list(compress(range(len(self.bitmap)), self.bitmap))
        return self._positions


def random_genome(params: GraphParams, rng: np.random.Generator) -> Genotype:
    """Sample a uniformly random valid genotype for the given shape."""
    fset = params.functions()
    nodes = []
    for i in range(params.num_computational):
        position = params.comp_start + i
        fid = int(rng.integers(fset.size))
        conns = tuple(int(rng.integers(position)) for _ in range(params.arity))
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


def _activate(nodes, arities, start, bitmap, consumers, stack) -> int:
    """Mark active every node on ``stack`` and, depth first, every node they
    consume, counting each consumed gene of a newly active node; returns
    how many nodes became active."""
    added = 0
    while stack:
        idx = stack.pop()
        if bitmap[idx]:
            continue
        bitmap[idx] = True
        added += 1
        node = nodes[idx]
        for conn in node.connections[: arities[node.function_id]]:
            if conn >= start:
                consumers[conn - start] += 1
                stack.append(conn - start)
    return added


def _deactivate(nodes, arities, start, bitmap, consumers, stack) -> int:
    """Mark inactive every active node on ``stack`` left without a consumer,
    releasing its consumed genes in turn; returns how many became inactive."""
    removed = 0
    while stack:
        idx = stack.pop()
        if not bitmap[idx] or consumers[idx]:
            continue
        bitmap[idx] = False
        removed += 1
        node = nodes[idx]
        for conn in node.connections[: arities[node.function_id]]:
            if conn >= start:
                consumers[conn - start] -= 1
                stack.append(conn - start)
    return removed


def decode_active(
    genome: Genotype,
    parent: Genotype | None = None,
    parent_active: ActiveSet | None = None,
) -> ActiveSet:
    """Backward reachability from the output connections.

    Only the connection genes a node's function actually consumes are
    followed; the unused genes of sub-arity functions never activate a node.

    Given a ``parent`` of the same shape and its active set, the result is
    derived from that set instead of a full walk.  Nodes are compared by
    identity, so the work is proportional to the parent's active count plus
    what changed when ``genome`` shares its untouched nodes with ``parent``,
    as a mutant does.  The genes of changed parent-active nodes and the
    changed output genes move consumer counts; a node that gains its first
    consumer is activated depth first, and one that loses its last is
    released, cascading.
    """
    params = genome.params
    arities = params.functions().arities
    start = params.comp_start
    nodes = genome.computational
    if parent is None or parent_active is None:
        bitmap = [False] * params.num_computational
        consumers = [0] * params.num_computational
        stack: list[int] = []
        for conn in genome.output_connections:
            if conn >= start:
                consumers[conn - start] += 1
                stack.append(conn - start)
        count = _activate(nodes, arities, start, bitmap, consumers, stack)
        return ActiveSet(bitmap, count, consumers)

    old_nodes = parent.computational
    released: list[int] = []
    gained: list[int] = []
    for idx in parent_active.positions():
        if old_nodes[idx] is not nodes[idx]:
            _consumed(old_nodes[idx], arities, start, released)
            _consumed(nodes[idx], arities, start, gained)
    if parent.output_connections != genome.output_connections:
        for old, new in zip(parent.output_connections, genome.output_connections):
            if old != new:
                if old >= start:
                    released.append(old - start)
                if new >= start:
                    gained.append(new - start)
    if not released and not gained:
        return parent_active

    bitmap = parent_active.bitmap.copy()
    consumers = parent_active.consumers.copy()
    for idx in gained:
        consumers[idx] += 1
    for idx in released:
        consumers[idx] -= 1
    count = parent_active.count
    count += _activate(nodes, arities, start, bitmap, consumers, gained)
    count -= _deactivate(nodes, arities, start, bitmap, consumers, released)
    return ActiveSet(bitmap, count, consumers)


def evaluate_packed(
    genome: Genotype,
    input_masks: Sequence[int],
    full_mask: int,
    active: ActiveSet | None = None,
) -> list[int]:
    """Evaluate a Boolean genome on all truth-table rows at once.

    ``input_masks[i]`` packs input bit i across rows (bit r = row r's value);
    the returned masks pack each output column the same way, so bit r of
    each result is the output on row r alone.
    """
    params = genome.params
    fset = params.functions()
    if not fset.is_boolean:
        raise ConfigError("packed evaluation is defined for the boolean set only")
    start = params.comp_start
    if active is None:
        active = decode_active(genome)
    values: list = [0] * params.num_connectable
    for i in range(params.num_inputs):
        values[i] = int(input_masks[i])
    entries = fset.entries
    nodes = genome.computational
    for idx in active.positions():
        node = nodes[idx]
        conns = node.connections
        values[start + idx] = entries[node.function_id].fn(
            values[conns[0]], values[conns[1]], full_mask
        )
    return [values[c] for c in genome.output_connections]


class SubexpressionCache:
    """Values of regression subexpressions over one batch of points.

    A subexpression is keyed by its structure, not by where it sits in a
    genome: an input column is keyed by its index, and a node by its function
    id plus the keys of the inputs its function consumes.  Keys are
    hash-consed to small ints, so a key is a flat tuple at every depth.  Two
    genomes that share a subexpression (a parent and its mutant, or a genome
    before and after a reorder) share its value, and evaluating the second
    computes only the nodes the first did not have.  Values are read-only
    float64 arrays, computed by the same ufuncs on the same arrays whichever
    genome first needs them, so a hit is bit-identical to a recomputation.

    The cache only grows while genomes are evaluated; :meth:`prune` drops
    every entry one genome's active graph does not use.
    """

    def __init__(self, xs: np.ndarray) -> None:
        self.xs = xs
        # structure (function id, consumed input keys...) -> key
        self._keys: dict[tuple, int] = {}
        # key -> value; the keys below the input count are the input columns
        self._values: dict[int, np.ndarray] = {}
        for i in range(xs.shape[1]):
            column = xs[:, i].astype(np.float64)
            column.flags.writeable = False
            self._values[i] = column
        self._next_key = xs.shape[1]

    def __len__(self) -> int:
        """Cached values, input columns included."""
        return len(self._values)

    def _resolve(self, genome: Genotype, active: ActiveSet) -> list:
        """Key of every input and active node, by global position (None for
        inactive nodes), computing the values of keys not yet cached."""
        params = genome.params
        start = params.comp_start
        entries = params.functions().entries
        nodes = genome.computational
        keys: list = list(range(start)) + [None] * params.num_computational
        structures = self._keys
        values = self._values
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for idx in active.positions():
                node = nodes[idx]
                fid = node.function_id
                spec = entries[fid]
                conns = node.connections
                if spec.arity == 1:
                    structure = (fid, keys[conns[0]])
                else:
                    structure = (fid, keys[conns[0]], keys[conns[1]])
                key = structures.get(structure)
                if key is None:
                    args = [values[k] for k in structure[1:]]
                    value = np.asarray(spec.fn(*args), dtype=np.float64)
                    value.flags.writeable = False
                    key = self._next_key
                    self._next_key += 1
                    structures[structure] = key
                    values[key] = value
                keys[start + idx] = key
        return keys

    def prune(self, genome: Genotype, active: ActiveSet) -> None:
        """Keep only the input columns and the subexpressions of ``genome``'s
        active graph, computing any of those that are missing."""
        live = set(self._resolve(genome, active))
        live.discard(None)
        self._keys = {s: k for s, k in self._keys.items() if k in live}
        self._values = {k: self._values[k] for k in live}


def evaluate_batch(
    genome: Genotype,
    xs: np.ndarray,
    active: ActiveSet | None = None,
    cache: SubexpressionCache | None = None,
) -> np.ndarray:
    """Evaluate a regression genome on a batch of points.

    ``xs`` has shape (n_points, num_inputs); the result has shape
    (n_points, num_outputs) and may be a read-only view of cached values.
    Node values are read from and added to ``cache``, which must have been
    built for this same ``xs``; a call without one uses a fresh cache.
    """
    params = genome.params
    if params.functions().is_boolean:
        raise ConfigError("batch evaluation is defined for the regression set only")
    if xs.ndim != 2 or xs.shape[1] != params.num_inputs:
        raise ConfigError(f"expected shape (n, {params.num_inputs}), got {xs.shape}")
    if cache is None:
        cache = SubexpressionCache(xs)
    elif cache.xs is not xs:
        raise ConfigError("the subexpression cache was built for a different batch")
    if active is None:
        active = decode_active(genome)
    keys = cache._resolve(genome, active)
    outputs = [cache._values[keys[c]] for c in genome.output_connections]
    if len(outputs) == 1:
        return outputs[0][:, None]
    return np.column_stack(outputs)


def validate(genome: Genotype) -> list[str]:
    """Check every genotype invariant; returns one message per violation."""
    params = genome.params
    fset = params.functions()
    start = params.comp_start
    report: list[str] = []
    if len(genome.computational) != params.num_computational:
        report.append(
            f"expected {params.num_computational} computational nodes, "
            f"got {len(genome.computational)}"
        )
    for idx, node in enumerate(genome.computational):
        position = start + idx
        if not 0 <= node.function_id < fset.size:
            report.append(f"node {position}: function id {node.function_id} out of range")
        if len(node.connections) != params.arity:
            report.append(
                f"node {position}: expected {params.arity} connection genes, "
                f"got {len(node.connections)}"
            )
        for k, conn in enumerate(node.connections):
            if not 0 <= conn < position:
                report.append(
                    f"node {position}: connection {k} -> {conn} is not feed-forward"
                )
    if len(genome.output_connections) != params.num_outputs:
        report.append(
            f"expected {params.num_outputs} output connections, "
            f"got {len(genome.output_connections)}"
        )
    for k, conn in enumerate(genome.output_connections):
        if not 0 <= conn < params.num_connectable:
            report.append(
                f"output {k} -> {conn} must reference an input or computational position"
            )
    return report


def to_flat_text(genome: Genotype) -> str:
    """Flat serialization: one `pos function_id conn...` line per node,
    then one `out_i conn` line per output. Shape metadata rides in comments."""
    params = genome.params
    lines = [
        f"# inputs={params.num_inputs} outputs={params.num_outputs} "
        f"nodes={params.num_computational} arity={params.arity} "
        f"function_set={params.function_set}"
    ]
    for idx, node in enumerate(genome.computational):
        conns = " ".join(str(c) for c in node.connections)
        lines.append(f"{params.comp_start + idx} {node.function_id} {conns}")
    for k, conn in enumerate(genome.output_connections):
        lines.append(f"out_{k} {conn}")
    return "\n".join(lines) + "\n"


def from_flat_text(text: str) -> Genotype:
    """Parse the output of :func:`to_flat_text` (header comment required)."""
    header = None
    node_lines: list[list[str]] = []
    output_lines: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is None and "inputs=" in line:
                header = dict(
                    part.split("=", 1) for part in line.lstrip("# ").split()
                )
            continue
        fields = line.split()
        if fields[0].startswith("out_"):
            output_lines.append(fields)
        else:
            node_lines.append(fields)
    if header is None:
        raise ConfigError("flat genome text is missing its shape header comment")
    params = GraphParams(
        num_inputs=int(header["inputs"]),
        num_outputs=int(header["outputs"]),
        num_computational=int(header["nodes"]),
        arity=int(header["arity"]),
        function_set=header["function_set"],
    )
    nodes = [
        NodeGene(int(fields[1]), tuple(int(c) for c in fields[2:]))
        for fields in sorted(node_lines, key=lambda f: int(f[0]))
    ]
    outputs = tuple(
        int(fields[1])
        for fields in sorted(output_lines, key=lambda f: int(f[0].split("_")[1]))
    )
    genome = Genotype(params, nodes, outputs)
    problems = validate(genome)
    if problems:
        raise ConfigError("flat genome text is invalid: " + "; ".join(problems))
    return genome
