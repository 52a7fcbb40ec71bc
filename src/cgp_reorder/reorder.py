"""Genotype reordering operators.

All operators permute the computational nodes of a genotype and remap every
connection gene to the new numbering, leaving the encoded program (the
phenotype) unchanged.  Five operators are provided:

* ``original``     -- topological shuffle: repeatedly place a random node
  whose referenced nodes are all placed already.
* ``equidistant``  -- active nodes land on evenly spaced positions from
  :func:`lin_space`, inactive nodes fill the gaps in their old order.
* ``uniform``      -- like equidistant, but active positions are drawn from
  a continuous uniform distribution over the computational range.
* ``negbias``      -- all active nodes move to the last positions, directly
  before the outputs; inactive nodes move in front of them.
* ``leftskew``     -- like uniform, but positions are drawn from a
  Beta(6, 1) distribution, piling active nodes toward the output end.

The operators differ only in their order function, which gives ``order``,
the old index of the node placed at each index, or None when nothing
moves; one body, :func:`_reorder`, runs them all.  The placement orders
keep the relative order of active nodes (and of inactive nodes among
themselves), which preserves program semantics, but can leave inactive
nodes with forward connection genes, which
:func:`repair_forward_connections` resamples.  The topological order
respects every literal gene and leaves none.

:func:`_remap` rebuilds only the span from the first to the last index
that ``order`` moves, and there only the nodes whose position or genes
change; outside it, only a node that reads a moved node is.  The
evaluation vector is permuted along with the nodes, and the active set's
readers are listed anew, with no reachability walk.  A None order skips
all of that: under negbias most placements are such, since the active
nodes sit at the tail already.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .genome import ActiveSet, Genotype, NodeGene, decode_active, listed_active


def lin_space(start: int, end: int, count: int) -> list[int]:
    """Evenly spaced integer positions: floor(start + i*(end-start)/count).

    Computed in exact integer arithmetic; for count = 1 the single position
    is ``end``.
    """
    if start > end:
        raise ValueError(f"start {start} must not exceed end {end}")
    if not 1 <= count <= end - start + 1:
        raise ValueError(
            f"count {count} outside [1, {end - start + 1}] for range [{start}, {end}]"
        )
    span = end - start
    return [start + (i * span) // count for i in range(1, count + 1)]


def beta61_from_uniform(u):
    """Inverse-CDF transform of Beta(6, 1): F(x) = x^6, so x = u^(1/6)."""
    return u ** (1.0 / 6.0)


def _distinct_positions(sorted_values, start: int, end: int) -> np.ndarray:
    """Map ascending continuous samples onto distinct integers in [start, end].

    Each sample is floored; collisions advance to the next free slot to the
    right, and any overflow past ``end`` is swept back leftward from the end.
    The sample order is preserved, so active nodes are never permuted.

    Both sweeps are running extrema: with ``i`` the sample's rank, the
    rightward one is ``i + cummax(floor(v) - i)`` and the leftward one
    ``i + reversed cummin(p - i)``, capped at ``end - (n - 1)``.
    """
    ranks = np.arange(len(sorted_values))
    floors = np.floor(sorted_values).astype(np.intp) - ranks
    floors[0] = max(floors[0], start)
    pushed = np.maximum.accumulate(floors)
    pushed[-1] = min(pushed[-1], end - ranks[-1])
    return ranks + np.minimum.accumulate(pushed[::-1])[::-1]


def repair_forward_connections(
    genome: Genotype,
    rng: np.random.Generator,
    active: ActiveSet | None = None,
    rows: list[int] | None = None,
) -> int:
    """Resample every forward-pointing connection gene uniformly from [0, pos).

    Mutates ``genome`` in place and returns the number of repaired genes.
    A forward gene that an active node's function actually consumes would
    change the phenotype, so that case raises instead of repairing, before
    the genome changes: it means an operator mixed up the active ordering.
    The forward genes are drawn one at a time, in node-then-gene order.
    ``rows`` are the ascending indices of the nodes that hold a forward
    gene, when the caller has them already (:func:`_remap` returns them);
    otherwise every node is scanned.
    """
    params = genome.params
    start = params.comp_start
    nodes = genome.computational
    if rows is None:
        genes = enumerate([node.connections for node in nodes], start)
        rows = [position - start for position, (a, b) in genes if a >= position or b >= position]
    forward = [
        (idx, k, conn) for idx in rows
        for k, conn in enumerate(nodes[idx].connections) if conn >= start + idx
    ]
    if not forward:
        return 0
    if active is None:
        active = decode_active(genome)
    arities = params.functions().arities
    for idx, k, conn in forward:
        if active.readers[idx] and k < arities[nodes[idx].function_id]:
            raise InvariantViolation(
                f"active node at position {start + idx} consumes a forward "
                f"connection to {conn}"
            )
    for idx in rows:
        node, position = nodes[idx], start + idx
        genes = [int(rng.integers(position)) if c >= position else c for c in node.connections]
        nodes[idx] = NodeGene(node.function_id, tuple(genes))
    return len(forward)


def _remap(
    genome: Genotype, active: ActiveSet, order: list[int]
) -> tuple[Genotype, list[int]]:
    """Place at index i the node that sat at index ``order[i]``, remap every
    connection and output gene to the new positions (inputs keep theirs),
    and carry the active set and the evaluation vector over.  Returns the
    new genome and the ascending indices of its nodes that hold a forward
    gene.  Only the span from lo to hi, the first and the last index that
    ``order`` moves, is rebuilt, and there only a node whose position or
    genes change.  Outside it the nodes and their vector entries are shared,
    but for a node above hi that reads a moved position: it holds no forward
    gene either, as it reads below its own position.
    """
    params = genome.params
    start = params.comp_start
    num = params.num_computational
    lo = next((i for i, old in enumerate(order) if i != old), num)
    hi = next((i for i in range(num - 1, lo, -1) if order[i] != i), lo)
    moved = order[lo : hi + 1]
    position_map = list(range(start + num))
    for position, old in enumerate(moved, start + lo):
        position_map[start + old] = position
    nodes = genome.computational
    new_nodes = nodes[:lo]
    forward = []
    for position, old in enumerate(moved, start + lo):
        node = nodes[old]
        first, second = node.connections
        genes = (position_map[first], position_map[second])
        if position != start + old or genes != node.connections:
            node = NodeGene(node.function_id, genes)
        new_nodes.append(node)
        if genes[0] >= position or genes[1] >= position:
            forward.append(position - start)
    new_nodes += nodes[hi + 1 :]
    low, high = start + lo, start + hi
    for idx, node in enumerate(nodes[hi + 1 :], hi + 1):
        first, second = node.connections
        if low <= first <= high or low <= second <= high:
            genes = (position_map[first], position_map[second])
            if genes != node.connections:
                new_nodes[idx] = NodeGene(node.function_id, genes)
    outputs = tuple([position_map[conn] for conn in genome.output_connections])
    positions = active.positions()
    below, above = bisect_left(positions, lo), bisect_right(positions, hi)
    inside = sorted([position_map[start + idx] - start for idx in positions[below:above]])
    carried = listed_active(params, new_nodes, outputs, positions[:below] + inside + positions[above:])
    values = genome.values
    if values is not None:
        gathered = [values[start + old] for old in moved]
        values = values[: start + lo] + gathered + values[start + hi + 1 :]
    return Genotype(params, new_nodes, outputs, carried, values=values), forward


def _reorder(
    genome: Genotype, rng: np.random.Generator, active: ActiveSet | None, order_of
) -> Genotype:
    """The body of every operator.

    ``order_of(genome, rng, active)`` gives ``order``, or None when nothing
    moves: then the result is a new genome that shares the source's nodes,
    active set and vector, and no remap or repair runs.  Otherwise the
    forward genes :func:`_remap` finds are repaired.
    """
    if active is None:
        active = decode_active(genome)
    if active.count == 0:
        return genome
    order = order_of(genome, rng, active)
    if order is None:
        nodes, outputs = list(genome.computational), genome.output_connections
        return Genotype(genome.params, nodes, outputs, active, values=genome.values)
    placed, rows = _remap(genome, active, order)
    repair_forward_connections(placed, rng, placed.active, rows)
    return placed


def _topological_order(genome: Genotype, rng: np.random.Generator, active: ActiveSet) -> list[int]:
    """A random topological order of the literal connection graph.

    Every node whose referenced nodes are all placed (or are inputs) is a
    candidate; one candidate is drawn uniformly at random and appended to the
    order until all nodes are placed.  The graph is read from the node
    records in one loop.
    """
    params = genome.params
    start = params.comp_start
    num = params.num_computational
    # per position, the nodes that read it, once per gene, in (node, gene) order
    dependents: list[list[int]] = [[] for _ in range(start + num)]
    unresolved = []
    for idx, node in enumerate(genome.computational):
        first, second = node.connections
        dependents[first].append(idx)
        dependents[second].append(idx)
        unresolved.append((first >= start) + (second >= start))
    ready = [i for i in range(num) if not unresolved[i]]
    order: list[int] = []
    # one batched draw covers the whole shuffle; int(u * len) keeps each
    # pick uniform over the current candidate set
    for u in rng.random(num).tolist():
        if not ready:
            break
        pick = int(u * len(ready))
        ready[pick], ready[-1] = ready[-1], ready[pick]
        old_idx = ready.pop()
        order.append(old_idx)
        for dep in dependents[start + old_idx]:
            unresolved[dep] -= 1
            if unresolved[dep] == 0:
                ready.append(dep)
    if len(order) != num:
        raise InvariantViolation("feed-forward genome has no topological completion")
    return order


def _placement_order(targets):
    """The order function of a placement operator.

    ``targets(start, end, count, rng)`` gives the positions of the active
    nodes.  Targets that are the active nodes' own positions give None.
    Otherwise they must be strictly ascending and inside the computational
    range, and each active node goes to its target while the inactive nodes
    fill the free slots in their old order.  Only the span the active moves
    reach is filled: outside it every node keeps its place.
    """

    def order_of(genome: Genotype, rng: np.random.Generator, active: ActiveSet):
        params = genome.params
        start, end = params.comp_start, params.comp_end
        positions = active.positions()
        to = np.subtract(targets(start, end, len(positions), rng), start)
        if to.tolist() == positions:
            return None
        valid = len(to) == len(positions) and 0 <= to[0] and to[-1] <= end - start
        if not (valid and (to[1:] > to[:-1]).all()):
            raise InvariantViolation(f"targets {to.tolist()} not ascending in [0, {end - start}]")
        old = np.fromiter(positions, np.intp, len(positions))
        moves = np.flatnonzero(to != old)
        to, old = to[moves[0] : moves[-1] + 1], old[moves[0] : moves[-1] + 1]
        lo, hi = min(to[0], old[0]), max(to[-1], old[-1]) + 1
        span = np.full(hi - lo, -1)
        span[to - lo] = old
        inactive = np.ones(hi - lo, bool)
        inactive[old - lo] = False
        span[span < 0] = np.flatnonzero(inactive) + lo
        return [*range(lo), *span.tolist(), *range(hi, params.num_computational)]

    return order_of


def _sampled_targets(transform):
    """Targets from ``count`` uniforms mapped through ``transform`` onto
    [0, 1), scaled over the width end - start + 1 of the integer slots,
    sorted, and made distinct by :func:`_distinct_positions`."""

    def targets(start, end, count, rng):
        width = end - start + 1
        samples = np.sort(start + width * transform(rng.random(count)))
        return _distinct_positions(samples, start, end)

    return targets


_equidistant_order = _placement_order(lambda start, end, count, rng: lin_space(start, end, count))
_uniform_order = _placement_order(_sampled_targets(lambda u: u))
_tail_order = _placement_order(lambda start, end, count, rng: np.arange(end - count + 1, end + 1))


def _negbias_order(genome: Genotype, rng: np.random.Generator, active: ActiveSet):
    """The tail placement's order, or None, before any target is built, when
    the active nodes form the tail already: ascending distinct positions
    are the last ``count`` exactly when the first of them is."""
    positions = active.positions()
    if positions[0] == genome.params.num_computational - len(positions):
        return None
    return _tail_order(genome, rng, active)


_leftskew_order = _placement_order(_sampled_targets(beta61_from_uniform))


def reorder_original(
    genome: Genotype, rng: np.random.Generator, active: ActiveSet | None = None
) -> Genotype:
    """Topological shuffle over the literal connection graph.

    Because literal genes of both active and inactive nodes are respected,
    no connection can point forward afterwards and repair finds nothing.
    """
    return _reorder(genome, rng, active, _topological_order)


def reorder_equidistant(
    genome: Genotype, rng: np.random.Generator, active: ActiveSet | None = None
) -> Genotype:
    """Spread the active nodes evenly across the computational range."""
    return _reorder(genome, rng, active, _equidistant_order)


def reorder_uniform(
    genome: Genotype, rng: np.random.Generator, active: ActiveSet | None = None
) -> Genotype:
    """Place active nodes at positions drawn uniformly over the range.

    Each of the n samples is uniform over the integer slots [start, end]
    (continuous draw over a width of end - start + 1, floored); sorted
    samples keep the active order, and collisions shift to free slots.
    """
    return _reorder(genome, rng, active, _uniform_order)


def reorder_negbias(
    genome: Genotype, rng: np.random.Generator, active: ActiveSet | None = None
) -> Genotype:
    """Move every active node to the tail of the computational range."""
    return _reorder(genome, rng, active, _negbias_order)


def reorder_leftskew(
    genome: Genotype, rng: np.random.Generator, active: ActiveSet | None = None
) -> Genotype:
    """Place active nodes at Beta(6, 1)-distributed positions over the range."""
    return _reorder(genome, rng, active, _leftskew_order)


_OPERATORS = {
    "original": reorder_original,
    "equidistant": reorder_equidistant,
    "uniform": reorder_uniform,
    "negbias": reorder_negbias,
    "leftskew": reorder_leftskew,
}
REORDER_KINDS = ("none", *_OPERATORS)
GATED_KINDS = ("negbias", "leftskew")


@dataclass(frozen=True)
class ReorderStrategy:
    """Which operator to run, and how often (for the gated operators)."""

    kind: str
    p_reorder: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in REORDER_KINDS:
            raise ConfigError(
                f"unknown reorder kind {self.kind!r}; expected one of {REORDER_KINDS}"
            )
        if not 0.0 <= self.p_reorder <= 1.0:
            raise ConfigError(f"p_reorder must be in [0, 1], got {self.p_reorder}")
        if self.kind not in GATED_KINDS and self.p_reorder != 1.0:
            raise ConfigError(
                f"p_reorder is fixed to 1.0 for kind {self.kind!r}"
            )


def maybe_reorder(
    genome: Genotype,
    strategy: ReorderStrategy,
    rng: np.random.Generator,
    active: ActiveSet | None = None,
) -> Genotype:
    """Apply the strategy's operator with probability ``p_reorder``.

    ``active`` is ``genome``'s active set, decoded here when not given.  A
    genome the operator built carries its own active set in ``.active``.
    """
    if strategy.kind == "none":
        return genome
    if strategy.p_reorder < 1.0 and rng.random() >= strategy.p_reorder:
        return genome
    return _OPERATORS[strategy.kind](genome, rng, active)
