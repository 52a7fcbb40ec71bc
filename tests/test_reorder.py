import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cgp_reorder.draws import DrawFeed
from cgp_reorder.errors import InvariantViolation
from cgp_reorder.genome import (
    GraphParams,
    Genotype,
    NodeGene,
    decode_active,
    evaluate_batch,
    evaluate_packed,
    random_genome,
)
from cgp_reorder.reorder import (
    _distinct_positions,
    _placement_order,
    _remap,
    _reorder,
    beta61_from_uniform,
    lin_space,
    maybe_reorder,
    reorder_equidistant,
    reorder_leftskew,
    reorder_negbias,
    reorder_original,
    reorder_uniform,
    repair_forward_connections,
)

from conftest import (
    assert_readers_match,
    chain_genome,
    fig1_genome,
    hard_points,
    packed_inputs,
    reference_original,
    validate,
    with_forward_genes,
)

ALL_OPERATORS = [
    reorder_original,
    reorder_equidistant,
    reorder_uniform,
    reorder_negbias,
    reorder_leftskew,
]
PLACEMENT_OPERATORS = [
    reorder_equidistant,
    reorder_uniform,
    reorder_negbias,
    reorder_leftskew,
]


class TestLinSpace:
    @pytest.mark.parametrize("s,e", [(1, 1), (2, 9), (5, 40)])
    def test_single_value_lands_at_end(self, s, e):
        assert lin_space(s, e, 1) == [e]

    def test_hand_evaluated_examples(self):
        assert lin_space(3, 10, 2) == [6, 10]
        assert lin_space(1, 4, 4) == [1, 2, 3, 4]

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            lin_space(5, 4, 1)
        with pytest.raises(ValueError):
            lin_space(1, 4, 0)
        with pytest.raises(ValueError):
            lin_space(1, 4, 5)

    @given(st.integers(1, 60), st.integers(0, 60), st.data())
    def test_matches_exact_rational_formula(self, s, span, data):
        e = s + span
        n = data.draw(st.integers(1, span + 1))
        expected = [math.floor(Fraction(s) + i * Fraction(e - s, n)) for i in range(1, n + 1)]
        assert lin_space(s, e, n) == expected

    @given(st.integers(1, 60), st.integers(0, 60), st.data())
    def test_distinct_ascending_in_range(self, s, span, data):
        e = s + span
        n = data.draw(st.integers(1, span + 1))
        result = lin_space(s, e, n)
        assert len(result) == n
        assert all(a < b for a, b in zip(result, result[1:]))
        assert s <= result[0] and result[-1] == e


class TestBetaSampler:
    def test_inverse_cdf_boundary_values(self):
        assert beta61_from_uniform(1.0) == 1.0
        assert beta61_from_uniform(0.0) == 0.0
        assert beta61_from_uniform(2.0**-6) == pytest.approx(0.5)

    def test_samples_in_unit_interval(self, rng):
        samples = beta61_from_uniform(rng.random(500))
        assert all(0.0 <= x < 1.0 for x in samples)

    def test_sample_mean_near_analytic(self):
        rng = np.random.default_rng(99)
        samples = beta61_from_uniform(rng.random(20000))
        assert np.mean(samples) == pytest.approx(6 / 7, abs=0.01)


def fixed_targets(positions):
    """A placement order whose targets are ``positions``; it draws nothing."""
    return _placement_order(lambda start, end, count, rng: list(positions))


def full_order(span, num):
    """The full order of a moved span ``(lo, moved)``: the old index of the
    node placed at each index, every node outside the span in its place."""
    lo, moved = span
    return [*range(lo), *moved, *range(lo + len(moved), num)]


class TestPlacementSets:
    @given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**32 - 1), st.data())
    def test_complement_partition(self, num_inputs, num_nodes, seed, data):
        params = GraphParams(num_inputs, 1, num_nodes, "boolean")
        g = random_genome(params, np.random.default_rng(seed))
        active = decode_active(g)
        start, end = params.comp_start, params.comp_end
        targets = sorted(
            data.draw(
                st.lists(
                    st.integers(start, end),
                    min_size=active.count,
                    max_size=active.count,
                    unique=True,
                )
            )
        )
        span = fixed_targets(targets)(g, None, active)
        to = [position - start for position in targets]
        if to == active.positions():
            assert span is None
            return
        order = full_order(span, num_nodes)
        assert sorted(order) == list(range(num_nodes))
        # active nodes at their targets, in their order; inactive nodes in
        # the free slots, in their old order
        assert [order[idx] for idx in to] == active.positions()
        free = [idx for idx in range(num_nodes) if idx not in to]
        assert [order[idx] for idx in free] == [
            idx for idx, bit in enumerate(active.bitmap) if not bit
        ]

    @pytest.mark.parametrize("targets", [[6], [3, 3], [4, 3]])
    def test_rejects_invalid_targets_before_any_draw_or_change(self, targets):
        # computational range [2, 5]; the node at 3 reads the node at 2, so
        # an output on 3 makes two nodes active and an output on 2 one
        params = GraphParams(2, 1, 4, "boolean")
        nodes = [NodeGene(0, (0, 1)), NodeGene(0, (0, 2)), NodeGene(0, (1, 1)), NodeGene(0, (0, 1))]
        g = Genotype(params, nodes, (1 + len(targets),))
        assert decode_active(g).count == len(targets)
        before = Genotype(params, list(nodes), g.output_connections)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvariantViolation):
            _reorder(g, rng, None, fixed_targets(targets))
        assert g == before
        assert rng.bit_generator.state == state


BOOLEAN_PRESERVATION_SHAPES = [(3, 1, 24), (4, 16, 24), (6, 6, 32)]
REGRESSION_PRESERVATION_SHAPES = [(1, 1, 24), (2, 1, 24)]


class TestPhenotypePreservation:
    @pytest.mark.parametrize("operator", ALL_OPERATORS)
    @pytest.mark.parametrize("shape", BOOLEAN_PRESERVATION_SHAPES)
    def test_boolean_outputs_identical_on_all_rows(self, operator, shape):
        num_in, num_out, nodes = shape
        params = GraphParams(num_in, num_out, nodes, "boolean")
        masks, full = packed_inputs(num_in)
        rng = np.random.default_rng(21)
        for seed in range(30):
            g = random_genome(params, np.random.default_rng(seed))
            before = evaluate_packed(g, masks, full, decode_active(g))
            h = operator(g, rng)
            assert validate(h) == []
            assert evaluate_packed(h, masks, full, decode_active(h)) == before

    @pytest.mark.parametrize("operator", ALL_OPERATORS)
    @pytest.mark.parametrize("shape", REGRESSION_PRESERVATION_SHAPES)
    def test_regression_outputs_bit_identical(self, operator, shape):
        num_in, num_out, nodes = shape
        params = GraphParams(num_in, num_out, nodes, "regression")
        xs = np.linspace(-5, 5, 40).reshape(-1, num_in) if num_in == 1 else (
            np.stack(np.meshgrid(np.linspace(-5, 5, 7), np.linspace(-5, 5, 7)), -1).reshape(-1, 2)
        )
        rng = np.random.default_rng(22)
        for seed in range(30):
            g = random_genome(params, np.random.default_rng(seed + 100))
            before = evaluate_batch(g, xs, decode_active(g))
            h = operator(g, rng)
            assert validate(h) == []
            after = evaluate_batch(h, xs, decode_active(h))
            assert np.array_equal(before, after)

    @pytest.mark.parametrize("operator", ALL_OPERATORS)
    def test_active_count_preserved(self, operator):
        params = GraphParams(3, 2, 40, "boolean")
        rng = np.random.default_rng(5)
        for seed in range(30):
            g = random_genome(params, np.random.default_rng(seed))
            assert decode_active(operator(g, rng)).count == decode_active(g).count


class TestActiveOrderPreservation:
    @pytest.mark.parametrize("operator", PLACEMENT_OPERATORS)
    def test_active_function_sequence_unchanged(self, operator):
        params = GraphParams(3, 1, 30, "boolean")
        rng = np.random.default_rng(8)
        for seed in range(30):
            g = random_genome(params, np.random.default_rng(seed))
            before = [g.computational[i].function_id for i in decode_active(g).positions()]
            h = operator(g, rng)
            after = [h.computational[i].function_id for i in decode_active(h).positions()]
            assert after == before


class TestPlacementPositions:
    def test_equidistant_positions_match_lin_space(self):
        params = GraphParams(3, 1, 25, "boolean")
        rng = np.random.default_rng(4)
        for seed in range(25):
            g = random_genome(params, np.random.default_rng(seed))
            n = decode_active(g).count
            if n == 0:
                continue
            h = reorder_equidistant(g, rng)
            new_positions = [params.comp_start + i for i in decode_active(h).positions()]
            assert new_positions == lin_space(params.comp_start, params.comp_end, n)

    def test_negbias_positions_fill_the_tail(self):
        params = GraphParams(3, 1, 25, "boolean")
        rng = np.random.default_rng(4)
        for seed in range(25):
            g = random_genome(params, np.random.default_rng(seed))
            n = decode_active(g).count
            if n == 0:
                continue
            h = reorder_negbias(g, rng)
            new_positions = [params.comp_start + i for i in decode_active(h).positions()]
            assert new_positions == list(range(params.comp_end - n + 1, params.comp_end + 1))

    def test_single_active_node_moves_to_last_position(self):
        # one active node sits directly before the outputs afterwards
        params = GraphParams(2, 1, 9, "boolean")
        nodes = [NodeGene(0, (0, 1)) for _ in range(9)]
        g = Genotype(params, nodes, (params.comp_start,))
        h = reorder_equidistant(g, np.random.default_rng(0))
        assert decode_active(h).positions() == [8]

    def test_fig1_style_placement(self):
        # three nodes, two active: actives land at positions 3 and 4
        g = fig1_genome()
        h = reorder_equidistant(g, np.random.default_rng(0))
        assert [g.params.comp_start + i for i in decode_active(h).positions()] == [3, 4]
        assert h.computational[0].function_id == 3  # the divider fills position 2


class TestIdentityCases:
    @pytest.mark.parametrize("operator", PLACEMENT_OPERATORS)
    def test_all_nodes_active_is_fixpoint(self, operator):
        g = chain_genome(12)
        active = decode_active(g)
        assert active.count == 12
        evaluate_packed(g, *packed_inputs(2), active)
        h = operator(g, np.random.default_rng(3), active)
        assert h == g
        # a new genome that carries the same set and vector
        assert h is not g
        assert h.active is active
        assert h.values is g.values

    @pytest.mark.parametrize("operator", ALL_OPERATORS)
    def test_no_active_nodes_is_identity(self, operator):
        params = GraphParams(2, 1, 8, "boolean")
        g = Genotype(params, [NodeGene(0, (0, 1)) for _ in range(8)], (0,))
        assert decode_active(g).count == 0
        assert operator(g, np.random.default_rng(0)) == g


class TestIdentityPlacement:
    """A placement whose targets are the active nodes' own positions moves
    nothing: it returns a new genome equal to its input, with the input's
    active set and vector, draws no more than its targets and repairs
    nothing.  Equidistant and negbias targets depend on the active count
    alone, so their second application is such a placement."""

    @given(
        num_inputs=st.integers(1, 6),
        num_outputs=st.integers(1, 4),
        num_nodes=st.integers(1, 40),
        function_set=st.sampled_from(["boolean", "regression"]),
        seed=st.integers(0, 2**32 - 1),
        operator=st.sampled_from([reorder_equidistant, reorder_negbias]),
    )
    def test_second_placement_moves_nothing(
        self, num_inputs, num_outputs, num_nodes, function_set, seed, operator
    ):
        import cgp_reorder.reorder as reorder_mod

        params = GraphParams(num_inputs, num_outputs, num_nodes, function_set)
        rng = np.random.default_rng(seed)
        draws = DrawFeed(rng)
        g = random_genome(params, draws)
        active = decode_active(g)
        assume(active.count)
        if function_set == "boolean":
            evaluate_packed(g, *packed_inputs(num_inputs), active)
        else:
            evaluate_batch(g, hard_points(num_inputs, np.random.default_rng(0)), active)
        placed = operator(g, draws, active)
        draws.flush()
        state = rng.bit_generator.state
        repairs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                reorder_mod, "repair_forward_connections", lambda *args: repairs.append(args)
            )
            again = operator(placed, draws, placed.active)
        draws.flush()
        assert again is not placed
        assert again == placed
        assert again.active is placed.active
        assert again.values is placed.values
        assert rng.bit_generator.state == state
        assert repairs == []


@st.composite
def literal_genomes(draw):
    """Genomes of either function set whose nodes read any earlier
    positions, one earlier node through both genes, or inputs only."""
    function_set = draw(st.sampled_from(["boolean", "regression"]))
    num_inputs = draw(st.integers(1, 4))
    num_outputs, num_nodes = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    params = GraphParams(num_inputs, num_outputs, num_nodes, function_set)
    nodes = []
    for position in range(num_inputs, num_inputs + params.num_computational):
        reads = draw(st.sampled_from(["any", "twice", "inputs"]))
        if reads == "twice":
            genes = (draw(st.integers(0, position - 1)),) * 2
        else:
            top = num_inputs - 1 if reads == "inputs" else position - 1
            genes = (draw(st.integers(0, top)), draw(st.integers(0, top)))
        nodes.append(NodeGene(draw(st.integers(0, params.functions().size - 1)), genes))
    outputs = st.integers(0, params.num_connectable - 1)
    return Genotype(params, nodes, tuple(draw(outputs) for _ in range(params.num_outputs)))


def evaluated(genome):
    """Evaluate ``genome`` in full, so that it holds its vector, and return
    its active set."""
    active = decode_active(genome)
    if genome.params.function_set == "boolean":
        evaluate_packed(genome, *packed_inputs(genome.params.num_inputs), active)
    else:
        xs = hard_points(genome.params.num_inputs, np.random.default_rng(0))
        evaluate_batch(genome, xs, active)
    return active


def forward_rows(genome):
    start = genome.params.comp_start
    return [
        idx for idx, node in enumerate(genome.computational)
        if max(node.connections) >= start + idx
    ]


class TestRemap:
    @given(genome=literal_genomes(), data=st.data())
    def test_shares_everything_below_the_first_moved_index(self, genome, data):
        params = genome.params
        start, num = params.comp_start, params.num_computational
        assume(num >= 2)
        active = evaluated(genome)
        lo = data.draw(st.integers(0, num - 2))
        tail = data.draw(st.permutations(range(lo, num)))
        assume(tail[0] != lo)
        order = [*range(lo), *tail]
        h, rows = _remap(genome, active, lo, list(tail))
        for idx in range(lo):
            assert h.computational[idx] is genome.computational[idx]
        for position in range(start + lo):
            assert h.values[position] is genome.values[position]
        position_map = list(range(start + num))
        for new, old in enumerate(order):
            position_map[start + old] = start + new
        for new, old in enumerate(order):
            node = genome.computational[old]
            genes = tuple(position_map[c] for c in node.connections)
            assert h.computational[new] == NodeGene(node.function_id, genes)
            # a node that keeps its position and its genes is shared
            kept = new == old and genes == node.connections
            assert (h.computational[new] is node) == kept
            assert h.values[start + new] is genome.values[start + old]
        assert h.output_connections == tuple(position_map[c] for c in genome.output_connections)
        assert rows == forward_rows(h)
        # every reader moved with the node it reads, and with its reader
        moved = [sorted(position_map[start + r] - start if r < num else r for r in entry)
                 for entry in active.readers]
        assert [sorted(entry) for entry in h.active.readers] == [
            moved[old] for old in order
        ]

    @settings(max_examples=300)
    @given(
        genome=literal_genomes(),
        kind=st.sampled_from(["identity", "swap", "shuffle"]),
        data=st.data(),
    )
    def test_shares_everything_outside_the_moved_span(self, genome, kind, data):
        params = genome.params
        start, num = params.comp_start, params.num_computational
        active = evaluated(genome)
        lo = data.draw(st.integers(0, num - 1))
        hi = data.draw(st.integers(lo, num - 1))
        if kind == "identity":
            span = list(range(lo, hi + 1))
        elif kind == "swap":
            span = [hi, *range(lo + 1, hi), lo] if hi > lo else [lo]
        else:
            span = data.draw(st.permutations(range(lo, hi + 1)))
        order = [*range(lo), *span, *range(hi + 1, num)]
        h, rows = _remap(genome, active, lo, list(span))
        moved = {start + old for new, old in enumerate(order) if new != old}
        # an entry above the span lists readers above it alone: it is shared
        for idx in range(hi + 1, num):
            assert h.active.readers[idx] is active.readers[idx]
        for idx in range(hi + 1, num):
            node = genome.computational[idx]
            # shared unless one of its genes reads a moved position
            assert (h.computational[idx] is node) == moved.isdisjoint(node.connections)
        for position in [*range(start + lo), *range(start + hi + 1, start + num)]:
            assert h.values[position] is genome.values[position]
        assert rows == forward_rows(h)
        position_map = list(range(start + num))
        for new, old in enumerate(order):
            position_map[start + old] = start + new
        assert h.output_connections == tuple(position_map[c] for c in genome.output_connections)
        moved_readers = [sorted(position_map[start + r] - start if r < num else r for r in entry)
                         for entry in active.readers]
        assert [sorted(entry) for entry in h.active.readers] == [
            moved_readers[old] for old in order
        ]
        assert h.active.positions() == [idx for idx, entry in enumerate(h.active.readers) if entry]

    def test_a_reader_above_the_span_is_listed_where_it_reads_below_it(self):
        """Node 4 reads node 3, above the span [1, 2], and node 0, below it:
        it stays node 0's reader although neither of its reads moves."""
        params = GraphParams(2, 1, 6, "boolean")
        genes = [(0, 1), (0, 1), (2, 0), (0, 1), (5, 2), (6, 6)]
        genome = Genotype(params, [NodeGene(0, pair) for pair in genes], (7,))
        h, _ = _remap(genome, decode_active(genome), 1, [2, 1])
        assert h.active.readers[0] == (4,)
        assert h.active.readers == decode_active(h).readers


def tail_with_gaps():
    """Active nodes 1, 3, 6 and 7 of 8: the last two are in their tail
    places already, and inactive nodes lie between the first three."""
    params = GraphParams(2, 1, 8, "boolean")
    genes = [(0, 1), (0, 1), (0, 1), (0, 1), (1, 0), (0, 1), (3, 0), (8, 5)]
    return Genotype(params, [NodeGene(0, pair) for pair in genes], (9,))


def one_active_node():
    """One active node, at index 2 of 5."""
    params = GraphParams(2, 1, 5, "boolean")
    return Genotype(params, [NodeGene(0, (0, 1))] * 5, (4,))


def full_range_placement_order(active, to, num):
    """The placement order built over the whole genome: each active node at
    its target, and the inactive nodes in the free slots in their old order."""
    order = [-1] * num
    for idx, old in zip(to, active.positions()):
        order[idx] = old
    inactive = iter([idx for idx, readers in enumerate(active.readers) if not readers])
    return [old if old >= 0 else next(inactive) for old in order]


class TestPlacementOrder:
    @given(
        genome=literal_genomes(),
        kind=st.sampled_from(["random", "equidistant", "tail"]),
        data=st.data(),
    )
    def test_matches_the_full_range_construction(self, genome, kind, data):
        params = genome.params
        start, end = params.comp_start, params.comp_end
        active = decode_active(genome)
        count = active.count
        assume(count)
        if kind == "random":
            slots = st.integers(start, end)
            targets = sorted(data.draw(st.lists(slots, min_size=count, max_size=count, unique=True)))
        elif kind == "equidistant":
            targets = lin_space(start, end, count)
        else:
            targets = list(range(end - count + 1, end + 1))
        span = fixed_targets(targets)(genome, None, active)
        to = [position - start for position in targets]
        if to == active.positions():
            assert span is None
            return
        lo, moved = span
        order = full_order(span, params.num_computational)
        assert order == full_range_placement_order(active, to, params.num_computational)
        # the span starts and ends on a node that moves
        assert moved[0] != lo and moved[-1] != lo + len(moved) - 1
        assert all(type(old) is int for old in [lo, *moved])

    @given(genome=literal_genomes(), seed=st.integers(0, 2**32 - 1))
    @example(genome=tail_with_gaps(), seed=0)
    @example(genome=one_active_node(), seed=0)
    @example(genome=chain_genome(6), seed=0)
    def test_negbias_on_a_tail_builds_no_targets(self, genome, seed):
        """`reorder_negbias`'s span, listed from the active set, is the tail
        placement's.  When the active nodes form the tail already, it shares
        the source's set and vector, draws nothing and never remaps."""
        import cgp_reorder.reorder as reorder_mod

        active = evaluated(genome)
        assume(active.count)
        end, count = genome.params.comp_end, active.count
        tail_placement = fixed_targets(range(end - count + 1, end + 1))
        assert reorder_mod._negbias_order(genome, None, active) == tail_placement(
            genome, None, active
        )
        placed = reorder_negbias(genome, np.random.default_rng(seed), active)

        def unreachable(*args):
            raise AssertionError("a tail remapped")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reorder_mod, "_remap", unreachable)
            # any draw from a bare object raises
            again = reorder_negbias(placed, object(), placed.active)
        assert again is not placed
        assert again == placed
        assert again.active is placed.active
        assert again.values is placed.values


class TestOriginalReorder:
    @given(genome=literal_genomes(), seed=st.integers(0, 2**32 - 1), feed=st.booleans())
    def test_matches_the_array_reference(self, genome, seed, feed):
        active = evaluated(genome)
        reference_rng = np.random.default_rng(seed)
        expected = reference_original(genome, reference_rng)
        rng = np.random.default_rng(seed)
        draws = DrawFeed(rng) if feed else rng
        h = reorder_original(genome, draws, active)
        if feed:
            draws.flush()
        assert h.computational == expected.computational
        assert h.output_connections == expected.output_connections
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        if active.count:
            assert_readers_match(h.active, expected)
            again = Genotype(h.params, h.computational, h.output_connections)
            evaluated(again)
            value = lambda v: v.tobytes() if isinstance(v, np.ndarray) else v
            assert list(map(value, h.values)) == list(map(value, again.values))

    def test_chain_order_unchanged(self):
        g = chain_genome(10)
        h = reorder_original(g, np.random.default_rng(0))
        assert h == g

    def test_all_input_dependent_nodes_permute_uniformly(self):
        # every node reads inputs only, so any order is a valid shuffle;
        # with three nodes all six permutations should show up
        params = GraphParams(2, 1, 3, "boolean")
        base = [NodeGene(0, (0, 1)), NodeGene(1, (0, 1)), NodeGene(2, (0, 1))]
        g = Genotype(params, base, (2,))
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(300):
            h = reorder_original(g, rng)
            seen.add(tuple(n.function_id for n in h.computational))
        assert len(seen) == 6

    def test_dependency_order_respected(self):
        # the subtractor feeds the adder, so it must stay in front of it
        g = fig1_genome()
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = reorder_original(g, rng)
            order = [n.function_id for n in h.computational]
            assert order.index(1) < order.index(0)  # SUB before ADD
            assert validate(h) == []


class TestRepair:
    def test_clean_genome_zero_repairs(self):
        g = fig1_genome()
        before = Genotype(g.params, list(g.computational), g.output_connections)
        assert repair_forward_connections(g, np.random.default_rng(0)) == 0
        assert g == before

    def test_forward_inactive_gene_repaired(self):
        # inactive node at position 3 points at position 5
        params = GraphParams(2, 1, 4, "boolean")
        nodes = [
            NodeGene(0, (0, 1)),
            NodeGene(0, (5, 0)),  # position 3, forward reference
            NodeGene(0, (0, 1)),
            NodeGene(0, (2, 2)),
        ]
        g = Genotype(params, nodes, (5,))
        count = repair_forward_connections(g, np.random.default_rng(0))
        assert count == 1
        assert g.computational[1].connections[0] in (0, 1, 2)
        assert validate(g) == []

    def test_forward_consumed_gene_on_active_node_raises(self):
        params = GraphParams(2, 1, 4, "boolean")
        nodes = [
            NodeGene(0, (0, 1)),
            NodeGene(0, (4, 0)),  # active, consumed forward gene
            NodeGene(0, (0, 1)),
            NodeGene(0, (0, 1)),
        ]
        g = Genotype(params, nodes, (3,))
        with pytest.raises(InvariantViolation):
            repair_forward_connections(g, np.random.default_rng(0))

    def test_forward_excess_gene_on_active_unary_node_repaired(self):
        # a sine node consumes one gene; its ignored second gene may point
        # forward and gets silently rewired
        params = GraphParams(1, 1, 3, "regression")
        nodes = [
            NodeGene(0, (0, 0)),
            NodeGene(4, (0, 3)),  # SIN at position 2, excess gene forward
            NodeGene(0, (0, 0)),
        ]
        g = Genotype(params, nodes, (2,))
        assert repair_forward_connections(g, np.random.default_rng(0)) == 1
        assert validate(g) == []

    @given(
        st.sampled_from([(3, 1, "boolean"), (2, 1, "regression")]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_matches_one_draw_per_gene(self, shape, seed, feed):
        # point random genes of inactive nodes, and unused genes of unary
        # nodes, forward; repair must redraw them exactly as a loop drawing
        # one gene at a time in node-then-gene order does, whether it draws
        # from the generator or from a feed over it
        num_in, num_out, fset = shape
        params = GraphParams(num_in, num_out, 30, fset)
        rng = np.random.default_rng(seed)
        g = with_forward_genes(random_genome(params, rng), rng)
        active = decode_active(g)
        expected = Genotype(params, list(g.computational), g.output_connections)
        loop_rng = np.random.default_rng(seed + 1)
        redrawn = 0
        for idx, node in enumerate(expected.computational):
            position = params.comp_start + idx
            conns = tuple(
                int(loop_rng.integers(position)) if c >= position else c
                for c in node.connections
            )
            redrawn += sum(c >= position for c in node.connections)
            expected.computational[idx] = NodeGene(node.function_id, conns)
        repair_rng = np.random.default_rng(seed + 1)
        draws = DrawFeed(repair_rng) if feed else repair_rng
        assert repair_forward_connections(g, draws, active) == redrawn
        if feed:
            draws.flush()
        assert g == expected
        assert repair_rng.bit_generator.state == loop_rng.bit_generator.state

    @given(
        st.sampled_from([(3, 1, "boolean"), (2, 1, "regression")]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_given_rows_match_the_full_scan(self, shape, seed, feed):
        # handed the rows that hold a forward gene, repair redraws the same
        # genes from the same draws as when it scans every node itself
        num_in, num_out, fset = shape
        params = GraphParams(num_in, num_out, 30, fset)
        rng = np.random.default_rng(seed)
        g = with_forward_genes(random_genome(params, rng), rng)
        active = decode_active(g)
        scanned = Genotype(params, list(g.computational), g.output_connections)
        scan_rng = np.random.default_rng(seed + 1)
        count = repair_forward_connections(scanned, scan_rng)
        given_rng = np.random.default_rng(seed + 1)
        draws = DrawFeed(given_rng) if feed else given_rng
        assert repair_forward_connections(g, draws, active, forward_rows(g)) == count
        if feed:
            draws.flush()
        assert g == scanned
        assert validate(g) == []
        assert given_rng.bit_generator.state == scan_rng.bit_generator.state

    def test_raises_before_any_draw_or_change(self):
        # node 3 holds a repairable forward gene; node 4, active, consumes
        # one: repair raises with the genome and the generator untouched
        params = GraphParams(2, 1, 4, "boolean")
        nodes = [
            NodeGene(0, (0, 1)),
            NodeGene(0, (5, 0)),  # position 3, inactive, forward
            NodeGene(0, (5, 0)),  # position 4, active, consumed forward gene
            NodeGene(0, (0, 1)),
        ]
        g = Genotype(params, nodes, (4,))
        before = Genotype(params, list(nodes), g.output_connections)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for rows in (None, [1, 2]):
            with pytest.raises(InvariantViolation):
                repair_forward_connections(g, rng, None, rows)
            assert g == before
            assert rng.bit_generator.state == state

    def test_negbias_typically_triggers_repairs_on_multiply_shape(self, monkeypatch):
        import cgp_reorder.reorder as reorder_mod

        counts = []
        original = reorder_mod.repair_forward_connections

        def counting(genome, rng, active=None, rows=None):
            repaired = original(genome, rng, active, rows)
            counts.append(repaired)
            return repaired

        monkeypatch.setattr(reorder_mod, "repair_forward_connections", counting)
        params = GraphParams(6, 6, 1000, "boolean")
        rng = np.random.default_rng(2)
        for seed in range(10):
            g = random_genome(params, np.random.default_rng(seed))
            reorder_negbias(g, rng)
        assert sum(1 for c in counts if c > 0) >= 8


def sequential_distinct_positions(sorted_values, start, end):
    """The two sweeps of `_distinct_positions`, one sample at a time."""
    positions = []
    prev = start - 1
    for value in sorted_values:
        prev = max(math.floor(value), prev + 1)
        positions.append(prev)
    limit = end
    for i in range(len(positions) - 1, -1, -1):
        positions[i] = min(positions[i], limit)
        limit = positions[i] - 1
    return positions


class TestDistinctPositions:
    @given(st.integers(1, 20), st.integers(0, 40), st.data())
    def test_matches_sequential_sweeps(self, start, span, data):
        end = start + span
        count = data.draw(st.integers(1, span + 1))
        # samples as the operators draw them, over a width of span + 1,
        # so collisions and overflow past the end both occur
        samples = sorted(
            data.draw(
                st.lists(
                    st.floats(start, end + 1, exclude_max=True),
                    min_size=count,
                    max_size=count,
                )
            )
        )
        result = _distinct_positions(np.array(samples), start, end)
        assert result.tolist() == sequential_distinct_positions(samples, start, end)
        assert len(set(result.tolist())) == count
        assert start <= result[0] and result[-1] <= end


class TestUniformPositionDistribution:
    def test_single_active_position_uniform_chi_squared(self):
        # 10,000 reorders of a genome with one active node over 100 slots;
        # chi-squared critical value for df=99 at alpha=0.01 is 134.6416
        params = GraphParams(2, 1, 100, "boolean")
        nodes = [NodeGene(0, (0, 1)) for _ in range(100)]
        g = Genotype(params, nodes, (params.comp_start + 50,))
        rng = np.random.default_rng(42)
        counts = np.zeros(100)
        for _ in range(10000):
            h = reorder_uniform(g, rng)
            counts[decode_active(h).positions()[0]] += 1
        expected = 10000 / 100
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 134.6416


class TestMaybeReorder:
    def test_probability_zero_is_identity(self):
        g = fig1_genome()
        rng = np.random.default_rng(0)
        for kind in ("negbias", "leftskew"):
            assert maybe_reorder(g, kind, 0.0, rng) is g

    def test_probability_one_always_reorders(self):
        params = GraphParams(3, 1, 30, "boolean")
        g = random_genome(params, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        h = maybe_reorder(g, "equidistant", 1.0, rng)
        n = decode_active(g).count
        positions = [params.comp_start + i for i in decode_active(h).positions()]
        assert positions == lin_space(params.comp_start, params.comp_end, n)

    def test_kind_none_returns_same_genome(self):
        g = fig1_genome()
        assert maybe_reorder(g, "none", 1.0, np.random.default_rng(0)) is g

    def test_gate_rate_matches_probability(self):
        params = GraphParams(3, 1, 10, "boolean")
        g = random_genome(params, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        applied = sum(
            1 for _ in range(2000) if maybe_reorder(g, "negbias", 0.3, rng) is not g
        )
        assert applied == pytest.approx(600, abs=80)
