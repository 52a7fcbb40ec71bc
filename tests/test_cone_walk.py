"""Mutants evaluated from their parents' vectors against the oracles.

A mutant whose active set was derived from its parent's is evaluated from
the parent's evaluation vector: only its changed and newly activated active
nodes, and the nodes that read a changed value, are computed again
(`genome._walk`).  Over chains of mutations, targeted edits and reorders,
and along (1+4)-ES chains, every child's outputs must equal
`conftest.full_forward_pass` (Boolean) or `conftest.oracle_evaluate_batch`
(regression) bit for bit.  Each step continues from the previous step's
child, so a stale vector entry would carry on; a second child of every
parent checks that evaluating the first left the parent's vector as it was.
The walk visits only the readers of changed values, from the child's
active set, which along the ES chains must hold the oracle's readers.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cgp_reorder.genome as genome_module
from cgp_reorder.benchmarks import DataSplit, RegressionBenchmark, build_boolean
from cgp_reorder.cli import Settings
from cgp_reorder.evolution import run_es, select_parent
from cgp_reorder.functions import BOOLEAN_SET, REGRESSION_SET
from cgp_reorder.genome import (
    Genotype,
    GraphParams,
    NodeGene,
    decode_active,
    evaluate_batch,
    evaluate_packed,
    random_genome,
)
from cgp_reorder.mutation import single_mutation
from cgp_reorder.reorder import (
    reorder_equidistant,
    reorder_leftskew,
    reorder_negbias,
    reorder_original,
    reorder_uniform,
)

from conftest import (
    assert_readers_match,
    chain_genome,
    edited,
    fig1_genome,
    full_forward_pass,
    hard_points,
    oracle_evaluate_batch,
    packed_inputs,
)

REORDERS = {
    "original": reorder_original,
    "equidistant": reorder_equidistant,
    "uniform": reorder_uniform,
    "negbias": reorder_negbias,
    "leftskew": reorder_leftskew,
}
EDITS = ("mutate", "pull", "cut", "unused", "output", "swap", "revive")
COMMUTATIVE = ("AND", "OR", "NAND", "NOR", "ADD", "MUL")

SHAPES = [
    GraphParams(3, 1, 12, "boolean"),
    GraphParams(6, 6, 30, "boolean"),
    GraphParams(1, 1, 12, "regression"),
    GraphParams(2, 1, 25, "regression"),
]


class Problem:
    """Evaluates genomes of one shape, and the oracle's outputs for them."""

    def __init__(self, params: GraphParams, rng: np.random.Generator) -> None:
        self.boolean = params.functions().is_boolean
        if self.boolean:
            self.masks, self.full = packed_inputs(params.num_inputs)
        else:
            self.xs = hard_points(params.num_inputs, rng)

    def evaluate(self, genome, active, parent=None):
        if self.boolean:
            return evaluate_packed(genome, self.masks, self.full, active, parent)
        return evaluate_batch(genome, self.xs, active, parent)

    def from_vector(self, genome):
        """The outputs a genome's carried vector holds."""
        values = [genome.values[c] for c in genome.output_connections]
        if self.boolean:
            return values
        return np.column_stack(values)

    def assert_oracle(self, genome, outputs) -> None:
        if self.boolean:
            assert outputs == full_forward_pass(genome, self.masks, self.full)
        else:
            assert_matches_oracle(genome, self.xs, outputs)


def apply_edit(kind, parent, active, grandparent_active, rng):
    params = parent.params
    arities = params.functions().arities
    start = params.comp_start
    nodes = parent.computational
    used = active.positions()
    if kind == "mutate":
        return single_mutation(parent, active, rng)
    if kind == "output":
        k = int(rng.integers(params.num_outputs))
        return edited(parent, outputs={k: int(rng.integers(params.num_connectable))})
    if kind == "cut":
        # rewire an output or an active node's first gene to an input, which
        # releases whatever only that gene kept active
        if not used or rng.random() < 0.3:
            k = int(rng.integers(params.num_outputs))
            return edited(parent, outputs={k: int(rng.integers(start))})
        idx = used[int(rng.integers(len(used)))]
        conns = (int(rng.integers(start)),) + nodes[idx].connections[1:]
        return edited(parent, nodes={idx: NodeGene(nodes[idx].function_id, conns)})
    if kind == "swap" and used:
        # the same genes in a new record, or a commutative node's genes
        # swapped: the node is computed again and its value does not change
        idx = used[int(rng.integers(len(used)))]
        node = nodes[idx]
        conns = node.connections
        if params.functions().entries[node.function_id].name in COMMUTATIVE:
            conns = (conns[1], conns[0]) + conns[2:]
        return edited(parent, nodes={idx: NodeGene(node.function_id, conns)})
    if kind == "unused":
        # make an active node unary where the set has unary functions, and
        # rewire its unused second gene
        idx = used[int(rng.integers(len(used)))] if used else 0
        node = nodes[idx]
        unary = [f for f, a in enumerate(arities) if a == 1]
        fid = unary[int(rng.integers(len(unary)))] if unary else node.function_id
        conns = (node.connections[0], int(rng.integers(start + idx)))
        return edited(parent, nodes={idx: NodeGene(fid, conns)})
    # pull, revive (and swap without an active node): point an active
    # node's consumed gene, or an output, at an inactive node, which pulls
    # in that node and whatever inactive chain it reads.  A revive picks a
    # node the grandparent had active and the parent has not.
    candidates = [i for i in range(params.num_computational) if not active.bitmap[i]]
    if kind == "revive" and grandparent_active is not None:
        revived = [i for i in candidates if grandparent_active.bitmap[i]]
        candidates = revived or candidates
    if not candidates:
        return single_mutation(parent, active, rng)
    source = candidates[int(rng.integers(len(candidates)))]
    consumers = [i for i in used if i > source]
    if not consumers or rng.random() < 0.3:
        k = int(rng.integers(params.num_outputs))
        return edited(parent, outputs={k: start + source})
    idx = consumers[int(rng.integers(len(consumers)))]
    node = nodes[idx]
    gene = int(rng.integers(arities[node.function_id]))
    conns = list(node.connections)
    conns[gene] = start + source
    return edited(parent, nodes={idx: NodeGene(node.function_id, tuple(conns))})


def assert_inactive_hold_none(genome, active) -> None:
    """Only inputs and active nodes hold a value in the genome's vector."""
    start = genome.params.comp_start
    values = genome.values[start:]
    stale = [i for i, r in enumerate(active.readers) if not r and values[i] is not None]
    assert stale == []


def check_child(problem, parent, active, child):
    child_active = decode_active(child, parent, active)
    outputs = problem.evaluate(child, child_active, parent)
    problem.assert_oracle(child, outputs)
    assert_inactive_hold_none(child, child_active)
    return child_active


@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(EDITS + tuple(REORDERS)), min_size=1, max_size=30),
)
def test_chains_of_children_match_the_oracle(shape, seed, steps):
    rng = np.random.default_rng(seed)
    problem = Problem(shape, rng)
    genome = random_genome(shape, rng)
    active = decode_active(genome)
    problem.assert_oracle(genome, problem.evaluate(genome, active))
    grandparent_active = None
    for step in steps:
        if step in REORDERS:
            reordered = REORDERS[step](genome, rng, active)
            if reordered is genome:
                continue
            # the carried vector, permuted with the nodes, is read unchanged
            problem.assert_oracle(reordered, problem.from_vector(reordered))
            genome, active, grandparent_active = reordered, reordered.active, None
            continue
        child = apply_edit(step, genome, active, grandparent_active, rng)
        child_active = check_child(problem, genome, active, child)
        # a sibling from the same parent, after the first child's walk
        check_child(problem, genome, active, single_mutation(genome, active, rng))
        genome, active, grandparent_active = child, child_active, active


def test_value_cut_off_and_consumer_spread(monkeypatch):
    # a chain of ANDs reading their predecessor twice: AND(x, x) = x, so a
    # node switched to OR keeps its value and nothing above it is computed
    # again, while a node switched to NAND flips every value above it
    calls = []

    def count(fn):
        def counted(*args):
            calls.append(fn)
            return fn(*args)

        return counted

    counting = tuple(map(count, BOOLEAN_SET.functions))
    monkeypatch.setitem(BOOLEAN_SET.__dict__, "functions", counting)
    masks, full = packed_inputs(2)
    genome = chain_genome(10)
    active = decode_active(genome)
    evaluate_packed(genome, masks, full, active)
    for fid, computed in ((1, 1), (2, 6)):
        calls.clear()
        child = edited(genome, nodes={4: NodeGene(fid, genome.computational[4].connections)})
        child_active = decode_active(child, genome, active)
        outputs = evaluate_packed(child, masks, full, child_active, genome)
        assert len(calls) == computed
        assert outputs == full_forward_pass(child, masks, full)


class CountingNodes(list):
    """A node list that counts the records read from it by index."""

    reads = 0

    def __getitem__(self, idx):
        self.reads += 1
        return super().__getitem__(idx)


def test_walk_visits_the_changed_cone_alone(monkeypatch):
    # a long chain feeds one output, and a side node at the top reads the
    # bottom node, which a child switches from AND to OR: the walk computes
    # and visits the bottom node and the side node, not the chain between
    calls = []

    def count(fn):
        def counted(*args):
            calls.append(fn)
            return fn(*args)

        return counted

    counting = tuple(map(count, BOOLEAN_SET.functions))
    monkeypatch.setitem(BOOLEAN_SET.__dict__, "functions", counting)
    length = 40
    params = GraphParams(2, 2, length + 2, "boolean")
    bottom, side = 0, length + 1
    nodes = [NodeGene(0, (0, 1)), NodeGene(0, (0, 1))]
    nodes += [NodeGene(0, (params.comp_start + i - 1, 0)) for i in range(2, side)]
    nodes.append(NodeGene(0, (params.comp_start + bottom, 1)))
    genome = Genotype(params, nodes, (params.comp_end - 1, params.comp_end))
    masks, full = packed_inputs(2)
    active = decode_active(genome)
    assert active.count == length + 2
    evaluate_packed(genome, masks, full, active)
    child = edited(genome, nodes={bottom: NodeGene(1, (0, 1))})
    child_active = decode_active(child, genome, active)
    child.computational = CountingNodes(child.computational)
    calls.clear()
    outputs = evaluate_packed(child, masks, full, child_active, genome)
    assert len(calls) == 2
    assert child.computational.reads == 2
    assert outputs == full_forward_pass(child, masks, full)
    assert outputs != full_forward_pass(genome, masks, full)


AND, OR, NAND, NOR = range(4)


def recorded_pushes(monkeypatch) -> list:
    """Every reader the walk queues from now on, in order."""
    pushed = []

    def push(queue, item):
        pushed.append(item)
        heapq.heappush(queue, item)

    monkeypatch.setattr(genome_module, "heappush", push)
    return pushed


def test_node_read_by_an_output_and_a_node(monkeypatch):
    # X feeds output 0 and Y, which feeds output 1: a child that switches X
    # from AND to NAND changes both outputs, and its walk queues Y from X's
    # entry but neither output entry
    params = GraphParams(2, 2, 3, "boolean")
    nodes = [NodeGene(AND, (0, 1)), NodeGene(OR, (2, 0)), NodeGene(AND, (0, 0))]
    genome = Genotype(params, nodes, (2, 3))
    masks, full = packed_inputs(2)
    active = decode_active(genome)
    # Y, and output 0 as num_computational + 0
    assert sorted(active.readers[0]) == [1, 3]
    evaluate_packed(genome, masks, full, active)
    pushed = recorded_pushes(monkeypatch)
    child = edited(genome, nodes={0: NodeGene(NAND, (0, 1))})
    child_active = decode_active(child, genome, active)
    outputs = evaluate_packed(child, masks, full, child_active, genome)
    assert outputs == full_forward_pass(child, masks, full)
    before = full_forward_pass(genome, masks, full)
    assert all(new != old for new, old in zip(outputs, before))
    assert pushed == [1]


@pytest.mark.parametrize("was_active", [True, False], ids=["active", "inactive"])
def test_output_moved_onto_a_node_the_same_mutation_changes(monkeypatch, was_active):
    # output 1 moves from an input onto Z while Z switches from OR to NOR:
    # Z is computed anew, as a changed active node that W reads twice or as
    # a node the move activates, and the output's entry in Z's readers is
    # never queued
    params = GraphParams(2, 2, 3, "boolean")
    w_reads = (3, 3) if was_active else (2, 2)
    nodes = [NodeGene(AND, (0, 1)), NodeGene(OR, (2, 0)), NodeGene(AND, w_reads)]
    genome = Genotype(params, nodes, (4, 0))
    masks, full = packed_inputs(2)
    active = decode_active(genome)
    assert active.bitmap[1] == was_active
    evaluate_packed(genome, masks, full, active)
    pushed = recorded_pushes(monkeypatch)
    child = edited(genome, nodes={1: NodeGene(NOR, (2, 0))}, outputs={1: 3})
    child_active = decode_active(child, genome, active)
    # W's two genes when it reads Z, and output 1 as num_computational + 1
    assert sorted(child_active.readers[1]) == ([2, 2, 4] if was_active else [4])
    outputs = evaluate_packed(child, masks, full, child_active, genome)
    assert outputs == full_forward_pass(child, masks, full)
    assert pushed == ([2] if was_active else [])


def test_grandparent_values_are_not_reused():
    # the top node is cut off from the chain below it and pointed back at
    # it a generation later; in between, the chain changed underneath
    genome = chain_genome(6)
    masks, full = packed_inputs(2)
    active = decode_active(genome)
    evaluate_packed(genome, masks, full, active)
    top = genome.computational[5]
    cut = edited(genome, nodes={5: NodeGene(top.function_id, (0, 1))})
    cut_active = decode_active(cut, genome, active)
    evaluate_packed(cut, masks, full, cut_active, genome)
    assert cut_active.count == 1
    flipped = edited(cut, nodes={0: NodeGene(2, (0, 1))})  # NAND, inactive
    flipped_active = decode_active(flipped, cut, cut_active)
    evaluate_packed(flipped, masks, full, flipped_active, cut)
    revived = edited(flipped, nodes={5: top})
    revived_active = decode_active(revived, flipped, flipped_active)
    outputs = evaluate_packed(revived, masks, full, revived_active, flipped)
    assert revived_active.count == 6
    assert outputs == full_forward_pass(revived, masks, full)
    assert outputs != full_forward_pass(genome, masks, full)


def mae(ys: np.ndarray, preds: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs(ys - preds[:, 0])))


def assert_matches_oracle(genome, xs, preds) -> None:
    expected = oracle_evaluate_batch(genome, xs)
    assert preds.shape == expected.shape
    assert preds.tobytes() == expected.tobytes()


@given(
    num_inputs=st.sampled_from([1, 2]),
    nodes=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(["none", *REORDERS]), min_size=1, max_size=12),
)
def test_es_chains_match_the_oracle(num_inputs, nodes, seed, steps):
    # the (1+4)-ES loop on regression: the survivor's vector, carried
    # through reorders, is where every child's walk starts
    rng = np.random.default_rng(seed)
    params = GraphParams(num_inputs, 1, nodes, "regression")
    xs = hard_points(num_inputs, rng)
    ys = rng.uniform(-2.0, 2.0, len(xs))
    parent = random_genome(params, rng)
    parent_active = decode_active(parent)
    preds = evaluate_batch(parent, xs, parent_active)
    assert_matches_oracle(parent, xs, preds)
    parent_fitness = mae(ys, preds)
    for kind in steps:
        if kind != "none":
            reordered = REORDERS[kind](parent, rng, parent_active)
            if reordered is not parent:
                parent, parent_active = reordered, reordered.active
                carried = [parent.values[c] for c in parent.output_connections]
                assert_matches_oracle(parent, xs, np.column_stack(carried))
        children, fitnesses = [], []
        for _ in range(4):
            child = single_mutation(parent, parent_active, rng)
            child_active = decode_active(child, parent, parent_active)
            preds = evaluate_batch(child, xs, child_active, parent)
            assert_matches_oracle(child, xs, preds)
            # the arrays of released nodes are not kept
            assert_inactive_hold_none(child, child_active)
            # the set the child's was derived from
            assert_readers_match(parent_active, parent)
            assert_readers_match(child_active, child)
            children.append((child, child_active))
            fitnesses.append(mae(ys, preds))
        choice = select_parent(parent_fitness, fitnesses, maximize=False)
        if choice is not None:
            parent, parent_active = children[choice]
            parent_fitness = fitnesses[choice]
        # carried by a reorder, or derived from the survivor's parent's
        assert_readers_match(parent_active, parent)


def test_reorders_and_unconsumed_genes_keep_values():
    g = fig1_genome()
    xs = np.array([[0.5, 1.5], [2.0, -3.0], [0.0, 1e-12]])
    before = evaluate_batch(g, xs, decode_active(g))
    for kind, operator in REORDERS.items():
        h = operator(g, np.random.default_rng(0))
        assert evaluate_batch(h, xs, decode_active(h)).tobytes() == before.tobytes(), kind
    # the second gene of a unary node does not reach its value
    g.computational[2] = NodeGene(4, (3, 2))  # SIN of the SUB
    sine = evaluate_batch(g, xs, decode_active(g))
    g.computational[2] = NodeGene(4, (3, 3))
    assert evaluate_batch(g, xs, decode_active(g)).tobytes() == sine.tobytes()


def test_shared_subexpressions_square_the_difference():
    g = fig1_genome()
    g.computational[0] = NodeGene(1, (0, 1))  # a second SUB(x0, x1)
    g.computational[2] = NodeGene(2, (2, 3))  # MUL of the two SUBs
    xs = np.array([[0.5, 1.5], [2.0, -3.0]])
    out = evaluate_batch(g, xs, decode_active(g))
    assert np.array_equal(out[:, 0], (xs[:, 0] - xs[:, 1]) ** 2)


def test_results_are_read_only():
    g = fig1_genome()
    out = evaluate_batch(g, np.array([[1.0, 2.0]]), decode_active(g))
    with pytest.raises(ValueError):
        out[0, 0] = 0.0


def test_unused_gene_edit_of_a_sine_computes_one_node(monkeypatch):
    calls = []

    def count(operation):
        def counted(*args):
            calls.append(operation)
            return operation(*args)

        return counted

    counting = tuple(map(count, REGRESSION_SET.functions))
    monkeypatch.setitem(REGRESSION_SET.__dict__, "functions", counting)
    genome = chain_genome(8, "regression")
    genome.computational[3] = NodeGene(4, (4, 4))  # SIN of node 2
    xs = hard_points(2, np.random.default_rng(0))
    active = decode_active(genome)
    evaluate_batch(genome, xs, active)
    calls.clear()
    child = edited(genome, nodes={3: NodeGene(4, (4, 0))})
    child_active = decode_active(child, genome, active)
    outputs = evaluate_batch(child, xs, child_active, genome)
    assert len(calls) == 1
    assert_matches_oracle(child, xs, outputs)


def test_sign_of_zero_change_reaches_consumers():
    # MUL(x0, x0) is +0.0 and MUL(x0, x1) is -0.0 on every point: equal as
    # numbers, different in their bytes, and the SIN above keeps the sign
    params = GraphParams(2, 1, 2, "regression")
    genome = Genotype(params, [NodeGene(2, (0, 0)), NodeGene(4, (2, 2))], (3,))
    xs = np.array([[0.0, -1.0], [0.0, -2.0]])
    active = decode_active(genome)
    assert not np.signbit(evaluate_batch(genome, xs, active)).any()
    child = edited(genome, nodes={0: NodeGene(2, (0, 1))})
    child_active = decode_active(child, genome, active)
    outputs = evaluate_batch(child, xs, child_active, genome)
    assert np.signbit(outputs).all()
    assert_matches_oracle(child, xs, outputs)


@pytest.mark.parametrize("kind", ["boolean", "regression"])
def test_run_returns_a_genome_without_vector(kind):
    # thresholds no run reaches, so every run goes its 30 iterations; with a
    # reorder every iteration, the regression run's final genome is one the
    # operator built, which carried an active set
    if kind == "boolean":
        bench, threshold = build_boolean("parity3"), 2.0
    else:
        xs = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        bench = RegressionBenchmark("line", 1, DataSplit(xs, xs[:, 0] * 3.0))
        threshold = -1.0
    for variant in ("none", "equidistant"):
        settings = Settings(variant=variant, nodes=12, max_iterations=30, threshold=threshold)
        result = run_es(settings, bench, 0)
        assert result.final_genome is not None
        assert result.final_genome.values is None
        assert result.final_genome.active is None
