"""Mutants evaluated from their parents' vectors against the oracles.

A mutant whose active set was derived from its parent's is evaluated from
the parent's evaluation vector: only its changed and newly activated active
nodes, and the nodes that read a changed value, are computed again
(`genome._walk`).  Over chains of mutations, targeted edits and reorders,
every child's outputs must equal `conftest.full_forward_pass` (Boolean) or
`conftest.oracle_evaluate_batch` (regression) bit for bit.  Each step
continues from the previous step's child, so a stale vector entry would
carry on; a second child of every parent checks that evaluating the first
left the parent's vector as it was.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.functions import BOOLEAN_SET
from cgp_reorder.genome import (
    GraphParams,
    NodeGene,
    SubexpressionCache,
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
    chain_genome,
    edited,
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
    GraphParams(3, 1, 12, 2, "boolean"),
    GraphParams(6, 6, 30, 2, "boolean"),
    GraphParams(1, 1, 12, 2, "regression"),
    GraphParams(2, 1, 25, 2, "regression"),
]


class Problem:
    """Evaluates genomes of one shape, and the oracle's outputs for them."""

    def __init__(self, params: GraphParams, rng: np.random.Generator) -> None:
        self.boolean = params.functions().is_boolean
        if self.boolean:
            self.masks, self.full = packed_inputs(params.num_inputs)
        else:
            self.xs = hard_points(params.num_inputs, rng)
            self.cache = SubexpressionCache(self.xs)

    def evaluate(self, genome, active, parent=None):
        if self.boolean:
            return evaluate_packed(genome, self.masks, self.full, active, parent)
        return evaluate_batch(genome, self.xs, active, self.cache, parent)

    def from_vector(self, genome):
        """The outputs a genome's carried vector holds."""
        values = [genome.values[c] for c in genome.output_connections]
        if self.boolean:
            return values
        return np.column_stack([self.cache._values[k] for k in values])

    def assert_oracle(self, genome, outputs) -> None:
        if self.boolean:
            assert outputs == full_forward_pass(genome, self.masks, self.full)
        else:
            expected = oracle_evaluate_batch(genome, self.xs)
            assert outputs.shape == expected.shape
            assert outputs.tobytes() == expected.tobytes()


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


def check_child(problem, parent, active, child):
    child_active = decode_active(child, parent, active)
    outputs = problem.evaluate(child, child_active, parent)
    problem.assert_oracle(child, outputs)
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
        if not problem.boolean:
            problem.cache.prune(child, child_active)
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
