"""Incremental and carried active sets against an independent oracle.

A mutant's active set is derived from its parent's (`decode_active(child,
parent, parent_active)`), and a reorder carries its source's set over to
the new positions (`Genotype.active`).  Over chains of mutations, targeted
edits and reorders, every set must equal the oracle in `conftest.py` in
bitmap, count, consumer counts and readers, and so must a full decode.
Each step starts from the previous step's derived set, so an error would
carry on.  A derived set also reports the nodes it activated, in the
mutant's `delta.activated`, which the cone walk evaluates anew.  A set's
entries list their readers in no set order, so sets are compared through
their sorted entries.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.genome import ARITY, Genotype, GraphParams, NodeGene, decode_active, random_genome
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
    consumer_counts,
    edited,
    fig1_genome,
    oracle_active,
    sorted_readers,
)

REORDERS = {
    "original": reorder_original,
    "equidistant": reorder_equidistant,
    "uniform": reorder_uniform,
    "negbias": reorder_negbias,
    "leftskew": reorder_leftskew,
}
EDITS = ("mutate", "arity", "output", "cut", "scramble")

SHAPES = [
    GraphParams(3, 1, 12, "boolean"),
    GraphParams(6, 6, 30, "boolean"),
    GraphParams(1, 1, 12, "regression"),
    GraphParams(2, 1, 25, "regression"),
]


def assert_matches_oracle(active, genome) -> None:
    bitmap, count, consumers = oracle_active(genome)
    assert active.bitmap == bitmap
    assert active.count == count
    assert consumer_counts(active) == consumers
    assert active.positions() == [i for i, a in enumerate(bitmap) if a]


def assert_activated(activated, parent_active, child_active) -> None:
    """Each node in ``activated`` became active once, and those still active
    are exactly the child's active nodes that the parent lacked."""
    assert len(set(activated)) == len(activated)
    still_active = {i for i in activated if child_active.readers[i]}
    assert still_active == set(child_active.positions()) - set(parent_active.positions())


def pick_node(active, params, rng) -> int:
    """An active node when there is one, any node otherwise."""
    positions = active.positions()
    if positions:
        return positions[int(rng.integers(len(positions)))]
    return int(rng.integers(params.num_computational))


def apply_edit(kind: str, parent: Genotype, active, rng) -> Genotype:
    params = parent.params
    arities = params.functions().arities
    start = params.comp_start
    if kind == "mutate":
        return single_mutation(parent, active, rng)
    if kind == "arity":
        # switch a node's function, to another arity where the set has one
        idx = pick_node(active, params, rng)
        node = parent.computational[idx]
        others = [f for f in range(len(arities)) if arities[f] != arities[node.function_id]]
        others = others or [f for f in range(len(arities)) if f != node.function_id]
        fid = others[int(rng.integers(len(others)))]
        return edited(parent, nodes={idx: NodeGene(fid, node.connections)})
    if kind == "output":
        k = int(rng.integers(params.num_outputs))
        return edited(parent, outputs={k: int(rng.integers(params.num_connectable))})
    if kind == "cut":
        # rewire an output or an active node's first gene to an input, which
        # releases whatever only that gene kept active
        if rng.random() < 0.5:
            k = int(rng.integers(params.num_outputs))
            return edited(parent, outputs={k: int(rng.integers(start))})
        idx = pick_node(active, params, rng)
        node = parent.computational[idx]
        conns = (int(rng.integers(start)),) + node.connections[1:]
        return edited(parent, nodes={idx: NodeGene(node.function_id, conns)})
    # scramble: resample several nodes at once, active or not, and maybe an
    # output too
    replaced = {}
    for idx in rng.choice(params.num_computational, size=3, replace=False).tolist():
        position = start + idx
        conns = tuple(int(rng.integers(position)) for _ in range(ARITY))
        replaced[idx] = NodeGene(int(rng.integers(len(arities))), conns)
    outputs = {}
    if rng.random() < 0.3:
        outputs[int(rng.integers(params.num_outputs))] = int(
            rng.integers(params.num_connectable)
        )
    return edited(parent, nodes=replaced, outputs=outputs)


@given(
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(EDITS + tuple(REORDERS)), min_size=1, max_size=30),
)
def test_chains_of_edits_and_reorders_match_the_oracle(shape, seed, steps):
    rng = np.random.default_rng(seed)
    genome = random_genome(shape, rng)
    active = decode_active(genome)
    assert_matches_oracle(active, genome)
    assert_readers_match(active, genome)
    for step in steps:
        if step in REORDERS:
            reordered = REORDERS[step](genome, rng, active)
            if reordered is genome:
                assert active.count == 0
                continue
            assert_matches_oracle(reordered.active, reordered)
            assert sorted_readers(reordered.active) == sorted_readers(decode_active(reordered))
            genome, active = reordered, reordered.active
        else:
            child = apply_edit(step, genome, active, rng)
            child_active = decode_active(child, genome, active)
            assert_matches_oracle(child_active, child)
            assert_activated(child.delta.activated, active, child_active)
            assert sorted_readers(child_active) == sorted_readers(decode_active(child))
            genome, active = child, child_active
        assert_readers_match(active, genome)


def test_removal_cascades_through_a_chain():
    genome = chain_genome(12)
    active = decode_active(genome)
    assert active.count == 12
    cut = edited(genome, outputs={0: 0})
    assert decode_active(cut, genome, active).count == 0
    # rewiring the middle of the chain to the inputs releases everything
    # below it; every node reads its predecessor through both genes
    rewired = edited(genome, nodes={6: NodeGene(0, (0, 1))})
    derived = decode_active(rewired, genome, active)
    assert derived.count == 6
    assert_matches_oracle(derived, rewired)
    assert derived.readers[5] == () and derived.readers[6] == (7, 7)


def test_unary_binary_switch_moves_the_second_gene():
    # the adder at position 4 reads the subtractor through both genes; as a
    # sine it reads it once, and as a multiplier twice again.  The unused
    # divider stays inactive throughout.
    genome = fig1_genome()
    active = decode_active(genome)
    assert active.readers[1] == (2, 2)
    for fid, count in ((4, 1), (2, 2)):
        node = genome.computational[2]
        child = edited(genome, nodes={2: NodeGene(fid, node.connections)})
        active = decode_active(child, genome, active)
        genome = child
        assert_matches_oracle(active, genome)
        assert consumer_counts(active)[1] == count
        assert active.count == 2


def test_unchanged_active_graph_shares_the_parent_set():
    genome = fig1_genome()
    active = decode_active(genome)
    # only the inactive divider changes
    child = edited(genome, nodes={0: NodeGene(0, (1, 0))})
    assert decode_active(child, genome, active) is active


def test_node_read_again_through_a_new_path_is_not_activated():
    # the output node stops reading Y and reads the inactive X instead,
    # which reads Y: Y keeps one consumer throughout, X alone is activated
    params = GraphParams(2, 1, 3, "regression")
    add = 0
    genome = Genotype(
        params,
        [NodeGene(add, (0, 1)), NodeGene(add, (2, 0)), NodeGene(add, (2, 0))],
        (4,),
    )
    active = decode_active(genome)
    assert active.positions() == [0, 2]
    child = edited(genome, nodes={2: NodeGene(add, (3, 0))})
    derived = decode_active(child, genome, active)
    assert_matches_oracle(derived, child)
    assert consumer_counts(derived) == [1, 1, 1]
    assert child.delta.activated == [1]


def test_a_read_moved_from_a_node_to_an_output_is_not_shared():
    # the multiplier becomes a sine and stops reading Y, and an output reads
    # Y instead: every count stays, but Y's readers change, so the child
    # cannot share its parent's set
    params = GraphParams(2, 2, 3, "regression")
    add, mul, sin = 0, 2, 4
    genome = Genotype(
        params,
        [NodeGene(add, (0, 1)), NodeGene(add, (0, 1)), NodeGene(mul, (2, 3))],
        (4, 0),
    )
    active = decode_active(genome)
    assert_readers_match(active, genome)
    child = edited(genome, nodes={2: NodeGene(sin, (2, 3))}, outputs={1: 3})
    child_active = decode_active(child, genome, active)
    assert consumer_counts(child_active) == consumer_counts(active)
    assert child_active is not active
    assert_readers_match(child_active, child)


def test_a_read_moved_between_two_nodes_is_not_shared():
    # one sine becomes an adder that also reads Y, and the sine that read Y
    # reads an input instead: the changed genes move the same counts, but Y
    # has a new reader
    params = GraphParams(2, 2, 4, "regression")
    add, sin = 0, 4
    genome = Genotype(
        params,
        [NodeGene(add, (0, 1)), NodeGene(add, (0, 1))]
        + [NodeGene(sin, (2, 0)), NodeGene(sin, (3, 0))],
        (4, 5),
    )
    active = decode_active(genome)
    child = edited(genome, nodes={2: NodeGene(add, (2, 3)), 3: NodeGene(sin, (0, 0))})
    child_active = decode_active(child, genome, active)
    assert consumer_counts(child_active) == consumer_counts(active)
    assert child_active is not active
    assert_readers_match(child_active, child)
