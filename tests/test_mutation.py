import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.genome import (
    GraphParams,
    Genotype,
    NodeGene,
    decode_active,
    random_genome,
)
from cgp_reorder.draws import DrawFeed
from cgp_reorder.mutation import single_mutation

from conftest import chain_genome, reference_mutation, validate


def gene_diffs(a: Genotype, b: Genotype) -> list[str]:
    diffs = []
    for i, (na, nb) in enumerate(zip(a.computational, b.computational)):
        if na.function_id != nb.function_id:
            diffs.append(f"function:{i}")
        for k, (ca, cb) in enumerate(zip(na.connections, nb.connections)):
            if ca != cb:
                diffs.append(f"conn:{i}:{k}")
    for k, (oa, ob) in enumerate(zip(a.output_connections, b.output_connections)):
        if oa != ob:
            diffs.append(f"out:{k}")
    return diffs


def test_all_active_genome_changes_exactly_one_gene():
    g = chain_genome(8)
    active = decode_active(g)
    assert active.count == 8
    rng = np.random.default_rng(0)
    for _ in range(200):
        mutant = single_mutation(g, active, rng)
        assert len(gene_diffs(g, mutant)) == 1


def test_empty_active_terminates_on_output_gene():
    params = GraphParams(2, 1, 5, "boolean")
    g = Genotype(params, [NodeGene(0, (0, 1)) for _ in range(5)], (0,))
    active = decode_active(g)
    assert active.count == 0
    rng = np.random.default_rng(3)
    for _ in range(50):
        mutant = single_mutation(g, active, rng)
        assert mutant.output_connections != g.output_connections
        assert validate(mutant) == []


def test_fixed_seed_reproducible():
    g = random_genome(GraphParams(2, 1, 20), np.random.default_rng(9))
    active = decode_active(g)
    a = single_mutation(g, active, np.random.default_rng(7))
    b = single_mutation(g, active, np.random.default_rng(7))
    assert a == b


def test_parent_not_modified():
    g = random_genome(GraphParams(3, 2, 15), np.random.default_rng(2))
    snapshot = Genotype(g.params, list(g.computational), g.output_connections)
    single_mutation(g, decode_active(g), np.random.default_rng(0))
    assert g == snapshot


def test_terminating_gene_is_active_or_output():
    params = GraphParams(3, 1, 25, "boolean")
    rng = np.random.default_rng(17)
    for seed in range(40):
        g = random_genome(params, np.random.default_rng(seed))
        active = decode_active(g)
        mutant = single_mutation(g, active, rng)
        diffs = gene_diffs(g, mutant)
        assert diffs, "mutation must change at least one gene"
        active_or_output = [
            d
            for d in diffs
            if d.startswith("out:") or active.bitmap[int(d.split(":")[1])]
        ]
        assert len(active_or_output) == 1


def test_single_node_single_input_still_terminates():
    # the lone connection domain has size one, so only function or output
    # genes can terminate the loop
    params = GraphParams(1, 1, 1, "boolean")
    g = Genotype(params, [NodeGene(0, (0, 0))], (1,))
    active = decode_active(g)
    rng = np.random.default_rng(5)
    for _ in range(50):
        mutant = single_mutation(g, active, rng)
        assert validate(mutant) == []
        assert gene_diffs(g, mutant)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["boolean", "regression"]))
def test_mutants_always_valid(seed, fset):
    params = GraphParams(2, 2, 12, fset)
    g = random_genome(params, np.random.default_rng(seed))
    active = decode_active(g)
    mutant = single_mutation(g, active, np.random.default_rng(seed + 1))
    assert validate(mutant) == []


@st.composite
def mutation_genomes(draw):
    """Random genomes of either function set, with one input (whose first
    node has a one-value connection domain) or more, one output or more,
    and some with every output reading an input, so that no node is active."""
    params = GraphParams(
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 30)),
        draw(st.sampled_from(["boolean", "regression"])),
    )
    g = random_genome(params, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        reads = st.integers(0, params.num_inputs - 1)
        g = Genotype(params, g.computational, tuple(draw(reads) for _ in range(params.num_outputs)))
    return g


@given(genome=mutation_genomes(), seed=st.integers(0, 2**64 - 1), feed=st.booleans())
def test_matches_the_per_pick_reference(genome, seed, feed):
    expected_rng = np.random.default_rng(seed)
    generator = np.random.default_rng(seed)
    draws = DrawFeed(generator) if feed else generator
    # several calls in a row, each mutating the last mutant, so that
    # buffered halves carry across calls
    for _ in range(5):
        active = decode_active(genome)
        mutant = single_mutation(genome, active, draws)
        expected = reference_mutation(genome, active, expected_rng)
        assert mutant == expected
        assert mutant.delta == expected.delta
        genes = [gene for node in mutant.computational for gene in (node.function_id, *node.connections)]
        assert all(type(gene) is int for gene in [*genes, *mutant.output_connections])
        genome = mutant
    if feed:
        draws.flush()
    assert generator.bit_generator.state == expected_rng.bit_generator.state
