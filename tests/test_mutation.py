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


# The pick loop draws Lemire's integers inline from the feed's 32-bit halves
# and hands rare cases to `DrawFeed.integer_at`.  A random half is a
# rejection candidate (low product bits below the bound) with probability
# bound / 2^32, so these tests build generators whose word is chosen.  A
# fresh feed takes its first draw through `integer_at`, which converts the
# first chunk; with words ahead of the chosen one, drawn first, the chosen
# one is drawn inline.
MASK32 = 2**32 - 1
WORDS_AHEAD = [0, 3]


def generator_before(word: int, ahead: int) -> np.random.Generator:
    """A PCG64 generator whose raw word after the next ``ahead`` is ``word``."""
    bit_generator = np.random.PCG64(0)
    state = bit_generator.state
    high = 0x0123456789ABCDEF  # top 6 bits clear: the output is not rotated
    state["state"]["state"] = high << 64 | (word ^ high)
    bit_generator.state = state
    bit_generator.advance(-1)
    state = bit_generator.state
    assert bit_generator.random_raw() == word
    bit_generator.state = state
    bit_generator.advance(-ahead)
    return np.random.Generator(bit_generator)


def half_with_leftover(bound: int, leftover: int) -> int:
    """The half whose product with odd ``bound`` has low bits ``leftover``."""
    return leftover * pow(bound, -1, 2**32) & MASK32


def half_drawing(value: int, bound: int) -> int:
    """A half that draws ``value`` below ``bound`` at once."""
    half = ((value << 32) + bound - 1) // bound + 1
    assert (half * bound) >> 32 == value and (half * bound) & MASK32 >= bound
    return half


def threshold(bound: int) -> int:
    return (2**32 - bound) % bound


def drawing_halves(count: int):
    """A prefix that draws ``count`` halves as bound-2 integers, which
    reject none."""

    def prefix(draws):
        for _ in range(count):
            draws.integers(2)

    return prefix


def assert_matches_served_draws(genome, make_generator, prefix=drawing_halves(0)):
    """`single_mutation` on a feed, on a plain generator, and
    `reference_mutation` on draws served through `integers` and on numpy's
    own all give the same mutant and leave the same generator state;
    ``prefix`` draws the same integers from each source first."""
    active = decode_active(genome)
    generator, served, own, expected = (make_generator() for _ in range(4))
    feed, served_feed = DrawFeed(generator), DrawFeed(served)
    for source in (feed, served_feed, own, expected):
        prefix(source)
    mutant = single_mutation(genome, active, feed)
    for other in (
        single_mutation(genome, active, own),
        reference_mutation(genome, active, served_feed),
        reference_mutation(genome, active, expected),
    ):
        assert mutant == other
        assert mutant.delta == other.delta
    feed.flush()
    served_feed.flush()
    for source in (generator, served, own):
        assert source.bit_generator.state == expected.bit_generator.state
    return mutant


@pytest.mark.parametrize("ahead", WORDS_AHEAD)
@pytest.mark.parametrize("accepted", [True, False], ids=["at-threshold", "rejected"])
def test_gene_draw_candidate(accepted, ahead):
    genome = random_genome(GraphParams(3, 1, 10), np.random.default_rng(4))
    total_genes = 31
    # a candidate at the threshold is kept; one below it redraws from the
    # buffered high half
    low = half_with_leftover(total_genes, threshold(total_genes) - (not accepted))
    assert (low * total_genes) & MASK32 < total_genes
    assert_matches_served_draws(
        genome, lambda: generator_before(0x9E3779B9 << 32 | low, ahead), drawing_halves(2 * ahead)
    )


@pytest.mark.parametrize("ahead", WORDS_AHEAD)
@pytest.mark.parametrize("accepted", [True, False], ids=["at-threshold", "rejected"])
def test_value_draw_candidate(accepted, ahead):
    genome = chain_genome(8)
    total_genes = 25
    functions_less_one = genome.params.functions().size - 1
    assert functions_less_one % 2 == 1
    # gene 9 is node 3's function gene, and node 3 is active
    low = half_drawing(9, total_genes)
    high = half_with_leftover(functions_less_one, threshold(functions_less_one) - (not accepted))
    mutant = assert_matches_served_draws(
        genome, lambda: generator_before(high << 32 | low, ahead), drawing_halves(2 * ahead)
    )
    assert mutant.delta.nodes == (3,)


@pytest.mark.parametrize("ahead", WORDS_AHEAD)
def test_bound_of_one_draws_nothing(ahead):
    # one input: node 1 sits at position 2, so its connection domain is
    # {0, 1} and its new value is drawn below 1, which draws nothing
    params = GraphParams(1, 1, 5)
    genome = Genotype(params, [NodeGene(0, (0, 0)), *[NodeGene(1, (1, 0))] * 4], (2,))
    word = 0x2545F491 << 32 | half_drawing(4, 16)
    mutant = assert_matches_served_draws(
        genome, lambda: generator_before(word, ahead), drawing_halves(2 * ahead)
    )
    assert mutant.computational[1] == NodeGene(1, (0, 0))
    # the high half stays buffered
    generator = generator_before(word, ahead)
    drawing_halves(2 * ahead)(generator)
    single_mutation(genome, decode_active(genome), generator)
    state = generator.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (1, word >> 32)


@pytest.mark.parametrize("left", [0, 1])
def test_cursor_runs_off_the_converted_halves(left):
    genome = random_genome(GraphParams(3, 1, 40), np.random.default_rng(5))
    # draw until all but ``left`` halves of the first converted chunk are
    # served: the mutation's gene draw (left 0) or value draw (left 1)
    # converts the next chunk
    probe = DrawFeed(np.random.default_rng(11))
    probe.integers(2)
    count = 1
    while len(probe.halves) - probe.at != left:
        probe.integers(2)
        count += 1
    assert_matches_served_draws(genome, lambda: np.random.default_rng(11), drawing_halves(count))


def test_long_mutation_crosses_chunks():
    # no node is active, so only an output gene ends the loop: about 1,200
    # picks, several chunks of converted halves
    params = GraphParams(3, 1, 400)
    genome = random_genome(params, np.random.default_rng(6))
    genome = Genotype(params, genome.computational, (0,))
    for seed in range(3):
        assert_matches_served_draws(genome, lambda: np.random.default_rng(seed))
