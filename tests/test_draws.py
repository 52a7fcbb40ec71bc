"""The draw feed against numpy's own `Generator`, value for value.

Every random draw of an ES run comes from one `DrawFeed`, which must return
what the run's `Generator` would, in the same order, and leave that
generator in the state its own draws would have.  These tests hold the feed
against a real `Generator` from the same seed, so a numpy release that
changes how it draws fails them.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.draws import BLOCK, DrawFeed
from cgp_reorder.genome import GraphParams, Genotype, decode_active, random_genome
from cgp_reorder.mutation import single_mutation
from cgp_reorder.reorder import (
    maybe_reorder,
    reorder_equidistant,
    reorder_leftskew,
    reorder_negbias,
    reorder_original,
    reorder_uniform,
    repair_forward_connections,
)

from conftest import with_forward_genes

# 1 draws nothing; 2^31 + 5 rejects about half of its 32-bit draws
EDGE_BOUNDS = (1, 2, 3, 2**31 + 5, 2**32 - 1)
bounds = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, 2**32 - 1))
draws = st.one_of(
    st.tuples(st.just("integer"), bounds),
    st.tuples(st.just("integers"), st.lists(bounds, max_size=40)),
    st.tuples(st.just("float"), st.none()),
    st.tuples(st.just("floats"), st.integers(0, 3 * BLOCK)),
    st.tuples(st.just("flush"), st.none()),
)


@given(
    seed=st.integers(0, 2**64 - 1),
    buffered=st.booleans(),
    steps=st.lists(draws, max_size=60),
)
def test_interleavings_match_the_generator(seed, buffered, steps):
    expected = np.random.default_rng(seed)
    generator = np.random.default_rng(seed)
    if buffered:
        # both start with a high half waiting
        assert expected.integers(7) == generator.integers(7)
    feed = DrawFeed(generator)
    for kind, arg in steps:
        if kind == "integer":
            assert feed.integers(arg) == expected.integers(arg)
        elif kind == "integers":
            # a run of scalar draws, as repair makes over its forward genes
            assert [feed.integers(b) for b in arg] == [expected.integers(b) for b in arg]
        elif kind == "float":
            assert feed.random() == expected.random()
        elif kind == "floats":
            assert feed.random(arg).tobytes() == expected.random(arg).tobytes()
        else:
            feed.flush()
            assert generator.bit_generator.state == expected.bit_generator.state
    feed.flush()
    assert generator.bit_generator.state == expected.bit_generator.state
    assert generator.random() == expected.random()


def test_other_bit_generators_rejected():
    for bit_generator in (np.random.MT19937(0), np.random.PCG64DXSM(0)):
        with pytest.raises(TypeError, match="PCG64"):
            DrawFeed(np.random.Generator(bit_generator))


@pytest.mark.parametrize("bound", [0, -3, 2**32, 2**40])
def test_bounds_numpy_draws_otherwise_rejected(bound):
    # at 2^32 and above numpy draws whole words; below 1 it raises
    generator = np.random.default_rng(0)
    feed = DrawFeed(generator)
    expected = np.random.default_rng(0)
    assert feed.integers(5) == expected.integers(5)
    with pytest.raises(ValueError, match="bounds"):
        feed.integers(bound)
    # the rejected bound drew nothing
    feed.flush()
    assert generator.bit_generator.state == expected.bit_generator.state


def repaired(genome, rng):
    copy = Genotype(genome.params, list(genome.computational), genome.output_connections)
    return copy, repair_forward_connections(copy, rng)


DRAW_SITES = {
    "random_genome": lambda g, rng: random_genome(g.params, rng),
    "single_mutation": lambda g, rng: single_mutation(g, decode_active(g), rng),
    "original": reorder_original,
    "equidistant": reorder_equidistant,
    "uniform": reorder_uniform,
    "negbias": reorder_negbias,
    "leftskew": reorder_leftskew,
    "maybe_negbias": lambda g, rng: maybe_reorder(g, "negbias", 0.5, rng),
    "maybe_leftskew": lambda g, rng: maybe_reorder(g, "leftskew", 0.5, rng),
    "repair": repaired,
}


@pytest.mark.parametrize("site", DRAW_SITES)
@pytest.mark.parametrize(
    "params",
    [
        GraphParams(3, 1, 40, "boolean"),
        GraphParams(6, 6, 60, "boolean"),
        GraphParams(1, 1, 30, "regression"),
        GraphParams(2, 1, 50, "regression"),
    ],
    ids=["parity3", "multiply3", "keijzer6", "pagie1"],
)
def test_draw_sites_match_the_generator(site, params):
    call = DRAW_SITES[site]
    for seed in range(6):
        shape_rng = np.random.default_rng((seed, 1))
        genome = with_forward_genes(random_genome(params, shape_rng), shape_rng)
        if site != "repair":
            genome = repaired(genome, shape_rng)[0]
        expected = np.random.default_rng((seed, 2))
        generator = np.random.default_rng((seed, 2))
        feed = DrawFeed(generator)
        # several calls in a row, so that buffered halves carry across
        for _ in range(4):
            assert call(genome, feed) == call(genome, expected)
        feed.flush()
        assert generator.bit_generator.state == expected.bit_generator.state
