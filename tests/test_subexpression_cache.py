import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.benchmarks import DataSplit, mae_fitness
from cgp_reorder.errors import ConfigError
from cgp_reorder.evolution import select_parent
from cgp_reorder.genome import (
    GraphParams,
    NodeGene,
    SubexpressionCache,
    decode_active,
    evaluate_batch,
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

from conftest import fig1_genome, hard_points, oracle_evaluate_batch

REORDERS = {
    "original": reorder_original,
    "equidistant": reorder_equidistant,
    "uniform": reorder_uniform,
    "negbias": reorder_negbias,
    "leftskew": reorder_leftskew,
}

def distinct_subexpressions(genome, active) -> int:
    """Structurally distinct active nodes, consumed inputs only."""
    params = genome.params
    arities = params.functions().arities
    interned: dict[tuple, int] = {}
    shape = {i: ("input", i) for i in range(params.num_inputs)}
    for idx in active.positions():
        node = genome.computational[idx]
        consumed = node.connections[: arities[node.function_id]]
        structure = (node.function_id, *(shape[c] for c in consumed))
        shape[params.comp_start + idx] = ("node", interned.setdefault(structure, len(interned)))
    return len(interned)


def mae(ys: np.ndarray, preds: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs(ys - preds[:, 0])))


def assert_matches_oracle(genome, xs, active, cache) -> np.ndarray:
    preds = evaluate_batch(genome, xs, active, cache)
    expected = oracle_evaluate_batch(genome, xs, active)
    assert preds.shape == expected.shape
    assert np.array_equal(preds, expected)
    assert preds.tobytes() == expected.tobytes()
    return preds


@given(
    num_inputs=st.sampled_from([1, 2]),
    nodes=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(["none", *REORDERS]), min_size=1, max_size=12),
)
def test_shared_cache_matches_oracle_along_es_chains(num_inputs, nodes, seed, steps):
    rng = np.random.default_rng(seed)
    params = GraphParams(num_inputs, 1, nodes, 2, "regression")
    xs = hard_points(num_inputs, rng)
    ys = rng.uniform(-2.0, 2.0, len(xs))
    cache = SubexpressionCache(xs)
    parent = random_genome(params, rng)
    parent_active = decode_active(parent)
    preds = assert_matches_oracle(parent, xs, parent_active, cache)
    parent_fitness = mae(ys, preds)
    for kind in steps:
        if kind != "none":
            parent = REORDERS[kind](parent, rng)
            parent_active = decode_active(parent)
            assert_matches_oracle(parent, xs, parent_active, cache)
        children, fitnesses = [], []
        for _ in range(4):
            child = single_mutation(parent, parent_active, rng)
            child_active = decode_active(child)
            preds = assert_matches_oracle(child, xs, child_active, cache)
            children.append((child, child_active))
            fitnesses.append(mae(ys, preds))
        choice = select_parent(parent_fitness, fitnesses, maximize=False)
        if choice is not None:
            parent, parent_active = children[choice]
            parent_fitness = fitnesses[choice]
        cache.prune(parent, parent_active)
        assert len(cache) <= distinct_subexpressions(parent, parent_active) + num_inputs


def test_reorder_and_unconsumed_gene_add_no_entries():
    g = fig1_genome()
    xs = np.array([[0.5, 1.5], [2.0, -3.0], [0.0, 1e-12]])
    cache = SubexpressionCache(xs)
    before = evaluate_batch(g, xs, cache=cache)
    size = len(cache)
    assert size == 2 + 2  # two inputs, SUB and the ADD reading it twice
    for kind, operator in REORDERS.items():
        h = operator(g, np.random.default_rng(0))
        assert np.array_equal(evaluate_batch(h, xs, cache=cache), before), kind
    assert len(cache) == size
    # the second gene of a unary node is not part of its key
    g.computational[2] = NodeGene(4, (3, 2))  # SIN of the SUB
    sine = evaluate_batch(g, xs, cache=cache)
    size = len(cache)
    g.computational[2] = NodeGene(4, (3, 3))
    assert np.array_equal(evaluate_batch(g, xs, cache=cache), sine)
    assert len(cache) == size


def test_shared_subexpressions_are_computed_once():
    g = fig1_genome()
    g.computational[0] = NodeGene(1, (0, 1))  # a second SUB(x0, x1)
    g.computational[2] = NodeGene(2, (2, 3))  # MUL of the two SUBs
    xs = np.array([[0.5, 1.5], [2.0, -3.0]])
    cache = SubexpressionCache(xs)
    out = evaluate_batch(g, xs, cache=cache)
    assert len(cache) == 2 + 2
    assert np.array_equal(out[:, 0], (xs[:, 0] - xs[:, 1]) ** 2)


def test_results_are_read_only():
    xs = np.array([[1.0, 2.0]])
    out = evaluate_batch(fig1_genome(), xs)
    with pytest.raises(ValueError):
        out[0, 0] = 0.0


def test_cache_for_another_batch_rejected():
    cache = SubexpressionCache(np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        evaluate_batch(fig1_genome(), np.zeros((3, 2)), cache=cache)
    with pytest.raises(ConfigError):
        mae_fitness(fig1_genome(), DataSplit(np.zeros((3, 2)), np.zeros(3)), cache=cache)
