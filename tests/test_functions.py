import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.benchmarks import DataSplit, mae_fitness
from cgp_reorder.errors import ConfigError
from cgp_reorder.functions import (
    BOOLEAN_SET,
    REGRESSION_SET,
    VALUE_LIMIT,
    _finite,
    get_function_set,
)
from cgp_reorder.genome import GraphParams, Genotype, NodeGene, evaluate_batch

TRUTH_TABLES = {
    "AND": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "OR": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    "NAND": {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    "NOR": {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0},
}


def test_boolean_truth_tables_exhaustive():
    for spec in BOOLEAN_SET.entries:
        for args, expected in TRUTH_TABLES[spec.name].items():
            assert spec.fn(*args, 1) == expected


def test_nand_one_one_is_zero():
    nand = next(s for s in BOOLEAN_SET.entries if s.name == "NAND")
    assert nand.fn(1, 1, 1) == 0


def test_boolean_mask_semantics_match_rowwise():
    # four rows packed into 4-bit masks: a = 0011, b = 0101
    a, b, mask = 0b0011, 0b0101, 0b1111
    for fid, spec in enumerate(BOOLEAN_SET.entries):
        packed = spec.fn(a, b, mask)
        for row in range(4):
            bits = ((a >> row) & 1, (b >> row) & 1)
            assert (packed >> row) & 1 == TRUTH_TABLES[spec.name][bits]


def _regression_fn(name):
    return next(s for s in REGRESSION_SET.entries if s.name == name).fn


def test_protected_division_examples():
    pdiv = _regression_fn("PDIV")
    assert pdiv(1.0, 0.0) == 1.0
    assert pdiv(6.0, 3.0) == 2.0


def test_protected_log_examples():
    ln = _regression_fn("LN")
    assert ln(math.e) == pytest.approx(1.0)
    assert ln(-math.e) == pytest.approx(1.0)
    assert ln(0.0) == 0.0


def test_exp_examples():
    exp = _regression_fn("EXP")
    assert exp(0.0) == 1.0
    assert np.isfinite(exp(1e9))


def test_unary_functions_ignore_excess_args():
    # a SIN node whose second connection gene reads the other input
    sin = next(i for i, s in enumerate(REGRESSION_SET.entries) if s.name == "SIN")
    genome = Genotype(GraphParams(2, 1, 1, "regression"), [NodeGene(sin, (0, 1))], (2,))
    assert evaluate_batch(genome, np.array([[0.5, 123.0]]))[0, 0] == np.sin(0.5)


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


@given(finite_floats, finite_floats)
def test_regression_functions_finite_for_finite_args(a, b):
    with np.errstate(all="ignore"):
        for spec in REGRESSION_SET.entries:
            result = spec.fn(*(a, b)[: spec.arity])
            assert np.isfinite(result)
            assert abs(result) <= VALUE_LIMIT


def test_function_set_registry():
    assert get_function_set("boolean") is BOOLEAN_SET
    assert get_function_set("regression") is REGRESSION_SET
    with pytest.raises(ConfigError):
        get_function_set("polynomial")


def test_set_compositions():
    assert [s.name for s in BOOLEAN_SET.entries] == ["AND", "OR", "NAND", "NOR"]
    assert all(s.arity == 2 for s in BOOLEAN_SET.entries)
    assert [s.name for s in REGRESSION_SET.entries] == [
        "ADD", "SUB", "MUL", "PDIV", "SIN", "COS", "LN", "EXP",
    ]
    assert [s.arity for s in REGRESSION_SET.entries] == [2, 2, 2, 2, 1, 1, 1, 1]


# signed zeros, infinities, NaNs of both signs, the float limits and
# subnormals: the cases where two clamping or averaging expressions could
# differ in their bytes
EDGE_VALUES = np.array(
    [
        0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
        VALUE_LIMIT, -VALUE_LIMIT, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -2.25,
    ]
)


def same_bytes(a, b) -> bool:
    """Same type, dtype, shape and bytes."""
    a_array, b_array = np.asarray(a), np.asarray(b)
    return (
        type(a) is type(b)
        and a_array.dtype == b_array.dtype
        and a_array.shape == b_array.shape
        and a_array.tobytes() == b_array.tobytes()
    )


def test_finite_clamp_equals_np_clip_byte_for_byte():
    def clip(value):
        return np.clip(value, -VALUE_LIMIT, VALUE_LIMIT)

    scalars = [float(v) for v in EDGE_VALUES] + list(EDGE_VALUES)
    arrays = [EDGE_VALUES, EDGE_VALUES.reshape(2, 7), EDGE_VALUES[:1], np.tile(EDGE_VALUES, 4)]
    for value in scalars + arrays:
        assert same_bytes(_finite(value), clip(value)), value
    with np.errstate(over="ignore"):
        overflow = np.multiply(EDGE_VALUES, 1e300)
    assert same_bytes(_finite(overflow), clip(overflow))


def test_mean_by_reduce_equals_np_mean_byte_for_byte():
    # mae_fitness averages the absolute errors as np.add.reduce(x) / n
    rng = np.random.default_rng(0)
    for size in (1, 2, 7, 50, 129, 676):
        for values in (
            rng.choice(EDGE_VALUES, size),
            np.abs(rng.choice(EDGE_VALUES, size)),
            rng.uniform(-1e3, 1e3, size),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                assert same_bytes(np.add.reduce(values) / len(values), np.mean(values))


def test_mae_fitness_equals_np_mean_of_absolute_errors():
    # the output reads the input column, so the predictions are the points
    params = GraphParams(1, 1, 1, "regression")
    genome = Genotype(params, [NodeGene(0, (0, 0))], (0,))
    rng = np.random.default_rng(1)
    for values in (EDGE_VALUES, rng.uniform(-5.0, 5.0, 50), rng.choice(EDGE_VALUES, 50)):
        xs = values[:, None]
        ys = rng.permutation(values)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.mean(np.abs(ys - xs[:, 0])))
            score = mae_fitness(genome, DataSplit(xs, ys))
        assert np.float64(score).tobytes() == np.float64(expected).tobytes()
