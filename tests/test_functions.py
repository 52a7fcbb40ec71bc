import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.benchmarks import DataSplit, mae_fitness
from cgp_reorder.functions import (
    BOOLEAN_SET,
    FUNCTION_SETS,
    REGRESSION_SET,
    VALUE_LIMIT,
    _finite,
)
from cgp_reorder.genome import GraphParams, Genotype, NodeGene, decode_active, evaluate_batch

from conftest import REFERENCE_OPERATIONS

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


def _at(operation, a, b=0.0):
    """``operation`` on one-element arrays holding ``a`` and ``b``, with
    numpy's floating-point warnings off, as in `evaluate_batch`."""
    with np.errstate(all="ignore"):
        return operation(np.array([a]), np.array([b]), None)


def test_protected_division_examples():
    pdiv = _regression_fn("PDIV")
    assert _at(pdiv, 1.0, 0.0) == 1.0
    assert _at(pdiv, 6.0, 3.0) == 2.0


def test_protected_log_examples():
    ln = _regression_fn("LN")
    assert _at(ln, math.e) == pytest.approx(1.0)
    assert _at(ln, -math.e) == pytest.approx(1.0)
    assert _at(ln, 0.0) == 0.0


def test_exp_examples():
    exp = _regression_fn("EXP")
    assert _at(exp, 0.0) == 1.0
    assert np.isfinite(_at(exp, 1e9))


def test_unary_functions_ignore_excess_args():
    # a SIN node whose second connection gene reads the other input
    sin = next(i for i, s in enumerate(REGRESSION_SET.entries) if s.name == "SIN")
    genome = Genotype(GraphParams(2, 1, 1, "regression"), [NodeGene(sin, (0, 1))], (2,))
    out = evaluate_batch(genome, np.array([[0.5, 123.0]]), decode_active(genome))
    assert out[0, 0] == np.sin(0.5)


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


@given(finite_floats, finite_floats)
def test_regression_functions_finite_for_finite_args(a, b):
    for spec in REGRESSION_SET.entries:
        result = _at(spec.fn, a, b)
        assert np.isfinite(result)
        assert abs(result) <= VALUE_LIMIT


def test_function_set_registry():
    assert FUNCTION_SETS == {"boolean": BOOLEAN_SET, "regression": REGRESSION_SET}


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

    # the clamp writes into its argument, so it runs on a copy
    arrays = [EDGE_VALUES, EDGE_VALUES.reshape(2, 7), EDGE_VALUES[:1], np.tile(EDGE_VALUES, 4)]
    for value in arrays:
        assert same_bytes(_finite(value.copy()), clip(value)), value
    with np.errstate(over="ignore"):
        overflow = np.multiply(EDGE_VALUES, 1e300)
    assert same_bytes(_finite(overflow.copy()), clip(overflow))


# the edge values, and the guard edges of PDIV and LN (1e-9) and of EXP (700)
GUARD_EDGES = np.concatenate(
    [EDGE_VALUES, [1e-9, -1e-9, 1e-10, 700.0, 701.0, -701.0, 1e300]]
)


def operand_pairs() -> tuple[np.ndarray, np.ndarray]:
    """Every pair of guard edges, then 2,000 random pairs of either sign
    with magnitudes from 1e-300 to 1e300."""
    a = np.repeat(GUARD_EDGES, len(GUARD_EDGES))
    b = np.tile(GUARD_EDGES, len(GUARD_EDGES))
    rng = np.random.default_rng(19)
    random = rng.choice([-1.0, 1.0], (2, 2000)) * 10.0 ** rng.uniform(-300.0, 300.0, (2, 2000))
    return np.concatenate([a, random[0]]), np.concatenate([b, random[1]])


def reference(function_id, a, b):
    """The value of a regression node by its out-of-place reference formula."""
    arguments = (a, b)[: REGRESSION_SET.arities[function_id]]
    return np.asarray(REFERENCE_OPERATIONS[function_id](*arguments), dtype=np.float64)


REGRESSION_IDS = [spec.name for spec in REGRESSION_SET.entries]


@pytest.mark.parametrize("function_id", range(REGRESSION_SET.size), ids=REGRESSION_IDS)
def test_regression_operation_equals_its_reference_byte_for_byte(function_id):
    operation = REGRESSION_SET.functions[function_id]
    a, b = operand_pairs()
    with np.errstate(all="ignore"):
        assert same_bytes(operation(a, b, None), reference(function_id, a, b))
        # one pair at a time as well, where numpy takes no vector loop
        for i in range(len(GUARD_EDGES) ** 2):
            x, y = a[i : i + 1], b[i : i + 1]
            assert same_bytes(operation(x, y, None), reference(function_id, x, y)), (x, y)


@pytest.mark.parametrize("function_id", range(REGRESSION_SET.size), ids=REGRESSION_IDS)
def test_regression_operation_writes_only_its_own_result(function_id):
    operation = REGRESSION_SET.functions[function_id]
    a, b = operand_pairs()
    frozen_a, frozen_b = a.copy(), b.copy()
    frozen_a.setflags(write=False)
    frozen_b.setflags(write=False)
    for x, y in ((a, b), (a, a), (frozen_a, frozen_b), (frozen_a, frozen_a)):
        before = [(v.tobytes(), v.flags.writeable) for v in (x, y)]
        with np.errstate(all="ignore"):
            out = operation(x, y, None)
        assert [(v.tobytes(), v.flags.writeable) for v in (x, y)] == before
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
        assert not out.flags.writeable
        assert not np.shares_memory(out, x) and not np.shares_memory(out, y)


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
            score = mae_fitness(genome, DataSplit(xs, ys), decode_active(genome))
        assert np.float64(score).tobytes() == np.float64(expected).tobytes()
