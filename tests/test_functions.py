import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.errors import ConfigError
from cgp_reorder.functions import (
    BOOLEAN_SET,
    REGRESSION_SET,
    VALUE_LIMIT,
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
    genome = Genotype(GraphParams(2, 1, 1, 2, "regression"), [NodeGene(sin, (0, 1))], (2,))
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
