"""The verdict `scripts/bench_compare.py` gives a metric on one workload."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

HIGHER = {"bound": 0.15, "better": "higher"}
LOWER = {"bound": 0.05, "better": "lower"}
NARROW = {"median": 100.0, "q1": 99.0, "q3": 101.0}


@pytest.mark.parametrize(
    "spec,change,expected",
    [
        (HIGHER, 86.0, "ok"),
        (HIGHER, 84.0, "worse"),
        (HIGHER, 130.0, "ok"),
        (LOWER, 104.0, "ok"),
        (LOWER, 106.0, "worse"),
        (LOWER, 80.0, "ok"),
    ],
)
def test_worse_by_more_than_the_bound(spec, change, expected):
    assert bench_compare.verdict(spec, NARROW, {"median": change}) == expected


def test_parent_spread_wider_than_the_bound_is_unresolved():
    wide = {"median": 100.0, "q1": 96.0, "q3": 102.0}
    assert bench_compare.verdict(LOWER, wide, {"median": 100.0}) == "unresolved"
    # the same spread lies within the looser bound, so the verdict stands
    assert bench_compare.verdict(HIGHER, wide, {"median": 50.0}) == "worse"
