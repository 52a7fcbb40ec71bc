"""The verdict `scripts/bench_compare.py` gives a metric on one workload,
and the exit status it derives from all of them."""

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


def report(failed=(0, 0), verdicts=("ok",)):
    """A report of one workload besides a clean one, in the layout
    `bench_compare.main` writes."""
    clean = {"attempted": {"parent": 5, "change": 5}, "failed": {"parent": 0, "change": 0},
             "iter_per_s": {"verdict": "ok"}}
    entry = {
        "attempted": {"parent": 5, "change": 5},
        "failed": dict(zip(bench_compare.SIDES, failed)),
        **{f"metric_{i}": {"verdict": v, "ratio": 1.0} for i, v in enumerate(verdicts)},
    }
    return {"pr": "x", "workloads": {"clean": clean, "checked": entry}}


@pytest.mark.parametrize(
    "failed,verdicts,expected",
    [
        ((0, 0), ("ok", "ok"), 0),
        ((0, 0), ("ok", "unresolved"), 0),
        ((0, 0), ("ok", "worse"), 1),
        ((0, 2), ("ok",), 1),
        ((1, 0), ("ok",), 1),
        ((0, 1), ("unresolved", "worse"), 1),
    ],
    ids=["ok", "unresolved", "worse", "change-failed", "parent-failed", "both"],
)
def test_exit_status_gates_on_failed_checks_and_worse_verdicts(failed, verdicts, expected):
    assert bench_compare.exit_status(report(failed, verdicts)) == expected
