"""The verdict `scripts/bench_compare.py` gives a metric on one workload,
its judgement of a claimed gain, and the exit status it derives from all
of them."""

import importlib.util
import json
import sys
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


def figures(better, parent, change, wins):
    """A metric's report entry from each side's median and quartiles."""
    side = lambda q1, median, q3: {"q1": q1, "median": median, "q3": q3}
    return {"better": better, "parent": side(*parent), "change": side(*change),
            "change_wins": wins}


@pytest.mark.parametrize(
    "entry,met",
    [
        (figures("higher", (98, 100, 102), (110, 112, 114), 9), True),
        (figures("higher", (98, 100, 102), (110, 112, 114), 10), True),
        # eight wins of ten fall short of nine tenths
        (figures("higher", (98, 100, 102), (110, 112, 114), 8), False),
        # a gain of 3 does not clear the parent's spread of 4
        (figures("higher", (98, 100, 102), (101, 103, 105), 10), False),
        (figures("higher", (98, 100, 102), (90, 92, 94), 10), False),
        (figures("lower", (0.98, 1.0, 1.02), (0.90, 0.92, 0.94), 9), True),
        (figures("lower", (0.98, 1.0, 1.02), (1.08, 1.1, 1.12), 10), False),
    ],
    ids=["nine-wins", "ten-wins", "eight-wins", "inside-spread", "wrong-way",
         "lower-met", "lower-wrong-way"],
)
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_spread(entry, met):
    judged = bench_compare.judge_claim(entry, 10)
    assert judged["met"] is met
    assert judged["pairs"] == 10 and judged["change_wins"] == entry["change_wins"]
    assert judged["parent_spread"] == pytest.approx(entry["parent"]["q3"] - entry["parent"]["q1"])


def test_claim_spec_names_a_declared_workload_and_metric():
    workloads, metrics = ["a-n1", "b-n2"], {"iter_per_s": {}, "setup_s": {}}
    assert bench_compare.parse_claim("b-n2:iter_per_s", workloads, metrics) == (
        "b-n2", "iter_per_s"
    )
    for spec in ("c-n3:iter_per_s", "a-n1:speed", "a-n1", ""):
        with pytest.raises(ValueError):
            bench_compare.parse_claim(spec, workloads, metrics)


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


@pytest.mark.parametrize("met,expected", [(True, 0), (False, 1)])
def test_exit_status_gates_on_an_unmet_claim(met, expected):
    claimed = {**report(), "claim": {"met": met}}
    assert bench_compare.exit_status(claimed) == expected


DECLARED = {
    "workloads": [{"name": "w-n1"}],
    "end_to_end": [{"name": "iter_per_s", "unit": "iter/s", "better": "higher",
                    "bound": 0.15}],
}


def checkouts(tmp_path):
    """A parent and a change checkout that declare one workload."""
    for side in bench_compare.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(DECLARED))


@pytest.mark.parametrize("change_value,met,expected", [(110.0, True, 0), (100.5, False, 1)])
def test_main_writes_the_claim_and_gates_on_it(
    tmp_path, monkeypatch, change_value, met, expected
):
    checkouts(tmp_path)
    runs = {"parent": iter([99.0, 100.0, 101.0] * 4), "change": iter([change_value] * 10)}

    def run_workload(checkout, workload, seed, seconds):
        value = next(runs[Path(checkout).name])
        return {"metrics": {"iter_per_s": {"value": value}}, "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench_compare, "run_workload", run_workload)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [
        "bench_compare.py", "--parent", "parent", "--change", "change", "--pairs", "10",
        "--seed", "0", "--seconds", "1", "--pr", "t", "--claim", "w-n1:iter_per_s",
    ])
    assert bench_compare.main() == expected
    claim = json.loads((tmp_path / "BENCH_t.json").read_text())["claim"]
    assert claim["workload"] == "w-n1" and claim["metric"] == "iter_per_s"
    assert claim["met"] is met


def test_tier1_runs_parent_change_change_parent_and_records_each_run(tmp_path, monkeypatch):
    checkouts(tmp_path)
    monkeypatch.setattr(bench_compare, "run_workload", lambda checkout, *args: {
        "metrics": {"iter_per_s": {"value": 100.0}}, "attempted": 1, "failed": 0,
    })
    walls = iter([300.0, 200.0, 220.0, 340.0])
    order = []

    def run_tier1(checkout):
        order.append(Path(checkout).name)
        return {"wall_s": next(walls), "passed": 3, "failed": 0, "skipped": 1,
                "errors": 0, "exit_code": 0, "summary": "3 passed, 1 skipped"}

    monkeypatch.setattr(bench_compare, "run_tier1", run_tier1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [
        "bench_compare.py", "--parent", "parent", "--change", "change", "--pairs", "2",
        "--seed", "0", "--seconds", "1", "--pr", "t", "--tier1",
    ])
    assert bench_compare.main() == 0
    assert order == ["parent", "change", "change", "parent"]
    tier1 = json.loads((tmp_path / "BENCH_t.json").read_text())["tier1"]
    assert tier1["order"] == order
    assert [run["wall_s"] for run in tier1["parent"]["runs"]] == [300.0, 340.0]
    assert [run["wall_s"] for run in tier1["change"]["runs"]] == [200.0, 220.0]
    assert tier1["parent"]["mean_wall_s"] == 320.0
    assert tier1["change"]["mean_wall_s"] == 210.0
    assert all(run["passed"] == 3 for side in bench_compare.SIDES for run in tier1[side]["runs"])


FIXTURE_MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment keeps its line


class Shape:
    """A one-line class docstring."""

    sides = 4

    def area(self):
        """A function docstring
        over three lines.
        """
        text = """a string that is no docstring
        counts"""
        return text
'''


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path, monkeypatch, capsys):
    checkouts(tmp_path)
    for side, copies in (("parent", 2), ("change", 1)):
        package = tmp_path / side / "src" / "cgp_reorder"
        package.mkdir(parents=True)
        for k in range(copies):
            (package / f"m{k}.py").write_text(FIXTURE_MODULE)
    # import, class, sides, def, the two-line string and the return
    assert bench_compare.src_code_lines(str(tmp_path / "change")) == 7
    assert bench_compare.src_lines(str(tmp_path / "change")) == 19

    monkeypatch.setattr(bench_compare, "run_workload", lambda checkout, *args: {
        "metrics": {"iter_per_s": {"value": 100.0}}, "attempted": 1, "failed": 0,
    })
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [
        "bench_compare.py", "--parent", "parent", "--change", "change", "--pairs", "2",
        "--seed", "0", "--seconds", "1", "--pr", "t",
    ])
    assert bench_compare.main() == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["src_code_lines"] == {"parent": 14, "change": 7}
    assert report["src_lines"] == {"parent": 38, "change": 19}
    assert "src_code_lines: parent 14, change 7" in capsys.readouterr().out
