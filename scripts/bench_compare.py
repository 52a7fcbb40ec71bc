#!/usr/bin/env python3
"""Compare two checkouts on every benchmark workload, in alternating pairs.

    python3 scripts/bench_compare.py --parent DIR --change DIR --pairs N \\
        --seed K --seconds S --pr P [--tier1] [--claim WORKLOAD:METRIC]

Each pair runs `perfbench/run.py --trace 0` once per workload in each
checkout, one right after the other, and the side that runs first
alternates from pair to pair, so that a drift in machine speed falls on
both sides alike.  The workloads are those the change's `BENCHMARK.json`
lists.  For every workload and end-to-end metric it prints each side's
median and quartiles, the ratio of the medians, how many pairs the
change won (by the metric's `better` direction; ties count for neither)
and a verdict against the metric's `bound` (see `verdict`), and writes all
of it, with every run's figures, the failed-check counts and each
checkout's `src/cgp_reorder` line and code-line counts (see
`src_code_lines`), to `BENCH_<P>.json` in the current directory.  With
`--tier1`, after the pairs it runs the tier-1 test command four times, in
the order parent, change, change, parent, so that a drift in machine speed
that runs one way over the four runs falls on both sides alike, and
records under `tier1` each run's wall seconds and passed, failed and
skipped counts, and each side's mean wall seconds.  With
`--claim`, it judges the gain a change claims on one workload's metric (see
`judge_claim`) and writes the judgement under `claim`.  It exits with 1,
after writing the file, when any run reported failed checks, any verdict is
`worse` or the claim is not met (see `exit_status`), so that it can gate a
change.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
# perfbench/run.py starts no round after 100 s and gives a round 120 s
RUN_TIMEOUT_S = 600
# the tier-1 suite, as ROADMAP.md gives it, run from a checkout's root
TIER1_COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_TIMEOUT_S = 3 * 3600
TIER1_OUTCOMES = ("passed", "failed", "skipped", "errors")
TIER1_ORDER = ("parent", "change", "change", "parent")


def src_lines(checkout: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "cgp_reorder", "*.py")):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


def src_code_lines(checkout: str) -> int:
    """Lines of `src/cgp_reorder` that are not blank, not a `#` line and not
    inside a module, class or function docstring."""
    docstring_owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "cgp_reorder", "*.py")):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        prose = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, docstring_owners) and ast.get_docstring(node) is not None:
                prose.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += sum(
            1
            for number, line in enumerate(text.splitlines(), 1)
            if line.strip() and not line.lstrip().startswith("#") and number not in prose
        )
    return total


def run_workload(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run: its JSON result."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} in {checkout} exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def run_tier1(checkout: str) -> dict:
    """Wall seconds and outcome counts of one tier-1 run in ``checkout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *TIER1_COMMAND],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIER1_TIMEOUT_S,
    )
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {outcome: 0 for outcome in TIER1_OUTCOMES}
    for number, outcome in re.findall(r"(\d+) (passed|failed|skipped|errors?)\b", summary):
        counts["errors" if outcome.startswith("error") else outcome] += int(number)
    return {"wall_s": wall, **counts, "exit_code": proc.returncode, "summary": summary}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(spec: dict, parent: dict, change: dict) -> str:
    """``unresolved`` when the parent's quartile spread is wider than the
    metric's bound, else ``worse`` when the change's median is worse than
    the parent's by more than the bound, else ``ok``.  The bound is a
    fraction of the parent's median."""
    allowed = spec["bound"] * parent["median"]
    if parent["q3"] - parent["q1"] > allowed:
        return "unresolved"
    loss = change["median"] - parent["median"]
    if spec["better"] == "higher":
        loss = -loss
    return "worse" if loss > allowed else "ok"


def parse_claim(spec: str, workloads: list[str], metrics: dict) -> tuple[str, str]:
    """``WORKLOAD:METRIC`` as a pair, checked against the declared names."""
    workload, _, metric = spec.partition(":")
    if workload not in workloads or metric not in metrics:
        raise ValueError(
            f"--claim {spec!r}: expected WORKLOAD:METRIC with a workload of "
            f"{workloads} and a metric of {sorted(metrics)}"
        )
    return workload, metric


def judge_claim(figures: dict, pairs: int) -> dict:
    """Whether a change may claim a gain on one metric of one workload.

    ``figures`` is that metric's entry in the report.  The claim is met
    when the change won at least nine tenths of the pairs run (ties count
    for neither), and its median beats the parent's, in the metric's
    ``better`` direction, by more than the parent's quartile spread.
    """
    parent, change = figures["parent"], figures["change"]
    gain = change["median"] - parent["median"]
    if figures["better"] == "lower":
        gain = -gain
    spread = parent["q3"] - parent["q1"]
    wins = figures["change_wins"]
    return {
        "change_wins": wins,
        "pairs": pairs,
        "gain": gain,
        "parent_spread": spread,
        "met": 10 * wins >= 9 * pairs and gain > spread,
    }


def exit_status(report: dict) -> int:
    """1 when a run on either side reported failed checks, when a metric's
    verdict on any workload is ``worse``, or when the report holds a claim
    that is not met; else 0."""
    if "claim" in report and not report["claim"]["met"]:
        return 1
    for entry in report["workloads"].values():
        if any(entry["failed"].values()):
            return 1
        if any(figures.get("verdict") == "worse" for figures in entry.values()):
            return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument(
        "--tier1", action="store_true", help="also time the tier-1 tests in each checkout"
    )
    parser.add_argument(
        "--claim", metavar="WORKLOAD:METRIC", help="judge the gain claimed on this metric"
    )
    args = parser.parse_args()
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    if args.claim:
        try:
            claimed = parse_claim(args.claim, workloads, metrics)
        except ValueError as exc:
            parser.error(str(exc))

    # runs[workload][side] is a list of run results, one per pair
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_workload(checkouts[side], workload, args.seed, args.seconds)
                runs[workload][side].append(result)
                print(
                    f"pair {pair} {workload} {side}: "
                    + ", ".join(
                        f"{name} {entry['value']:.4g}"
                        for name, entry in result["metrics"].items()
                    )
                    + f", failed {result['failed']}",
                    file=sys.stderr,
                )

    report = {
        "pr": args.pr,
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "src_lines": {side: src_lines(checkouts[side]) for side in SIDES},
        "src_code_lines": {side: src_code_lines(checkouts[side]) for side in SIDES},
        "workloads": {},
    }
    for workload in workloads:
        entry = {
            key: {side: sum(r[key] for r in runs[workload][side]) for side in SIDES}
            for key in ("attempted", "failed")
        }
        for name, spec in metrics.items():
            values = {
                side: [r["metrics"][name]["value"] for r in runs[workload][side]]
                for side in SIDES
            }
            higher = spec["better"] == "higher"
            wins = sum(
                (c > p) if higher else (c < p)
                for p, c in zip(values["parent"], values["change"])
            )
            figures = {side: spread(values[side]) for side in SIDES}
            ratio = figures["change"]["median"] / figures["parent"]["median"]
            entry[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                **figures,
                "ratio": ratio,
                "change_wins": wins,
                "verdict": verdict(spec, figures["parent"], figures["change"]),
            }
            print(
                f"{workload:26} {name:13} parent {figures['parent']['median']:10.4g} "
                f"[{figures['parent']['q1']:.4g}, {figures['parent']['q3']:.4g}]  "
                f"change {figures['change']['median']:10.4g} "
                f"[{figures['change']['q1']:.4g}, {figures['change']['q3']:.4g}]  "
                f"x{ratio:.3f}  wins {wins}/{args.pairs}  {entry[name]['verdict']}"
            )
        report["workloads"][workload] = entry
        print(f"{workload:26} failed checks: parent {entry['failed']['parent']}, "
              f"change {entry['failed']['change']}")
    for key in ("src_lines", "src_code_lines"):
        print(f"{key}: parent {report[key]['parent']}, change {report[key]['change']}")

    if args.claim:
        workload, name = claimed
        claim = report["claim"] = {
            "workload": workload,
            "metric": name,
            **judge_claim(report["workloads"][workload][name], args.pairs),
        }
        print(f"claim {args.claim}: {'met' if claim['met'] else 'NOT met'} "
              f"(wins {claim['change_wins']}/{args.pairs}, gain {claim['gain']:.4g} "
              f"against the parent's quartile spread {claim['parent_spread']:.4g})")

    if args.tier1:
        tier1 = report["tier1"] = {
            "order": list(TIER1_ORDER), **{side: {"runs": []} for side in SIDES}
        }
        for side in TIER1_ORDER:
            result = run_tier1(checkouts[side])
            tier1[side]["runs"].append(result)
            print(f"tier-1 {side}: {result['wall_s']:.0f} s, {result['summary']}")
        for side in SIDES:
            mean = tier1[side]["mean_wall_s"] = statistics.fmean(
                run["wall_s"] for run in tier1[side]["runs"]
            )
            print(f"tier-1 {side}: mean {mean:.0f} s")

    out = f"BENCH_{args.pr}.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}")
    status = exit_status(report)
    if status:
        print("gate failed: a run reported failed checks, a metric is worse "
              "or the claim is not met")
    return status


if __name__ == "__main__":
    sys.exit(main())
