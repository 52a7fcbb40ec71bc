"""End-to-end and per-layer benchmark of the (1+4)-ES.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Each round runs the workload's `cgp-reorder run` command once in a fresh
process (one worker), and the output checker then holds the round's results
against the reference interpreter.  Rounds repeat, whole, until ``--seconds``
have passed; every round's output must be byte-identical to the first's.

``--trace 0`` prints the end-to-end metrics: medians over the rounds, with
run and ES times scaled to reference speed (see calibration.py).
``--trace 1`` alternates untraced and traced rounds, checks phenotype
preservation on every reorder that fires, runs the layer microbenchmarks
once, and prints the per-layer metrics.  ``--seed`` seeds the random
genomes of the microbenchmarks; the ES seed list is part of the workload
(see workloads.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import reference
from workloads import WORKLOADS

ROUND_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "round.py")
SOURCE = os.path.join("src", "cgp_reorder")
SCRATCH = os.path.join("runs", "perfbench")
ROUND_TIMEOUT_S = 120
# no round starts later than this, so a run ends well within three minutes
LAST_START_S = 100
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_wall_s": "s",
    "iter_per_s": "iter/s",
    "peak_rss_mib": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if ".us_" in name:
        return "us"
    if name.endswith("share"):
        return "share"
    if name.endswith("calls_per_iter"):
        return "calls/iter"
    if name == "genome.active_count.mean":
        return "nodes"
    return "genes"


def run_round(workload: str, out_dir: str, mode: str, seed: int) -> dict | None:
    """Figures of one round, or None when the round's process failed."""
    spec = json.dumps({"workload": workload, "out": out_dir, "mode": mode, "seed": seed})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    # the package makes no BLAS call; a BLAS thread pool only adds its start-up
    # (about 70 ms, and the noisiest part of set-up) and a second thread
    env["OPENBLAS_NUM_THREADS"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, ROUND_SCRIPT, spec],
            capture_output=True,
            text=True,
            env=env,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} round timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    figures = json.loads(lines[-1])
    if figures.get("status", 0) != 0:
        sys.stderr.write(proc.stderr)
        return None
    return figures


class Tally:
    """Checks attempted and failed over one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self.first_digests: dict[str, str] | None = None

    def check_outputs(self, round_dir: str, workload, problem, label: str) -> None:
        run_dir = os.path.join(round_dir, "run")
        attempted, failed = check.check_run(run_dir, workload, problem)
        self.attempted += attempted
        self.failed += [f"{label}:{name}" for name in failed]
        digests = check.output_digests(run_dir)
        if self.first_digests is None:
            self.first_digests = digests
        else:
            self.attempted += 1
            if digests != self.first_digests:
                self.failed.append(f"{label}:identical_to_first_round")

    def round_failed(self, workload, label: str) -> None:
        count = len(workload.es_seeds) * len(check.CHECKS) + 1
        self.attempted += count
        self.failed += [f"{label}:round_process"] * count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"no {SOURCE}/ here: run from the root of a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    problem = reference.make_problem(workload.bench)
    scratch = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    tally = Tally()
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    try:
        index = 0
        while index < MIN_ROUNDS or (
            time.perf_counter() - started < min(args.seconds, LAST_START_S)
        ):
            modes = ("run", "trace") if args.trace else ("run",)
            for mode in modes:
                label = f"{mode}{index}"
                round_dir = os.path.join(scratch, label)
                figures = run_round(args.workload, round_dir, mode, args.seed)
                if figures is None:
                    tally.round_failed(workload, label)
                    continue
                factor = figures.get("speed_factor")
                print(
                    f"{label}: setup {figures['setup_s']:.3f} s, "
                    f"run {figures['run_wall_s']:.3f} s"
                    + (f", speed factor {factor:.3f}" if factor else ""),
                    file=sys.stderr,
                )
                tally.check_outputs(round_dir, workload, problem, label)
                if mode == "trace":
                    tally.attempted += figures["phenotype_checks"]
                    tally.failed += [f"{label}:reorder_phenotype"] * figures[
                        "phenotype_mismatches"
                    ]
                    traced.append(figures)
                else:
                    plain.append(figures)
                shutil.rmtree(round_dir, ignore_errors=True)
            index += 1
        micro = None
        if args.trace:
            micro = run_round(args.workload, os.path.join(scratch, "micro"), "micro", args.seed)
            tally.attempted += 1
            if micro is None:
                tally.failed.append("micro:round_process")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another run still uses it, or it never existed
            pass

    for name in tally.failed[:20]:
        print(f"failed check: {name}", file=sys.stderr)
    if not plain or (args.trace and (not traced or micro is None)):
        print("no round completed; nothing was measured", file=sys.stderr)
        return 1

    # run and ES times at reference speed (calibration.py); set-up time is
    # raw, since the import did not follow the slices' speed
    run_wall = statistics.median(r["run_wall_s"] * r["speed_factor"] for r in plain)
    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values.update(micro["layers"])
        traced_wall = statistics.median(
            (r["run_wall_s"] - r["check_s"]) * r["speed_factor"] for r in traced
        )
        values["trace.overhead_share"] = traced_wall / run_wall - 1.0
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(values.items())
        }
    else:
        iterations = workload.iterations * len(workload.es_seeds)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "run_wall_s": run_wall,
            "iter_per_s": statistics.median(
                iterations / (r["es_s"] * r["speed_factor"]) for r in plain
            ),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    print(
        json.dumps(
            {
                "correct": not tally.failed,
                "attempted": tally.attempted,
                "failed": len(tally.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
