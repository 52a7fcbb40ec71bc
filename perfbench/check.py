"""Checks one `cgp-reorder run` output directory against the reference
interpreter and the properties the (1+4)-ES must have.

Every check is one operation of the benchmark; a failed check is a failed
operation.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import os

import reference
from workloads import OFFSPRING_PER_ITERATION, Workload

# checks made on every seed's record, in this order
CHECKS = (
    "config",  # the echoed config is the workload's, with the reference's conventions
    "budget",  # ran the whole budget and did not converge
    "evaluations",  # four evaluations per iteration
    "active_count",  # active_count is the bitmap's popcount
    "structure",  # the dumped genome parses and is feed-forward
    "active_bitmap",  # the bitmap equals the reference reachability walk
    "fitness",  # final_train_fitness equals the reference fitness
    "trace",  # monotone under elitism, from iteration 0 to the final fitness
)


def _read_trace(path: str) -> list[tuple[int, float]]:
    samples = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and not line.startswith("iteration"):
                iteration, fitness = line.split(",")
                samples.append((int(iteration), float(fitness)))
    return samples


def _trace_ok(samples, budget: int, final: float, maximize: bool) -> bool:
    if not samples or samples[0][0] != 0 or samples[-1] != (budget, final):
        return False
    for (i0, f0), (i1, f1) in zip(samples, samples[1:]):
        if i1 <= i0 or (f1 < f0 if maximize else f1 > f0):
            return False
    return True


def _config_ok(config: dict, workload: Workload) -> bool:
    expected = {
        "benchmark": workload.bench,
        "variant": workload.variant,
        "p_reorder": workload.p_reorder,
        "nodes": workload.nodes,
        "max_iterations": workload.iterations,
        "convergence_threshold": workload.threshold,
        **reference.PROTECTED_CONVENTIONS,
    }
    return all(config.get(key) == value for key, value in expected.items())


def _record_checks(out_dir: str, record: dict, workload: Workload, problem) -> dict:
    seed = record["seed"]
    results = {
        "config": _config_ok(record["config"], workload),
        "budget": record["iterations"] == workload.iterations and not record["converged"],
        "evaluations": record["evaluations"] == OFFSPRING_PER_ITERATION * record["iterations"],
        "active_count": record["active_count"] == record["active_bitmap"].count("1"),
    }
    try:
        with open(os.path.join(out_dir, "genomes", f"genome_seed{seed}.txt")) as fh:
            genome = reference.parse_flat(fh.read())
    except (OSError, ValueError, KeyError):
        genome = None
    results["structure"] = genome is not None and not reference.structure_problems(genome)
    if results["structure"]:
        active = reference.active_bitmap(genome)
        bitmap = "".join("1" if a else "0" for a in active)
        results["active_bitmap"] = bitmap == record["active_bitmap"]
        results["fitness"] = problem.agrees(
            problem.fitness(genome, active), record["final_train_fitness"]
        )
    else:
        results["active_bitmap"] = results["fitness"] = False
    try:
        samples = _read_trace(os.path.join(out_dir, "traces", f"trace_seed{seed}.csv"))
    except (OSError, ValueError):
        samples = []
    results["trace"] = _trace_ok(
        samples, workload.iterations, record["final_train_fitness"], problem.maximize
    )
    return results


def check_run(out_dir: str, workload: Workload, problem) -> tuple[int, list[str]]:
    """(checks attempted, names of the failed ones) for one run directory."""
    records = {}
    try:
        with open(os.path.join(out_dir, "results.jsonl")) as fh:
            for line in fh:
                if line.strip():
                    record = json.loads(line)
                    records[record["seed"]] = record
    except (OSError, ValueError):
        pass
    failed = []
    for seed in workload.es_seeds:
        if seed not in records:
            failed += [f"seed{seed}:{name}" for name in CHECKS]
            continue
        outcome = _record_checks(out_dir, records[seed], workload, problem)
        failed += [f"seed{seed}:{name}" for name in CHECKS if not outcome[name]]
    return len(workload.es_seeds) * len(CHECKS), failed


def output_digests(out_dir: str) -> dict[str, str]:
    """sha256 of results.jsonl, every trace and every dumped genome."""
    digests = {}
    for sub in ("", "traces", "genomes"):
        folder = os.path.join(out_dir, sub)
        if not os.path.isdir(folder):
            continue
        for name in sorted(os.listdir(folder)):
            if sub or name == "results.jsonl":
                with open(os.path.join(folder, name), "rb") as fh:
                    digests[os.path.join(sub, name)] = hashlib.sha256(fh.read()).hexdigest()
    return digests
