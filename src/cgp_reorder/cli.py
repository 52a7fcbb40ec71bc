"""Command-line harness: single-config batches, hyperparameter grids,
result analysis, and genome dumps.

Configs are flat ``key = value`` text files; command-line flags override
file values, and the effective configuration is echoed into every output
file.  Result records carry no timestamps (those live in run_meta.json), so
re-running a command with the same config and seeds reproduces the result
files byte for byte.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .analysis import (
    SummaryRow,
    active_distribution,
    convergence_mean,
    default_grid,
    summarize,
    write_convergence_csv,
    write_histogram_csv,
    write_summary_jsonl,
)
from .benchmarks import benchmark_kind, build_benchmark
from .errors import AggregationError, ConfigError, InvariantViolation
from .evolution import ConvergenceTrace, ESConfig, RunResult, run_es, run_rng
from .functions import PROTECTED_CONVENTIONS
from .genome import GraphParams, random_genome, to_flat_text
from .reorder import GATED_KINDS, REORDER_KINDS, ReorderStrategy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

# Boolean benchmarks nominally run on an unlimited budget; this safety cap
# marks a runaway run as non-converged instead of hanging forever.
DEFAULT_BOOLEAN_CAP = 10_000_000
DEFAULT_REGRESSION_BUDGET = 500_000
BOOLEAN_THRESHOLD = 1.0
REGRESSION_THRESHOLD = 0.01


@dataclass
class Settings:
    """Effective experiment configuration after merging file and flags."""

    benchmark: str = ""
    variant: str = "none"
    p_reorder: float | None = None
    nodes: int = 100
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    max_iterations: int | None = None
    threshold: float | None = None
    master_seed: int = 0
    dataset_seed: int = 1
    workers: int = 0
    trace_full: bool = False
    track_union_active: bool = False
    out: str | None = None
    dump_genomes: bool = False
    nodes_grid: list[int] | None = None
    p_grid: list[float] | None = None
    seeds_per_cell: int = 20


def parse_seed_spec(spec: str) -> list[int]:
    """`a..b` (inclusive), a comma list, or a single integer."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError(f"seed range {spec!r} is descending")
        return list(range(start, stop + 1))
    if "," in spec:
        return [int(part) for part in spec.split(",") if part.strip()]
    return [int(spec)]


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


def _parse_float_list(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part.strip()]


_CONFIG_PARSERS = {
    "benchmark": str,
    "variant": str,
    "p_reorder": float,
    "nodes": int,
    "seeds": parse_seed_spec,
    "max_iterations": int,
    "threshold": float,
    "master_seed": int,
    "dataset_seed": int,
    "workers": int,
    "trace_full": _parse_bool,
    "track_union_active": _parse_bool,
    "out": str,
    "dump_genomes": _parse_bool,
    "nodes_grid": _parse_int_list,
    "p_grid": _parse_float_list,
    "seeds_per_cell": int,
}


def parse_config_file(path: str) -> dict:
    """Parse a flat `key = value` config file with line-precise diagnostics."""
    values: dict = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected `key = value`, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    return values


def build_settings(args: argparse.Namespace) -> Settings:
    settings = Settings()
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            setattr(settings, key, value)
    overrides = {
        "benchmark": getattr(args, "bench", None),
        "variant": getattr(args, "variant", None),
        "p_reorder": getattr(args, "p_reorder", None),
        "nodes": getattr(args, "nodes", None),
        "max_iterations": getattr(args, "max_iterations", None),
        "threshold": getattr(args, "threshold", None),
        "master_seed": getattr(args, "master_seed", None),
        "dataset_seed": getattr(args, "dataset_seed", None),
        "workers": getattr(args, "workers", None),
        "out": getattr(args, "out", None),
        "seeds_per_cell": getattr(args, "seeds_per_cell", None),
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(settings, key, value)
    if getattr(args, "seeds", None) is not None:
        settings.seeds = parse_seed_spec(args.seeds)
    if getattr(args, "trace_full", False):
        settings.trace_full = True
    if getattr(args, "track_union_active", False):
        settings.track_union_active = True
    if getattr(args, "dump_genome", False):
        settings.dump_genomes = True
    if getattr(args, "nodes_grid", None) is not None:
        settings.nodes_grid = _parse_int_list(args.nodes_grid)
    if getattr(args, "p_grid", None) is not None:
        settings.p_grid = _parse_float_list(args.p_grid)
    return settings


def finalize(settings: Settings) -> Settings:
    """Fill benchmark-dependent defaults and validate the combination."""
    if not settings.benchmark:
        raise ConfigError("no benchmark given (config key `benchmark` or flag --bench)")
    kind = benchmark_kind(settings.benchmark)
    if settings.variant not in REORDER_KINDS:
        raise ConfigError(
            f"unknown variant {settings.variant!r}; expected one of {REORDER_KINDS}"
        )
    resolved = replace(settings)
    if resolved.p_reorder is None:
        resolved.p_reorder = 1.0
    if resolved.max_iterations is None:
        resolved.max_iterations = (
            DEFAULT_BOOLEAN_CAP if kind == "boolean" else DEFAULT_REGRESSION_BUDGET
        )
    if resolved.threshold is None:
        resolved.threshold = (
            BOOLEAN_THRESHOLD if kind == "boolean" else REGRESSION_THRESHOLD
        )
    if resolved.out is None:
        resolved.out = os.path.join("runs", f"{resolved.benchmark}_{resolved.variant}")
    if not resolved.seeds:
        raise ConfigError("empty seed list")
    # constructing the strategy validates variant/p_reorder compatibility
    ReorderStrategy(resolved.variant, resolved.p_reorder)
    return resolved


def effective_config(settings: Settings) -> dict:
    """The provenance block embedded into every output file."""
    kind = benchmark_kind(settings.benchmark)
    return {
        "benchmark": settings.benchmark,
        "variant": settings.variant,
        "p_reorder": settings.p_reorder,
        "nodes": settings.nodes,
        "arity": 2,
        "function_set": kind,
        "mu": 1,
        "lambda": 4,
        "max_iterations": settings.max_iterations,
        "convergence_threshold": settings.threshold,
        "master_seed": settings.master_seed,
        "dataset_seed": settings.dataset_seed,
        "reorder_placement": "parent_before_offspring",
        "protected_pdiv": PROTECTED_CONVENTIONS["pdiv"],
        "protected_ln": PROTECTED_CONVENTIONS["ln"],
        "protected_exp": PROTECTED_CONVENTIONS["exp"],
    }


# ---------------------------------------------------------------------------
# batch execution

_WORKER_STATE: dict = {}


def _dataset_rng(dataset_seed: int, name: str) -> np.random.Generator:
    import zlib

    return np.random.default_rng(
        np.random.SeedSequence((dataset_seed, zlib.crc32(name.encode())))
    )


def _build_bench(settings: Settings, cache_dir: str | None):
    return build_benchmark(
        settings.benchmark,
        dataset_rng=_dataset_rng(settings.dataset_seed, settings.benchmark),
        cache_dir=cache_dir,
        cache_key=f"{settings.benchmark}_s{settings.dataset_seed}",
    )


def _init_worker(payload: dict) -> None:
    settings = Settings(**payload["settings"])
    _WORKER_STATE["bench"] = _build_bench(settings, payload["cache_dir"])
    _WORKER_STATE["settings"] = settings


def _run_seed(seed: int) -> RunResult:
    settings: Settings = _WORKER_STATE["settings"]
    config = ESConfig(
        num_computational=settings.nodes,
        strategy=ReorderStrategy(settings.variant, settings.p_reorder),
        max_iterations=settings.max_iterations,
        convergence_threshold=settings.threshold,
        seed=seed,
        master_seed=settings.master_seed,
        trace_full=settings.trace_full,
        track_union_active=settings.track_union_active,
    )
    return run_es(config, _WORKER_STATE["bench"], run_rng(settings.master_seed, seed))


def effective_workers(settings: Settings) -> int:
    """Worker processes a batch runs on: the requested count (0 means one
    per CPU), but never more than there are seeds."""
    workers = settings.workers if settings.workers > 0 else (os.cpu_count() or 1)
    return min(workers, len(settings.seeds))


def execute_batch(settings: Settings, cache_dir: str | None = None) -> list[RunResult]:
    """Run every seed of a finalized settings object, in parallel when asked."""
    if cache_dir is not None:
        # materialize any dataset cache before workers start reading it
        _build_bench(settings, cache_dir)
    payload = {"settings": settings.__dict__.copy(), "cache_dir": cache_dir}
    workers = effective_workers(settings)
    if workers <= 1:
        _init_worker(payload)
        results = [_run_seed(seed) for seed in settings.seeds]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            results = list(pool.map(_run_seed, settings.seeds))
    return sorted(results, key=lambda r: r.seed)


# ---------------------------------------------------------------------------
# result files

def result_record(result: RunResult, config: dict) -> dict:
    return {
        "seed": result.seed,
        "converged": result.converged,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "final_train_fitness": result.final_train_fitness,
        "final_test_fitness": result.final_test_fitness,
        "active_count": result.active_count,
        "active_bitmap": result.active_bitmap,
        "union_active_bitmap": result.union_active_bitmap,
        "config": config,
    }


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a sibling temporary file, then move it over ``path``,
    so a killed run leaves either the old file or the new one, never a
    truncated one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_results_jsonl(path: str, results: list[RunResult], config: dict) -> None:
    write_atomic(
        path,
        "".join(
            json.dumps(result_record(result, config), sort_keys=True) + "\n"
            for result in results
        ),
    )


def write_trace_csv(path: str, trace: ConvergenceTrace, config: dict) -> None:
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    lines.append("iteration,best_fitness")
    for iteration, fitness in trace.samples:
        lines.append(f"{iteration},{fitness!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def read_trace_csv(path: str) -> ConvergenceTrace:
    trace = ConvergenceTrace()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("iteration"):
                continue
            iteration, fitness = line.split(",")
            trace.record(int(iteration), float(fitness))
    return trace


def record_to_result(record: dict, trace: ConvergenceTrace | None = None) -> RunResult:
    return RunResult(
        seed=record["seed"],
        converged=record["converged"],
        iterations=record["iterations"],
        evaluations=record["evaluations"],
        final_train_fitness=record["final_train_fitness"],
        final_test_fitness=record["final_test_fitness"],
        active_count=record["active_count"],
        active_bitmap=record["active_bitmap"],
        trace=trace or ConvergenceTrace(),
        union_active_bitmap=record.get("union_active_bitmap"),
    )


def _write_run_outputs(outdir: str, settings: Settings, results: list[RunResult]) -> SummaryRow:
    config = effective_config(settings)
    os.makedirs(outdir, exist_ok=True)
    write_results_jsonl(os.path.join(outdir, "results.jsonl"), results, config)
    traces_dir = os.path.join(outdir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    for result in results:
        write_trace_csv(
            os.path.join(traces_dir, f"trace_seed{result.seed}.csv"),
            result.trace,
            config,
        )
    if settings.dump_genomes:
        genomes_dir = os.path.join(outdir, "genomes")
        os.makedirs(genomes_dir, exist_ok=True)
        for result in results:
            if result.final_genome is not None:
                write_atomic(
                    os.path.join(genomes_dir, f"genome_seed{result.seed}.txt"),
                    to_flat_text(result.final_genome),
                )
    return summarize(
        results,
        settings.variant,
        settings.benchmark,
        settings.nodes,
        settings.p_reorder,
        config,
    )


def _write_meta(outdir: str, started: float, workers: int) -> None:
    meta = {
        "started_unix": started,
        "finished_unix": time.time(),
        "duration_s": time.time() - started,
        "workers": workers,
        "version": __version__,
    }
    write_atomic(
        os.path.join(outdir, "run_meta.json"),
        json.dumps(meta, indent=2, sort_keys=True) + "\n",
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args: argparse.Namespace) -> int:
    settings = finalize(build_settings(args))
    started = time.time()
    cache_dir = os.path.join(settings.out, "datasets")
    results = execute_batch(settings, cache_dir)
    summary = _write_run_outputs(settings.out, settings, results)
    _write_meta(settings.out, started, effective_workers(settings))
    print(summary.format_line())
    return EXIT_OK


def _grid_cells(settings: Settings) -> list[tuple[int, float]]:
    nodes_axis = settings.nodes_grid or [settings.nodes]
    if settings.variant in GATED_KINDS:
        p_axis = settings.p_grid or [settings.p_reorder]
    else:
        p_axis = settings.p_grid or [1.0]
        if any(p != 1.0 for p in p_axis):
            raise ConfigError(
                f"variant {settings.variant!r} takes no p_reorder axis; "
                "only gated variants (negbias, leftskew) do"
            )
    return [(n, p) for n in nodes_axis for p in p_axis]


def _format_p(p: float) -> str:
    return f"{p:g}".replace(".", "_")


def cmd_grid(args: argparse.Namespace) -> int:
    settings = finalize(build_settings(args))
    cells = _grid_cells(settings)
    cell_seeds = list(range(settings.seeds_per_cell))
    started = time.time()
    rows = []
    for nodes, p in cells:
        cell = replace(settings, nodes=nodes, p_reorder=p, seeds=cell_seeds)
        cell_dir = os.path.join(settings.out, "cells", f"N{nodes}_p{_format_p(p)}")
        marker = os.path.join(cell_dir, "cell.done")
        if os.path.exists(marker):
            records = _load_records(os.path.join(cell_dir, "results.jsonl"))
            results = [record_to_result(rec) for rec in records]
        else:
            results = execute_batch(cell, os.path.join(settings.out, "datasets"))
            _write_run_outputs(cell_dir, cell, results)
            with open(marker, "w") as fh:
                fh.write("complete\n")
        rows.append(
            summarize(
                results, cell.variant, cell.benchmark, nodes, p, effective_config(cell)
            )
        )

    kind = benchmark_kind(settings.benchmark)
    if kind == "boolean":
        rows.sort(key=lambda row: row.mean_iterations)
    else:
        rows.sort(
            key=lambda row: (
                row.mean_test_fitness
                if row.mean_test_fitness is not None
                else row.mean_train_fitness
            )
        )
    os.makedirs(settings.out, exist_ok=True)
    write_summary_jsonl(os.path.join(settings.out, "grid_summary.jsonl"), rows)
    workers = effective_workers(replace(settings, seeds=cell_seeds))
    _write_meta(settings.out, started, workers)
    for row in rows:
        print(row.format_line())
    return EXIT_OK


def _load_records(path: str) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def cmd_analyze(args: argparse.Namespace) -> int:
    results_dir = args.results_dir
    out_dir = args.out or os.path.join(results_dir, "analysis")
    jsonl_files = sorted(
        glob.glob(os.path.join(results_dir, "**", "results.jsonl"), recursive=True)
    )
    if not jsonl_files:
        raise ConfigError(f"no results.jsonl files under {results_dir!r}")

    groups: dict[tuple, dict] = {}
    for path in jsonl_files:
        for record in _load_records(path):
            cfg = record["config"]
            key = (cfg["benchmark"], cfg["variant"], cfg["nodes"], cfg["p_reorder"])
            group = groups.setdefault(key, {"records": [], "config": cfg})
            group["records"].append((record, path))

    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for key in sorted(groups):
        group = groups[key]
        results = []
        for record, path in group["records"]:
            trace_path = os.path.join(
                os.path.dirname(path), "traces", f"trace_seed{record['seed']}.csv"
            )
            trace = read_trace_csv(trace_path) if os.path.exists(trace_path) else None
            result = record_to_result(record, trace)
            if getattr(args, "use_union_bitmap", False):
                if result.union_active_bitmap is None:
                    raise AggregationError(
                        f"{path}: seed {record['seed']} has no union bitmap; "
                        "re-run with --track-union-active"
                    )
                result.active_bitmap = result.union_active_bitmap
            results.append(result)

        benchmark, variant, nodes, p = key
        tag = f"{benchmark}_{variant}_N{nodes}_p{_format_p(p)}"
        config = group["config"]
        hist = active_distribution(results)
        write_histogram_csv(os.path.join(out_dir, f"histogram_{tag}.csv"), hist, config)
        traces = [r.trace for r in results if r.trace.samples]
        if traces:
            curve = convergence_mean(traces, default_grid(traces))
            write_convergence_csv(
                os.path.join(out_dir, f"convergence_{tag}.csv"), curve, config
            )
        rows.append(
            summarize(results, variant, benchmark, nodes, p, config)
        )

    write_summary_jsonl(os.path.join(out_dir, "summary.jsonl"), rows)
    for row in rows:
        print(row.format_line())
    return EXIT_OK


def cmd_dump_genome(args: argparse.Namespace) -> int:
    if args.bench:
        bench = build_benchmark(
            args.bench, dataset_rng=_dataset_rng(args.dataset_seed, args.bench)
        )
        params = GraphParams(
            num_inputs=bench.num_inputs,
            num_outputs=bench.num_outputs,
            num_computational=args.nodes,
            function_set=bench.function_set,
        )
    else:
        if args.inputs is None or args.outputs is None:
            raise ConfigError("dump-genome needs --bench or both --inputs and --outputs")
        params = GraphParams(
            num_inputs=args.inputs,
            num_outputs=args.outputs,
            num_computational=args.nodes,
            function_set=args.function_set,
        )
    genome = random_genome(params, np.random.default_rng(args.seed))
    sys.stdout.write(to_flat_text(genome))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--bench", help="benchmark name")
    parser.add_argument("--variant", help="reorder variant", choices=REORDER_KINDS)
    parser.add_argument("--nodes", type=int, help="computational node count")
    parser.add_argument("--p-reorder", dest="p_reorder", type=float)
    parser.add_argument("--max-iterations", dest="max_iterations", type=int)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--master-seed", dest="master_seed", type=int)
    parser.add_argument("--dataset-seed", dest="dataset_seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgp-reorder",
        description="CGP with genotype reordering: experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one benchmark/variant over a seed batch")
    _add_common_run_flags(p_run)
    p_run.add_argument("--seeds", help="seed spec: a..b, comma list, or single int")
    p_run.add_argument("--trace-full", dest="trace_full", action="store_true")
    p_run.add_argument(
        "--track-union-active",
        dest="track_union_active",
        action="store_true",
        help="also record which positions were active at any point of the run",
    )
    p_run.add_argument(
        "--dump-genome",
        dest="dump_genome",
        action="store_true",
        help="write each final genome in flat form",
    )
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="sweep (nodes, p_reorder) cells")
    _add_common_run_flags(p_grid)
    p_grid.add_argument("--nodes-grid", dest="nodes_grid", help="comma list of node counts")
    p_grid.add_argument("--p-grid", dest="p_grid", help="comma list of probabilities")
    p_grid.add_argument("--seeds-per-cell", dest="seeds_per_cell", type=int)
    p_grid.set_defaults(func=cmd_grid)

    p_analyze = sub.add_parser("analyze", help="aggregate result directories")
    p_analyze.add_argument("results_dir")
    p_analyze.add_argument("--out", help="analysis output directory")
    p_analyze.add_argument(
        "--use-union-bitmap",
        dest="use_union_bitmap",
        action="store_true",
        help="build histograms from across-training activity instead of final solutions",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_dump = sub.add_parser("dump-genome", help="print a random genome in flat form")
    p_dump.add_argument("--bench", help="take the shape from a benchmark")
    p_dump.add_argument("--inputs", type=int)
    p_dump.add_argument("--outputs", type=int)
    p_dump.add_argument("--function-set", dest="function_set", default="boolean")
    p_dump.add_argument("--nodes", type=int, default=10)
    p_dump.add_argument("--seed", type=int, default=0)
    p_dump.add_argument("--dataset-seed", dest="dataset_seed", type=int, default=1)
    p_dump.set_defaults(func=cmd_dump_genome)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AggregationError as exc:
        print(f"aggregation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
