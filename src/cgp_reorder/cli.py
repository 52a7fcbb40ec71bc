"""Command-line harness: seed batches, hyperparameter grids, result
analysis, and genome dumps.

Configs are flat ``key = value`` text files; command-line flags override
file values, and the effective configuration is echoed into every output
file.  Result records carry no timestamps (those live in run_meta.json), so
re-running a command with the same config and seeds reproduces the result
files byte for byte.  The budget and threshold a config leaves unset are
the defaults of its benchmark's class (`benchmarks.benchmark_kind`).
`run` and `grid` share one batch path, `run_batch`: `run` is its one-cell
case.  Each seed's outputs are written as it finishes, and a rerun under
the echo in a cell's batch.json reads its recorded seeds back and runs only
the rest.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .analysis import (
    active_distribution,
    convergence_mean,
    default_grid,
    summarize,
    write_csv,
    write_summary_jsonl,
)
from .benchmarks import (
    RegressionBenchmark, benchmark_kind, build_benchmark, graph_params, write_atomic, write_dataset
)
from .errors import AggregationError, ConfigError, InvariantViolation
from .evolution import OFFSPRING_PER_ITERATION, RunResult, run_es
from .functions import PROTECTED_CONVENTIONS
from .genome import ARITY, random_genome, to_flat_text
from .reorder import GATED_KINDS, REORDER_KINDS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def parse_seed_spec(spec: str) -> list[int]:
    """`a..b` (inclusive), a comma list, or a single integer."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError(f"seed range {spec!r} is descending")
        return list(range(start, stop + 1))
    return _parse_int_list(spec)


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


RUN, GRID, BOTH = ("run",), ("grid",), ("run", "grid")


def _setting(default, parse, commands, help_text, flag=None):
    """A `Settings` field that is also a config key of the same name and a
    ``--flag`` of the given subcommands (spelled from ``flag`` when given,
    else from the field name), both read through ``parse``."""
    metadata = {"parse": parse, "commands": commands, "help": help_text, "flag": flag}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class Settings:
    """Effective experiment configuration after merging file and flags.

    Every run/grid setting is declared here once: the config file, the
    argument parser and `build_settings` are all derived from these fields.
    """

    benchmark: str = _setting("", str, BOTH, "benchmark name", flag="bench")
    variant: str = _setting(
        "none", str, BOTH, f"reorder variant: one of {', '.join(REORDER_KINDS)}"
    )
    nodes: int = _setting(100, int, BOTH, "computational node count")
    p_reorder: float = _setting(1.0, float, BOTH, "gate probability of negbias and leftskew")
    max_iterations: int | None = _setting(
        None, int, BOTH, "iteration budget per seed (default per benchmark kind)"
    )
    threshold: float | None = _setting(
        None, float, BOTH, "convergence threshold (default per benchmark kind)"
    )
    master_seed: int = _setting(0, int, BOTH, "seed mixed into every run's stream")
    dataset_seed: int = _setting(1, int, BOTH, "seed of sampled regression datasets")
    workers: int = _setting(0, int, BOTH, "worker processes (0: one per CPU)")
    out: str | None = _setting(None, str, BOTH, "output directory")
    seeds: list[int] = _setting(
        list(range(10)), parse_seed_spec, RUN, "seed spec: a..b, comma list, or single int"
    )
    trace_full: bool = _setting(
        False, _parse_bool, RUN, "record the best fitness at every iteration"
    )
    track_union_active: bool = _setting(
        False, _parse_bool, RUN, "also record which positions were active at any point"
    )
    dump_genomes: bool = _setting(
        False, _parse_bool, RUN, "write each final genome in flat form", flag="dump_genome"
    )
    nodes_grid: list[int] | None = _setting(
        None, _parse_int_list, GRID, "comma list of node counts"
    )
    p_grid: list[float] | None = _setting(
        None, _parse_float_list, GRID, "comma list of probabilities"
    )
    seeds_per_cell: int = _setting(20, int, GRID, "seeds run in every grid cell")


SETTINGS = {f.name: f for f in fields(Settings)}


def _flag(setting) -> str:
    return "--" + (setting.metadata["flag"] or setting.name).replace("_", "-")


def _parse_setting(setting, raw: str, where: str):
    try:
        return setting.metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
            if key not in SETTINGS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _parse_setting(
                SETTINGS[key], value, f"{path}:{line_no}: bad value for {key}"
            )
    return values


def build_settings(args: argparse.Namespace) -> Settings:
    """Defaults, then the config file, then the flags given on the command
    line; a flag's string is read by the same parser as its config key."""
    settings = Settings()
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            setattr(settings, key, value)
    for name, setting in SETTINGS.items():
        raw = getattr(args, name, None)
        if raw is not None:
            setattr(settings, name, _parse_setting(setting, raw, _flag(setting)))
    return settings


def _check_non_negative(**values: int) -> None:
    """Seeds and worker counts below 0 are configuration errors, not values
    numpy would reject deep in a run or ``workers`` would read as 0."""
    for name, value in values.items():
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")


def finalize(settings: Settings) -> Settings:
    """Fill benchmark-dependent defaults and validate the combination."""
    if not settings.benchmark:
        raise ConfigError("no benchmark given (config key `benchmark` or flag --bench)")
    kind = benchmark_kind(settings.benchmark)
    resolved = replace(settings)
    if resolved.max_iterations is None:
        resolved.max_iterations = kind.budget
    if resolved.threshold is None:
        resolved.threshold = kind.threshold
    if resolved.out is None:
        resolved.out = os.path.join("runs", f"{resolved.benchmark}_{resolved.variant}")
    if not resolved.seeds:
        raise ConfigError("empty seed list")
    for name in ("nodes", "max_iterations", "seeds_per_cell"):
        if getattr(resolved, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(resolved, name)}")
    _check_non_negative(
        seeds=min(resolved.seeds),
        master_seed=resolved.master_seed,
        dataset_seed=resolved.dataset_seed,
        workers=resolved.workers,
    )
    if any(n < 1 for n in resolved.nodes_grid or []):
        raise ConfigError(f"nodes_grid entries must be >= 1, got {resolved.nodes_grid}")
    # a repeated seed, or grid value, would be run or read back twice over
    for name in ("seeds", "nodes_grid", "p_grid"):
        repeated = [v for v, n in Counter(getattr(resolved, name) or []).items() if n > 1]
        if repeated:
            raise ConfigError(f"{name} lists {repeated[0]} more than once")
    variant = resolved.variant
    if variant not in REORDER_KINDS:
        raise ConfigError(f"unknown reorder kind {variant!r}; expected one of {REORDER_KINDS}")
    for p in [resolved.p_reorder, *(resolved.p_grid or [])]:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p_reorder must be in [0, 1], got {p}")
        if variant not in GATED_KINDS and p != 1.0:
            raise ConfigError(f"p_reorder is fixed to 1.0 for kind {variant!r}")
    return resolved


def effective_config(settings: Settings) -> dict:
    """The provenance block embedded into every output file."""
    return {
        "benchmark": settings.benchmark,
        "variant": settings.variant,
        "p_reorder": settings.p_reorder,
        "nodes": settings.nodes,
        "arity": ARITY,
        "function_set": benchmark_kind(settings.benchmark).function_set,
        "mu": 1,
        "lambda": OFFSPRING_PER_ITERATION,
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

def _dataset_rng(dataset_seed: int, name: str) -> np.random.Generator:
    import zlib

    return np.random.default_rng(
        np.random.SeedSequence((dataset_seed, zlib.crc32(name.encode())))
    )


def _build_bench(settings: Settings, dataset_dir: str | None):
    """The batch's benchmark, a function of its name and dataset seed alone.

    When ``dataset_dir`` is given, a regression dataset is also written there
    as ``<bench>_s<dataset_seed>_{train,test}.csv``, a record of what the
    batch ran on that nothing reads back.
    """
    bench = build_benchmark(
        settings.benchmark, _dataset_rng(settings.dataset_seed, settings.benchmark)
    )
    if dataset_dir is not None and type(bench) is RegressionBenchmark:
        write_dataset(bench, dataset_dir, f"{settings.benchmark}_s{settings.dataset_seed}")
    return bench


def _echo(settings: Settings) -> dict:
    """A cell's batch.json: all that shapes its output files, which a rerun
    must repeat for the cell's records to be read back."""
    names = ("seeds", "trace_full", "track_union_active", "dump_genomes")
    return {"config": effective_config(settings), **{n: getattr(settings, n) for n in names}}


def _recorded(cell_dir: str, cell: Settings) -> dict[int, dict]:
    """The records a cell already holds, by seed: none without a batch.json,
    and a ConfigError that names its results.jsonl when batch.json echoes
    another config, seed list or output setting."""
    path, echo = (os.path.join(cell_dir, name) for name in ("results.jsonl", "batch.json"))
    if not os.path.exists(echo):
        return {}
    with open(echo) as fh:
        if json.load(fh) != _echo(cell):
            raise ConfigError(f"{path} was run under another config or seed list")
    return {r["seed"]: r for r in _load_records(path)} if os.path.exists(path) else {}


def run_batch(cells: dict[str, Settings], out: str) -> dict[str, list[dict]]:
    """Run each seed that a cell (cell directory -> finalized settings) has
    not recorded yet, all on one pool of the first cell's worker count, and
    return each cell's `results.jsonl` records, config included, in seed
    order.

    Every cell is checked (`_recorded`) before any file is written, and each
    seed writes its outputs as it finishes, so a rerun of a killed batch runs
    only the seeds it lost.  ``out``, the directory that holds the cells,
    gets the dataset records and run_meta.json.
    """
    started = time.time()
    records = {cell_dir: _recorded(cell_dir, cell) for cell_dir, cell in cells.items()}
    benches, tasks = {}, []
    for cell_dir, cell in cells.items():
        text = json.dumps(_echo(cell), sort_keys=True) + "\n"
        write_atomic(os.path.join(cell_dir, "batch.json"), text)
        key = (cell.benchmark, cell.dataset_seed)
        if key not in benches:
            benches[key] = _build_bench(cell, os.path.join(out, "datasets"))
        tasks += [(cell_dir, benches[key], s) for s in cell.seeds if s not in records[cell_dir]]
    # finalize rejects a negative count; 0 asks for one worker per CPU
    workers = min(next(iter(cells.values())).workers or os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        for cell_dir, bench, seed in tasks:
            result = run_es(cells[cell_dir], bench, seed)
            _write_run_outputs(cell_dir, cells[cell_dir], result, records[cell_dir])
    else:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        try:
            futures = {pool.submit(run_es, cells[c], b, s): c for c, b, s in tasks}
            for future in as_completed(futures):
                cell_dir = futures[future]
                _write_run_outputs(cell_dir, cells[cell_dir], future.result(), records[cell_dir])
        finally:
            # a failed seed ends the batch: no queued seed starts after it
            pool.shutdown(cancel_futures=True)
    _write_meta(out, started, workers)
    return {cell_dir: [runs[seed] for seed in sorted(runs)] for cell_dir, runs in records.items()}


# ---------------------------------------------------------------------------
# result files

# the `RunResult` fields a results.jsonl record holds, next to its config
RECORD_FIELDS = (
    "seed", "converged", "iterations", "evaluations", "final_train_fitness",
    "final_test_fitness", "active_count", "active_bitmap", "union_active_bitmap",
)
# the types that aggregation reads a record's values as; a bool is no count
RECORD_TYPES = {
    "seed": (int,), "iterations": (int,), "evaluations": (int,), "active_count": (int,),
    "converged": (bool,), "active_bitmap": (str,), "union_active_bitmap": (str, type(None)),
    "final_train_fitness": (float,), "final_test_fitness": (float, type(None)), "config": (dict,),
}


def read_trace_csv(path: str) -> list[tuple[int, float]]:
    """A trace file's ``(iteration, best fitness)`` samples; an
    AggregationError names the line of a row that does not read as one."""
    trace = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("iteration"):
                continue
            try:
                iteration, fitness = line.split(",")
                trace.append((int(iteration), float(fitness)))
            except ValueError:
                raise AggregationError(f"{path}:{line_no}: bad trace row {line!r}") from None
    return trace


def _write_run_outputs(
    outdir: str, settings: Settings, result: RunResult, records: dict[int, dict]
) -> None:
    """Write one finished seed's trace, and its genome when asked, then add
    its record to ``records`` and rewrite results.jsonl from them, sorted by
    seed, so that a complete batch has the bytes of an uninterrupted one."""
    config = effective_config(settings)
    trace = os.path.join(outdir, "traces", f"trace_seed{result.seed}.csv")
    write_csv(trace, config, [], "iteration,best_fitness", result.trace)
    if settings.dump_genomes:
        genome = os.path.join(outdir, "genomes", f"genome_seed{result.seed}.txt")
        write_atomic(genome, to_flat_text(result.final_genome))
    record = {name: getattr(result, name) for name in RECORD_FIELDS}
    records[result.seed] = record | {"config": config}
    write_atomic(
        os.path.join(outdir, "results.jsonl"),
        "".join(json.dumps(records[seed], sort_keys=True) + "\n" for seed in sorted(records)),
    )


def _write_meta(outdir: str, started: float, workers: int) -> None:
    finished = time.time()
    meta = {
        "started_unix": started,
        "finished_unix": finished,
        "duration_s": finished - started,
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
    [results] = run_batch({settings.out: settings}, settings.out).values()
    print(summarize(results, effective_config(settings)).format_line())
    return EXIT_OK


def _grid_cells(settings: Settings) -> dict[str, Settings]:
    """Every grid cell's settings, by the cell's directory."""
    seeds = list(range(settings.seeds_per_cell))
    return {
        os.path.join(settings.out, "cells", f"N{n}_p{_format_p(p)}"):
            replace(settings, nodes=n, p_reorder=p, seeds=seeds)
        for n in settings.nodes_grid or [settings.nodes]
        for p in settings.p_grid or [settings.p_reorder]
    }


def _format_p(p: float) -> str:
    """``p`` in a file name: ``{p:g}`` when that reads back as exactly p, else its repr."""
    text = f"{p:g}"
    return (text if float(text) == p else repr(p)).replace(".", "_")


def cmd_grid(args: argparse.Namespace) -> int:
    settings = finalize(build_settings(args))
    cells = _grid_cells(settings)
    results = run_batch(cells, settings.out)
    rows = [summarize(results[c], effective_config(cell)) for c, cell in cells.items()]
    # Boolean cells that solve their table all score 1.0, so they rank by
    # iterations; regression cells rank by their error
    if benchmark_kind(settings.benchmark).maximize:
        rows.sort(key=lambda row: row.mean_iterations)
    else:
        rows.sort(key=lambda row: row.mean_train_fitness
                  if row.mean_test_fitness is None else row.mean_test_fitness)
    write_summary_jsonl(os.path.join(settings.out, "grid_summary.jsonl"), rows)
    for row in rows:
        print(row.format_line())
    return EXIT_OK


def _load_records(path: str) -> list[dict]:
    """A results.jsonl file's records; an AggregationError names the line of
    one that is not JSON, lacks a `RECORD_FIELDS` key or its config, or holds
    a value of another type than `RECORD_TYPES` gives."""
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AggregationError(f"{path}:{line_no}: {exc}") from None
            keys = record.keys() if isinstance(record, dict) else set()
            missing = sorted({*RECORD_FIELDS, "config"} - keys)
            if missing:
                raise AggregationError(f"{path}:{line_no}: record lacks {', '.join(missing)}")
            wrong = [k for k, types in RECORD_TYPES.items() if type(record[k]) not in types]
            if wrong:
                raise AggregationError(f"{path}:{line_no}: bad type of {', '.join(wrong)}")
            records.append(record)
    return records


def cmd_analyze(args: argparse.Namespace) -> int:
    results_dir = args.results_dir
    out_dir = args.out or os.path.join(results_dir, "analysis")
    jsonl_files = sorted(
        glob.glob(os.path.join(results_dir, "**", "results.jsonl"), recursive=True)
    )
    if not jsonl_files:
        raise ConfigError(f"no results.jsonl files under {results_dir!r}")

    # every record and trace is read and checked before any file is written
    use_union = getattr(args, "use_union_bitmap", False)
    # (benchmark, variant, nodes, p) -> (config, first file, {seed: (record, file, trace)})
    groups: dict[tuple, tuple[dict, str, dict]] = {}
    for path in jsonl_files:
        for record in _load_records(path):
            cfg, seed = record["config"], record["seed"]
            if use_union and record["union_active_bitmap"] is None:
                raise AggregationError(
                    f"{path}: seed {seed} has no union bitmap; re-run with --track-union-active"
                )
            for name in ["active_bitmap"] + ["union_active_bitmap"] * use_union:
                if len(record[name]) != cfg["nodes"] or set(record[name]) - {"0", "1"}:
                    raise AggregationError(
                        f"{path}: seed {seed}'s {name} is not {cfg['nodes']} positions "
                        f"of 0 or 1 (it has {len(record[name])})"
                    )
            if use_union:
                record = record | {"active_bitmap": record["union_active_bitmap"]}
            key = (cfg["benchmark"], cfg["variant"], cfg["nodes"], cfg["p_reorder"])
            config, first, runs = groups.setdefault(key, (cfg, path, {}))
            if cfg != config:
                raise AggregationError(f"{first} and {path} ran {key} under different configs")
            if seed in runs:
                raise AggregationError(f"{runs[seed][1]} and {path} both ran seed {seed} of {key}")
            trace = os.path.join(os.path.dirname(path), "traces", f"trace_seed{seed}.csv")
            runs[seed] = (record, path, read_trace_csv(trace) if os.path.exists(trace) else [])

    rows = []
    for key in sorted(groups):
        config, _, runs = groups[key]
        records = [record for record, _, _ in runs.values()]
        benchmark, variant, nodes, p = key
        tag = f"{benchmark}_{variant}_N{nodes}_p{_format_p(p)}"
        probabilities = active_distribution(records)
        # positions normalized over [0, 1]; a lone position reads 0.0
        last = max(len(probabilities) - 1, 1)
        write_csv(
            os.path.join(out_dir, f"histogram_{tag}.csv"),
            config,
            [f"runs={len(records)}"],
            "position,normalized_position,probability",
            ((pos, pos / last, prob) for pos, prob in enumerate(probabilities)),
        )
        traces = [trace for _, _, trace in runs.values() if trace]
        if traces:
            grid = default_grid(traces)
            write_csv(
                os.path.join(out_dir, f"convergence_{tag}.csv"),
                config,
                ["sd is the population standard deviation over runs (divisor n)"],
                "iteration,mean_fitness,sd",
                zip(grid, *convergence_mean(traces, grid)),
            )
        rows.append(summarize(records, config))

    write_summary_jsonl(os.path.join(out_dir, "summary.jsonl"), rows)
    for row in rows:
        print(row.format_line())
    return EXIT_OK


def cmd_dump_genome(args: argparse.Namespace) -> int:
    _check_non_negative(seed=args.seed)
    params = graph_params(_build_bench(Settings(benchmark=args.bench), None), args.nodes)
    genome = random_genome(params, np.random.default_rng(args.seed))
    sys.stdout.write(to_flat_text(genome))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgp-reorder",
        description="CGP with genotype reordering: experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func, summary in (
        ("run", cmd_run, "run one benchmark/variant over a seed batch"),
        ("grid", cmd_grid, "sweep (nodes, p_reorder) cells"),
    ):
        p_cmd = sub.add_parser(command, help=summary)
        p_cmd.add_argument("--config", help="flat key = value config file")
        for setting in fields(Settings):
            if command not in setting.metadata["commands"]:
                continue
            kwargs = {"dest": setting.name, "help": setting.metadata["help"]}
            if setting.metadata["parse"] is _parse_bool:
                kwargs.update(action="store_const", const="true")
            p_cmd.add_argument(_flag(setting), **kwargs)
        p_cmd.set_defaults(func=func)

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
    p_dump.add_argument("--bench", required=True, help="take the shape from a benchmark")
    p_dump.add_argument("--nodes", type=int, default=10)
    p_dump.add_argument("--seed", type=int, default=0)
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
