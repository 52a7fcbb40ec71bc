#!/usr/bin/env python3
"""Desk-scale benchmark sweep: every reorder variant on a chosen benchmark.

Boolean benchmarks run to solution (safety-capped); regression benchmarks
run against a reduced iteration budget so the sweep stays interactive.
Every variant is one cell, `<outdir>/<variant>`, of one resumable batch on
one worker pool: a rerun after a kill runs only the seeds that no cell has
recorded.  Summary rows print per variant, and a combined analysis is
written at the end.

Usage: python scripts/desk_benchmark_suite.py [benchmark] [outdir] [seed_spec]
"""

import sys

from cgp_reorder import cli
from cgp_reorder.analysis import summarize
from cgp_reorder.benchmarks import RegressionBenchmark, benchmark_kind
from cgp_reorder.errors import ConfigError

# desk-scale node counts per benchmark (kept small on purpose)
NODES = {
    "parity3": 200,
    "encode16_4": 200,
    "decode4_16": 300,
    "multiply3": 350,
    "nguyen7": 250,
    "koza3": 100,
    "pagie1": 350,
    "keijzer6": 50,
}

VARIANTS = ("none", "original", "equidistant", "uniform", "negbias", "leftskew")


def run(benchmark: str = "parity3", outdir: str | None = None, seeds: str = "0..24") -> int:
    outdir = outdir or f"runs/suite_{benchmark}"
    try:
        regression = benchmark_kind(benchmark) is RegressionBenchmark
        budget = ["--max-iterations", "20000"] if regression else []
        cells = {}
        for variant in VARIANTS:
            gate = ["--p-reorder", "0.5"] if variant in ("negbias", "leftskew") else []
            argv = [
                "run",
                "--bench", benchmark,
                "--variant", variant,
                "--nodes", str(NODES.get(benchmark, 200)),
                "--seeds", seeds,
                "--out", f"{outdir}/{variant}",
                *budget,
                *gate,
            ]
            cell = cli.finalize(cli.build_settings(cli.build_parser().parse_args(argv)))
            cells[cell.out] = cell
        results = cli.run_batch(cells, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG
    for cell_dir, cell in cells.items():
        print(summarize(results[cell_dir], cli.effective_config(cell)).format_line())
    return cli.main(["analyze", outdir, "--out", f"{outdir}/analysis"])


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:4]))
