#!/usr/bin/env python3
"""Reproduce the positional-bias histograms on 3-bit parity.

Runs the plain and the equidistant-reorder configurations for 75 seeds each,
as two cells, `<outdir>/<variant>`, of one resumable batch on one worker
pool, then aggregates the final solutions into per-position activity
histograms.  The plain run shows strong early-position bias; the
equidistant run is flat.

Usage: python scripts/positional_bias_experiment.py [outdir] [seed_spec]
"""

import sys

from cgp_reorder import cli
from cgp_reorder.analysis import summarize
from cgp_reorder.errors import ConfigError


def run(outdir: str = "runs/positional_bias", seeds: str = "0..74") -> int:
    try:
        cells = {}
        for variant in ("none", "equidistant"):
            argv = [
                "run",
                "--bench", "parity3",
                "--variant", variant,
                "--nodes", "200",
                "--seeds", seeds,
                "--out", f"{outdir}/{variant}",
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
    sys.exit(run(*sys.argv[1:3]))
