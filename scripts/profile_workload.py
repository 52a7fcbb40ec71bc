#!/usr/bin/env python3
"""Profile one benchmark workload's ES in-process and print where its time goes.

    python3 scripts/profile_workload.py WORKLOAD [--top N]

The workload is one of those `perfbench/workloads.py` defines.  Its
`cgp-reorder run` arguments are parsed as `run` parses them and its
benchmark is built outside the profile; then every seed's `run_es` runs
under cProfile, one after the other, as `run --workers 1` runs them.
Nothing is written.  The script prints the top N functions by self time,
each with its calls, its self and cumulative seconds, and their shares of
the profiled ES time.  cProfile charges a cost to every Python call and none
to work inside numpy, so the shares lean toward call-heavy code; time a
candidate with `perfbench/run.py` before claiming a gain.  The package is
imported from `src/` of this checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from cgp_reorder import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def profile_workload(name: str) -> pstats.Stats:
    """The profile of every seed's ES of one workload."""
    # `run` would write under this directory; only the arguments are parsed
    argv = WORKLOADS[name].run_argv(os.devnull)
    settings = cli.finalize(cli.build_settings(cli.build_parser().parse_args(argv)))
    bench = cli._build_bench(settings, None)
    profile = cProfile.Profile()
    for seed in settings.seeds:
        profile.runcall(cli.run_es, settings, bench, seed)
    return pstats.Stats(profile)


def label(function: tuple[str, int, str]) -> str:
    path, line, name = function
    if path == "~":
        return name
    return f"{os.path.basename(path)}:{line}({name})"


def es_seconds(stats: pstats.Stats) -> float:
    """The profiled ES time: the cumulative time of every seed's run."""
    code = cli.run_es.__code__
    return stats.stats[(code.co_filename, code.co_firstlineno, code.co_name)][3]


def top_rows(stats: pstats.Stats, top: int) -> list[tuple[str, int, float, float, float, float]]:
    """``(function, calls, self s, self share, cumulative s, cumulative
    share)`` of the ``top`` functions by self time; the shares are of the
    profiled ES time."""
    total = es_seconds(stats)
    ranked = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)
    return [
        (label(function), calls, own, own / total, cumulative, cumulative / total)
        for function, (_, calls, own, cumulative, _) in ranked[:top]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--top", type=int, default=20, help="functions to print (default 20)")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error(f"--top must be at least 1, got {args.top}")
    stats = profile_workload(args.workload)
    rows = top_rows(stats, args.top)
    width = max(len(row[0]) for row in rows)
    print(f"{args.workload}: {es_seconds(stats):.3f} s of ES under the profiler")
    print(f"{'function':<{width}}  {'calls':>9}  {'self s':>8}  {'self':>6}  {'cum s':>8}  {'cum':>6}")
    for function, calls, own, own_share, cumulative, cumulative_share in rows:
        print(
            f"{function:<{width}}  {calls:>9}  {own:>8.3f}  {own_share:>6.1%}  "
            f"{cumulative:>8.3f}  {cumulative_share:>6.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
