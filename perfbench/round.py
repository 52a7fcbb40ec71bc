"""One round of the benchmark, in a fresh process.

    python3 perfbench/round.py '{"workload": ..., "out": ..., "mode": ..., "seed": ...}'

Modes: ``run`` times one `cgp-reorder run` command of the workload;
``trace`` runs the same command under the tracer and then times `analyze`
over its output; both interleave calibration slices (see calibration.py).
``micro`` times the layer functions on random genomes.
The package is imported from ``src/`` of the current directory.  The last
line of standard output is one JSON object with the round's figures.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    out_dir = spec["out"]
    run_dir = os.path.join(out_dir, "run")
    argv = workload.run_argv(run_dir)

    # set-up: import the package (numpy comes with it), then build the
    # benchmark the way `run` does, writing the regression dataset cache
    # into a fresh directory
    start = time.perf_counter()
    from cgp_reorder import benchmarks, cli, evolution, genome, mutation, reorder

    settings = cli.finalize(cli.build_settings(cli.build_parser().parse_args(argv)))
    bench = cli._build_bench(settings, os.path.join(out_dir, "setup_cache"))
    figures = {"setup_s": time.perf_counter() - start}

    import numpy as np

    import calibration
    import reference
    import tracer

    if spec["mode"] == "micro":
        figures["layers"] = tracer.microbenchmarks(
            bench, spec["seed"], benchmarks, genome, mutation, reorder
        )
        print(json.dumps(figures))
        return 0

    trace = None
    if spec["mode"] == "trace":
        trace = tracer.Tracer(reference.make_problem(workload.bench))
        trace.install(cli, evolution, reorder)
    else:
        es = tracer.Span()
        run_es = cli.run_es

        def timed_run_es(*args, **kwargs):
            start = tracer.clock()
            result = run_es(*args, **kwargs)
            es.ns += tracer.clock() - start
            return result

        cli.run_es = timed_run_es
    # installed after the tracer, so that slices fall outside every layer span
    speed = calibration.Calibration(workload.bench)
    speed.install(evolution)

    with contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        figures["status"] = cli.main(argv)
        figures["run_wall_s"] = time.perf_counter() - start
    figures["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if figures["status"] != 0:
        print(json.dumps(figures))
        return 0

    # every slice ran inside run_es
    figures["run_wall_s"] -= speed.spent_ns / 1e9
    figures["speed_factor"] = speed.factor()
    if trace is None:
        figures["es_s"] = (es.ns - speed.spent_ns) / 1e9
        print(json.dumps(figures))
        return 0

    trace.bookkeeping_ns += speed.spent_ns
    layers = trace.metrics()
    if trace.spans["repair"].calls == 0:
        # this variant never repairs inside the ES: time one repair pass over
        # a copy of a final genome, which finds nothing to repair
        g = trace.final_genomes[0]
        layers["reorder.repair_forward_connections.us_per_call"] = tracer.per_call_us(
            reorder.repair_forward_connections,
            genome.Genotype(g.params, list(g.computational), g.output_connections),
            np.random.default_rng(spec["seed"]),
        )
    with contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        cli.main(["analyze", run_dir, "--out", os.path.join(out_dir, "analysis")])
        layers["analysis.analyze.ms"] = (time.perf_counter() - start) * 1e3
    figures["layers"] = layers
    figures["check_s"] = trace.check_ns / 1e9
    figures["phenotype_checks"] = trace.phenotype_checks
    figures["phenotype_mismatches"] = trace.phenotype_mismatches
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
