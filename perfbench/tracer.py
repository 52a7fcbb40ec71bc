"""Per-layer tracing and layer microbenchmarks, run from outside the package.

`Tracer.install` rebinds the module-level names that the ES loop and the
reorder operators call (`decode_active`, `single_mutation`, `maybe_reorder`,
`boolean_fitness`/`mae_fitness` in `evolution`, `repair_forward_connections`
in `reorder`) and the ones `run` calls in `cli` (`run_es`,
`build_benchmark`, `_write_run_outputs`) to wrappers that time each call
with `perf_counter_ns` and count what the call did.  The package is not
edited.  Work the tracer does besides timing (counting changed genes,
comparing phenotypes, the reference check on every reorder that fires) is
timed too and taken out of the ES time before shares are computed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import reference

clock = time.perf_counter_ns

MICRO_NODES = (200, 750, 4000)
MICRO_REPEATS = 7
MICRO_REPEAT_NS = 10_000_000
REORDER_OPERATORS = ("original", "equidistant", "uniform", "negbias", "leftskew")


class Span:
    """Calls into one layer and the nanoseconds they took."""

    __slots__ = ("calls", "ns")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0

    def us_per_call(self) -> float:
        return self.ns / self.calls / 1e3 if self.calls else 0.0


def phenotype_equal(parent, child, active: list[bool]) -> bool:
    """Whether a mutant encodes the same active graph as its parent.

    ``active`` is the parent's active bitmap.  The mutant encodes the same
    graph exactly when no output gene changed and every changed node gene
    sits on a parent-inactive node or is a connection its unchanged
    function does not consume.
    """
    if tuple(parent.output_connections) != tuple(child.output_connections):
        return False
    arities = reference.ARITIES[parent.params.function_set]
    for idx, (a, b) in enumerate(zip(parent.computational, child.computational)):
        if a is b or not active[idx]:
            continue
        if a.function_id != b.function_id:
            return False
        consumed = arities[a.function_id]
        if a.connections[:consumed] != b.connections[:consumed]:
            return False
    return True


def genes_changed(parent, child) -> int:
    """Genes whose value differs between two genotypes."""
    changed = sum(
        a != b for a, b in zip(parent.output_connections, child.output_connections)
    )
    for a, b in zip(parent.computational, child.computational):
        if a is not b:
            changed += a.function_id != b.function_id
            changed += sum(x != y for x, y in zip(a.connections, b.connections))
    return changed


class Tracer:
    def __init__(self, problem) -> None:
        self.problem = problem
        self.spans = {
            name: Span()
            for name in (
                "decode_active", "single_mutation", "maybe_reorder", "repair",
                "fitness", "run_es", "build_benchmark", "write_outputs",
            )
        }
        self.iterations = 0
        self.active_total = 0
        self.genes_changed = 0
        self.noop_children = 0
        self.fired = 0
        self.repaired = 0
        self.phenotype_checks = 0
        self.phenotype_mismatches = 0
        # tracer work done inside run_es, outside every span
        self.bookkeeping_ns = 0
        # the part of it spent in reference checks
        self.check_ns = 0
        self.final_genomes = []

    def _wrap(self, module, attr: str, span_name: str, after=None) -> None:
        fn = getattr(module, attr)
        span = self.spans[span_name]

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            span.ns += clock() - start
            span.calls += 1
            if after is not None:
                start = clock()
                after(args, result)
                self.bookkeeping_ns += clock() - start
            return result

        setattr(module, attr, wrapper)

    def install(self, cli, evolution, reorder) -> None:
        self._wrap(evolution, "decode_active", "decode_active", self._after_decode)
        self._wrap(evolution, "single_mutation", "single_mutation", self._after_mutation)
        self._wrap(evolution, "maybe_reorder", "maybe_reorder", self._after_reorder)
        self._wrap(evolution, "boolean_fitness", "fitness")
        self._wrap(evolution, "mae_fitness", "fitness")
        self._wrap(reorder, "repair_forward_connections", "repair", self._after_repair)
        self._wrap(cli, "run_es", "run_es", self._after_run_es)
        self._wrap(cli, "build_benchmark", "build_benchmark")
        self._wrap(cli, "_write_run_outputs", "write_outputs")

    def _after_decode(self, args, active) -> None:
        self.active_total += active.count

    def _after_mutation(self, args, child) -> None:
        parent, active, _ = args
        self.genes_changed += genes_changed(parent, child)
        self.noop_children += phenotype_equal(parent, child, active.bitmap)

    def _after_reorder(self, args, reordered) -> None:
        parent = args[0]
        if reordered is parent:
            return
        self.fired += 1
        start = clock()
        before = reference.from_program(parent)
        after = reference.from_program(reordered)
        active_before = reference.active_bitmap(before)
        active_after = reference.active_bitmap(after)
        self.phenotype_checks += 1
        if sum(active_before) != sum(active_after) or self.problem.fitness(
            before, active_before
        ) != self.problem.fitness(after, active_after):
            self.phenotype_mismatches += 1
        self.check_ns += clock() - start

    def _after_repair(self, args, repaired: int) -> None:
        self.repaired += repaired

    def _after_run_es(self, args, result) -> None:
        self.iterations += result.iterations
        self.final_genomes.append(result.final_genome)

    def metrics(self) -> dict[str, float]:
        s = self.spans
        es_ns = s["run_es"].ns - self.bookkeeping_ns
        mutations = s["single_mutation"].calls
        covered = sum(
            s[name].ns for name in ("decode_active", "single_mutation", "maybe_reorder", "fitness")
        )
        return {
            "genome.decode_active.us_per_call": s["decode_active"].us_per_call(),
            "genome.decode_active.share": s["decode_active"].ns / es_ns,
            "genome.decode_active.calls_per_iter": s["decode_active"].calls / self.iterations,
            "genome.active_count.mean": self.active_total / s["decode_active"].calls,
            "mutation.single_mutation.us_per_call": s["single_mutation"].us_per_call(),
            "mutation.single_mutation.share": s["single_mutation"].ns / es_ns,
            "mutation.genes_touched.mean": self.genes_changed / mutations,
            "mutation.noop_child_share": self.noop_children / mutations,
            "reorder.maybe_reorder.us_per_call": s["maybe_reorder"].us_per_call(),
            "reorder.maybe_reorder.share": s["maybe_reorder"].ns / es_ns,
            "reorder.fire_share": self.fired / s["maybe_reorder"].calls,
            "reorder.repair_forward_connections.us_per_call": s["repair"].us_per_call(),
            "reorder.repaired_genes.per_reorder": self.repaired / self.fired if self.fired else 0.0,
            "benchmarks.fitness.us_per_call": s["fitness"].us_per_call(),
            "benchmarks.fitness.share": s["fitness"].ns / es_ns,
            "benchmarks.build_benchmark.ms": s["build_benchmark"].us_per_call() / 1e3,
            "cli.write_outputs.ms": s["write_outputs"].ns / 1e6,
            "evolution.run_es.self_share": 1.0 - covered / es_ns,
        }


def per_call_us(fn, *args) -> float:
    """Median over MICRO_REPEATS repeats of the mean time of one call."""
    start = clock()
    fn(*args)
    calls = max(1, MICRO_REPEAT_NS // max(1, clock() - start))
    samples = []
    for _ in range(MICRO_REPEATS):
        start = clock()
        for _ in range(calls):
            fn(*args)
        samples.append((clock() - start) / calls / 1e3)
    return statistics.median(samples)


def microbenchmarks(bench, seed: int, benchmarks, genome, mutation, reorder) -> dict[str, float]:
    """µs per call of each layer function on random genomes of the
    workload's shape, at every node count in MICRO_NODES."""
    out = {}
    for nodes in MICRO_NODES:
        rng = np.random.default_rng((seed, nodes))
        g = genome.random_genome(benchmarks.graph_params(bench, nodes), rng)
        active = genome.decode_active(g)
        out[f"genome.decode_active.us_n{nodes}"] = per_call_us(genome.decode_active, g)
        out[f"mutation.single_mutation.us_n{nodes}"] = per_call_us(
            mutation.single_mutation, g, active, rng
        )
        for kind in REORDER_OPERATORS:
            out[f"reorder.reorder_{kind}.us_n{nodes}"] = per_call_us(
                getattr(reorder, f"reorder_{kind}"), g, rng
            )
        if hasattr(bench, "input_masks"):
            out[f"genome.evaluate.us_n{nodes}"] = per_call_us(
                genome.evaluate_packed, g, bench.input_masks, bench.full_mask, active
            )
        else:
            out[f"genome.evaluate.us_n{nodes}"] = per_call_us(
                genome.evaluate_batch, g, bench.train.xs, active
            )
    return out
