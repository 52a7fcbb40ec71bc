"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The multiply comparison
(criterion 7) takes hours and only runs when CGP_LONG=1 is set.  The
keijzer-6 and parity batches run at desk scale: 75 seeds, with regression
budgets capped at 10,000 iterations so the suite finishes in minutes; a run
that exhausts its budget counts its full budget as its iteration count.
"""

import functools
import gc
import math
import os
import tempfile
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from cgp_reorder.analysis import active_distribution
from cgp_reorder.cli import Settings, finalize, read_trace_csv, run_batch
from cgp_reorder.genome import (
    GraphParams,
    decode_active,
    evaluate_batch,
    evaluate_packed,
    random_genome,
)
from cgp_reorder.reorder import (
    beta61_from_uniform,
    lin_space,
    reorder_equidistant,
    reorder_leftskew,
    reorder_negbias,
    reorder_original,
    reorder_uniform,
)

from conftest import decile_means, packed_inputs, validate

WORKERS = min(2, os.cpu_count() or 1)
REGRESSION_DESK_BUDGET = 10_000

ALL_OPERATORS = {
    "original": reorder_original,
    "equidistant": reorder_equidistant,
    "uniform": reorder_uniform,
    "negbias": reorder_negbias,
    "leftskew": reorder_leftskew,
}

_BATCHES: dict = {}


@functools.cache
def _batch_dir() -> tempfile.TemporaryDirectory:
    """Where the cached batches write their files; removed at interpreter exit."""
    return tempfile.TemporaryDirectory(prefix="cgp-acceptance-")


def with_traces(cell_dir: str, records: list[dict]) -> list[dict]:
    """The ``records`` of one `run_batch` cell, each with the trace it wrote
    under the key ``trace``."""
    traces = os.path.join(cell_dir, "traces")
    return [
        r | {"trace": read_trace_csv(os.path.join(traces, f"trace_seed{r['seed']}.csv"))}
        for r in records
    ]


def batch(benchmark: str, variant: str, nodes: int, budget: int, p: float = 1.0):
    key = (benchmark, variant, nodes, budget, p)
    if key not in _BATCHES:
        out = os.path.join(_batch_dir().name, "_".join(map(str, key)))
        settings = finalize(
            Settings(
                benchmark=benchmark,
                variant=variant,
                nodes=nodes,
                p_reorder=p,
                seeds=list(range(75)),
                max_iterations=budget,
                workers=WORKERS,
            )
        )
        _BATCHES[key] = with_traces(out, run_batch({out: settings}, out)[out])
    return _BATCHES[key]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


class TestCriterion1PhenotypePreservation:
    GENOMES_PER_SHAPE = 500

    def _check(self, make_eval, params, seed_base):
        failures = 0
        rng = np.random.default_rng(999)
        genomes = [
            random_genome(params, np.random.default_rng(seed_base + i))
            for i in range(self.GENOMES_PER_SHAPE)
        ]
        for operator in ALL_OPERATORS.values():
            for g in genomes:
                before = make_eval(g)
                h = operator(g, rng)
                if validate(h) != [] or not make_eval(h) == before:
                    failures += 1
        return failures

    def test_boolean_shapes_exhaustive(self):
        failures = 0
        for num_in, num_out in ((3, 1), (16, 4), (4, 16), (6, 6)):
            params = GraphParams(num_in, num_out, 48, "boolean")
            masks, full = packed_inputs(num_in)
            failures += self._check(
                lambda g: evaluate_packed(g, masks, full, decode_active(g)), params, num_in * 1000
            )
        ok = failures == 0
        report("1a", ok, f"boolean shapes, 5 ops x 500 genomes x exhaustive rows: {failures} mismatches")
        assert ok

    def test_regression_shapes_bit_exact(self):
        from cgp_reorder.benchmarks import build_regression

        failures = 0
        for name in ("nguyen7", "koza3", "pagie1", "keijzer6"):
            bench = build_regression(name, np.random.default_rng(1))
            xs = bench.train.xs
            params = GraphParams(bench.num_inputs, 1, 48, "regression")
            failures += self._check(
                lambda g: evaluate_batch(g, xs, decode_active(g)).tobytes(),
                params,
                zlib.crc32(name.encode()) % 10_000,
            )
        ok = failures == 0
        report("1b", ok, f"regression shapes, 5 ops x 500 genomes x all dataset points: {failures} mismatches")
        assert ok


class TestCriterion2LinSpaceOracle:
    def test_exhaustive_against_rational_floor(self):
        mismatches = 0
        for start in range(1, 100):
            for end in range(start + 1, 101):
                span = end - start
                for count in range(1, span + 2):
                    expected = [
                        math.floor(Fraction(start) + i * Fraction(span, count))
                        for i in range(1, count + 1)
                    ]
                    if lin_space(start, end, count) != expected:
                        mismatches += 1
        ok = mismatches == 0
        report("2", ok, f"lin_space vs exact rational floor, all 1<=s<e<=100: {mismatches} mismatches")
        assert ok


class TestCriterion3BetaSampler:
    def test_mean_and_ks_distance(self):
        rng = np.random.default_rng(20240601)
        samples = np.sort(beta61_from_uniform(rng.random(100_000)))
        mean = float(np.mean(samples))
        n = len(samples)
        cdf = samples**6
        upper = np.max(np.arange(1, n + 1) / n - cdf)
        lower = np.max(cdf - np.arange(0, n) / n)
        ks = max(float(upper), float(lower))
        mean_ok = abs(mean - 6 / 7) <= 0.01
        ks_ok = ks < 0.01
        ok = mean_ok and ks_ok
        report("3", ok, f"beta(6,1): mean {mean:.5f} (target 6/7 +- 0.01), KS {ks:.5f} (< 0.01)")
        assert ok


class TestCriterion4ParityDeskScale:
    def test_standard_band(self):
        results = batch("parity3", "none", 200, 1_000_000)
        mean = float(np.mean([r["iterations"] for r in results]))
        ok = 200 <= mean <= 900
        report("4a", ok, f"parity3 standard N=200, 75 seeds: mean I2S {mean:.1f} in [200, 900]")
        assert ok

    def test_original_reorder_band(self):
        results = batch("parity3", "original", 600, 1_000_000)
        mean = float(np.mean([r["iterations"] for r in results]))
        ok = 170 <= mean <= 800
        report("4b", ok, f"parity3 original N=600, 75 seeds: mean I2S {mean:.1f} in [170, 800]")
        assert ok


class TestCriterion5Keijzer6:
    def test_equidistant_speed_and_success(self):
        results = batch("keijzer6", "equidistant", 50, REGRESSION_DESK_BUDGET)
        mean = float(np.mean([r["iterations"] for r in results]))
        sr = sum(r["converged"] for r in results) / len(results)
        ok = sr >= 0.9 and mean <= 200
        report(
            "5a", ok,
            f"keijzer6 equidistant N=50, 75 seeds, budget {REGRESSION_DESK_BUDGET}: "
            f"SR {sr:.2f} (need >= 0.9), mean I2S {mean:.1f} (need <= 200)",
        )
        assert ok

    def test_standard_is_slower(self):
        results = batch("keijzer6", "none", 150, REGRESSION_DESK_BUDGET)
        mean = float(np.mean([r["iterations"] for r in results]))
        ok = mean >= 100
        report("5b", ok, f"keijzer6 standard N=150, 75 seeds: mean I2S {mean:.1f} (need >= 100)")
        assert ok


class TestCriterion6PositionalBias:
    def test_standard_first_decile_dominates(self):
        results = batch("parity3", "none", 200, 1_000_000)
        deciles = decile_means(active_distribution(results))
        ok = deciles[0] > 0 and deciles[0] >= 2 * deciles[-1]
        report(
            "6a", ok,
            f"parity3 standard: first decile {deciles[0]:.3f} vs last {deciles[-1]:.3f} (need >= 2x)",
        )
        assert ok

    def test_equidistant_deciles_flat(self):
        results = batch("parity3", "equidistant", 200, 1_000_000)
        probabilities = active_distribution(results)
        deciles = decile_means(probabilities)
        global_mean = float(np.mean(probabilities))
        ok = all(0.5 * global_mean <= d <= 1.5 * global_mean for d in deciles)
        spread = max(abs(d - global_mean) / global_mean for d in deciles)
        report(
            "6b", ok,
            f"parity3 equidistant: decile spread {spread:.1%} of global mean {global_mean:.3f} "
            f"(need within +-50%)",
        )
        assert ok


@pytest.mark.long
@pytest.mark.skipif(os.environ.get("CGP_LONG") != "1", reason="set CGP_LONG=1 to run")
class TestCriterion7MultiplyLongRun:
    def test_negbias_beats_standard_at_paper_hyperparameters(self, tmp_path):
        seeds = list(range(25))
        configs = {
            "negbias": dict(variant="negbias", p_reorder=0.9),
            "none": dict(variant="none", p_reorder=1.0),
        }
        # both configs share one pool
        cells = {
            str(tmp_path / label): finalize(
                Settings(
                    benchmark="multiply3",
                    nodes=750,
                    seeds=seeds,
                    max_iterations=600_000,
                    workers=WORKERS,
                    **overrides,
                )
            )
            for label, overrides in configs.items()
        }
        results = run_batch(cells, str(tmp_path))
        means = {
            label: float(np.mean([r["iterations"] for r in results[str(tmp_path / label)]]))
            for label in configs
        }
        ok = means["negbias"] < means["none"]
        report(
            "7", ok,
            f"multiply3 N=750, 25 seeds: negbias(p=0.9) mean I2S {means['negbias']:.0f} "
            f"vs standard {means['none']:.0f} (need negbias < standard)",
        )
        assert ok


class TestCriterion8ElitismDeterminism:
    def _all_batches(self):
        yield "boolean", batch("parity3", "none", 200, 1_000_000)
        yield "boolean", batch("parity3", "original", 600, 1_000_000)
        yield "boolean", batch("parity3", "equidistant", 200, 1_000_000)
        yield "regression", batch("keijzer6", "equidistant", 50, REGRESSION_DESK_BUDGET)
        yield "regression", batch("keijzer6", "none", 150, REGRESSION_DESK_BUDGET)

    def test_traces_monotone_and_budget_accounting(self):
        bad_traces = 0
        bad_budget = 0
        total = 0
        for kind, results in self._all_batches():
            for r in results:
                total += 1
                fitness = [f for _, f in r["trace"]]
                pairs = zip(fitness, fitness[1:])
                if kind == "boolean":
                    monotone = all(b >= a for a, b in pairs)
                else:
                    monotone = all(b <= a for a, b in pairs)
                bad_traces += 0 if monotone else 1
                bad_budget += 0 if r["evaluations"] == 4 * r["iterations"] else 1
        ok = bad_traces == 0 and bad_budget == 0
        report(
            "8a", ok,
            f"{total} runs: {bad_traces} non-monotone traces, "
            f"{bad_budget} runs with evaluations != 4 x iterations",
        )
        assert ok

    def test_byte_identical_reruns(self, tmp_path):
        from cgp_reorder.cli import main

        args = [
            "run", "--bench", "parity3", "--variant", "leftskew", "--p-reorder", "0.6",
            "--nodes", "40", "--seeds", "0..9", "--workers", str(WORKERS),
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        same_results = (tmp_path / "a" / "results.jsonl").read_bytes() == (
            tmp_path / "b" / "results.jsonl"
        ).read_bytes()
        same_traces = all(
            (tmp_path / "a" / "traces" / f"trace_seed{s}.csv").read_bytes()
            == (tmp_path / "b" / "traces" / f"trace_seed{s}.csv").read_bytes()
            for s in range(10)
        )
        ok = same_results and same_traces
        report("8b", ok, f"rerun byte-identity: results {same_results}, traces {same_traces}")
        assert ok


class TestCriterion9LinearScaling:
    def _time_operator(self, operator, genomes, rng, repeats=7):
        """Fastest of ``repeats`` calls on each genome.  The genomes take
        turns within every repeat, so a shift in machine speed, which can
        last seconds, reaches every size alike.  The garbage collector is
        off while timing, as in ``timeit``: a collection walks every object
        the test process holds, which says nothing about the operator."""
        best = {nodes: math.inf for nodes in genomes}
        gc.disable()
        try:
            for _ in range(repeats):
                for nodes, genome in genomes.items():
                    start = time.perf_counter()
                    operator(genome, rng)
                    best[nodes] = min(best[nodes], time.perf_counter() - start)
        finally:
            gc.enable()
        return best

    def test_doubling_nodes_at_most_two_and_a_half_times_slower(self):
        rng = np.random.default_rng(0)
        genomes = {
            nodes: random_genome(
                GraphParams(6, 6, nodes, "boolean"), np.random.default_rng(123)
            )
            for nodes in (2000, 4000)
        }
        ratios = {}
        for name, operator in ALL_OPERATORS.items():
            times = self._time_operator(operator, genomes, rng)
            ratios[name] = times[4000] / times[2000]
        ok = all(ratio <= 2.5 for ratio in ratios.values())
        detail = ", ".join(f"{name} {ratio:.2f}x" for name, ratio in ratios.items())
        report("9", ok, f"wall-time ratio N=4000 / N=2000 (need <= 2.5): {detail}")
        assert ok
