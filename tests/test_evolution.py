import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgp_reorder.evolution as evolution
from cgp_reorder.benchmarks import (
    BooleanBenchmark,
    boolean_fitness,
    build_boolean,
    build_regression,
)
from cgp_reorder.cli import Settings, finalize
from cgp_reorder.errors import ConfigError
from cgp_reorder.evolution import (
    run_es,
    run_rng,
    select_parent,
)
from cgp_reorder.genome import Genotype, decode_active

from conftest import reference_select_parent, sorted_readers


def constant_zero_bench():
    """Single-input single-output benchmark whose target is always 0."""
    return BooleanBenchmark("const0", 1, 1, [((0,), (0,)), ((1,), (0,))])


def check_every_reorder(monkeypatch, bench: BooleanBenchmark) -> None:
    """Wrap the ES's reorder step so that every reorder that fires is checked
    against fresh work: the reordered genome's fitness must equal its
    source's, its carried active set a fresh decode, and its carried
    evaluation vector a fresh evaluation at every input and active node."""
    reorder = evolution.maybe_reorder

    def fresh(genome):
        # a copy carries no active set and no vector, so it is evaluated anew
        copy = Genotype(genome.params, list(genome.computational), genome.output_connections)
        return boolean_fitness(copy, bench, decode_active(copy)), copy.values

    def checking(genome, kind, p_reorder, rng, active=None):
        reordered = reorder(genome, kind, p_reorder, rng, active)
        if reordered is genome:
            return reordered
        before, _ = fresh(genome)
        after, values = fresh(reordered)
        if after != before:
            raise AssertionError(f"reorder changed fitness {before} -> {after}")
        if sorted_readers(reordered.active) != sorted_readers(decode_active(reordered)):
            raise AssertionError("reorder carried an active set that differs from a fresh decode")
        start = reordered.params.comp_start
        live = list(range(start)) + [start + i for i in reordered.active.positions()]
        if [reordered.values[p] for p in live] != [values[p] for p in live]:
            raise AssertionError("reorder carried a vector that differs from a fresh evaluation")
        return reordered

    monkeypatch.setattr(evolution, "maybe_reorder", checking)


def make_settings(**overrides) -> Settings:
    """A run's settings as `finalize` leaves them: 20 nodes, no reorder, a
    budget of 5000 iterations and a threshold of 1.0 unless overridden."""
    base = dict(benchmark="parity3", nodes=20, max_iterations=5000, threshold=1.0)
    base.update(overrides)
    return finalize(Settings(**base))


class TestSelectParent:
    def test_equal_fitness_prefers_offspring(self):
        assert select_parent(0.5, [0.5, 0.4, 0.3, 0.2], maximize=True) == 0

    def test_all_worse_retains_parent(self):
        assert select_parent(0.9, [0.1, 0.1, 0.1, 0.1], maximize=True) is None

    def test_minimizing_picks_strict_best(self):
        assert select_parent(0.3, [0.3, 0.3, 0.1, 0.5], maximize=False) == 2

    def test_offspring_ties_break_by_lowest_index(self):
        assert select_parent(0.2, [0.7, 0.7, 0.7, 0.7], maximize=True) == 0
        assert select_parent(0.9, [0.1, 0.1, 0.1, 0.1], maximize=False) == 0

    # few distinct values, so that lists tie often; infinities, NaN and both
    # zeros included
    FITNESS = st.sampled_from(
        [0.0, -0.0, 0.25, 0.5, 1.0, float("inf"), -float("inf"), float("nan")]
    )

    @settings(max_examples=500)
    @given(
        parent=FITNESS,
        offspring=st.lists(FITNESS, min_size=1, max_size=6),
        maximize=st.booleans(),
    )
    def test_matches_the_two_mirrored_scans(self, parent, offspring, maximize):
        assert select_parent(parent, offspring, maximize) == reference_select_parent(
            parent, offspring, maximize
        )


class TestRunEs:
    def test_trivial_target_converges(self):
        result = run_es(make_settings(), constant_zero_bench(), 0)
        assert result.converged
        assert result.iterations >= 1
        fitness = [f for _, f in result.trace]
        assert all(b >= a for a, b in zip(fitness, fitness[1:]))

    def test_deterministic_under_fixed_seed(self):
        bench = build_boolean("parity3")
        cfg = make_settings(nodes=60, max_iterations=2000)
        a = run_es(cfg, bench, 11)
        b = run_es(cfg, bench, 11)
        assert a == b

    def test_evaluations_equal_four_times_iterations(self):
        bench = build_boolean("parity3")
        for seed in range(5):
            cfg = make_settings(nodes=50, max_iterations=300)
            result = run_es(cfg, bench, seed)
            assert result.evaluations == 4 * result.iterations

    def test_budget_exhaustion_reports_not_converged(self):
        bench = build_boolean("multiply3")
        cfg = make_settings(nodes=30, max_iterations=25)
        result = run_es(cfg, bench, 0)
        assert not result.converged
        assert result.iterations == 25
        assert 0.0 <= result.final_train_fitness < 1.0

    def test_reorder_never_changes_parent_fitness(self, monkeypatch):
        bench = build_boolean("parity3")
        check_every_reorder(monkeypatch, bench)
        for kind in ("original", "equidistant", "uniform", "negbias", "leftskew"):
            cfg = make_settings(nodes=40, variant=kind, max_iterations=150)
            run_es(cfg, bench, 3)  # raises on any fitness drift

    def test_verify_reorder_rejects_a_wrong_carried_active_set(self, monkeypatch):
        reorder = evolution.maybe_reorder

        def miscounting(genome, kind, p_reorder, rng, active=None):
            reordered = reorder(genome, kind, p_reorder, rng, active)
            if reordered is not genome:
                # one more reader of the first active node, which no gene is
                readers = reordered.active.readers.copy()
                first = reordered.active.positions()[0]
                readers[first] += readers[first][:1]
                reordered.active = dataclasses.replace(reordered.active, readers=readers)
            return reordered

        monkeypatch.setattr(evolution, "maybe_reorder", miscounting)
        bench = build_boolean("parity3")
        check_every_reorder(monkeypatch, bench)
        cfg = make_settings(nodes=40, variant="equidistant", max_iterations=20)
        with pytest.raises(AssertionError, match="carried an active set"):
            run_es(cfg, bench, 3)

    def test_boolean_trace_monotone_nondecreasing(self):
        bench = build_boolean("parity3")
        cfg = make_settings(nodes=80, max_iterations=3000)
        result = run_es(cfg, bench, 2)
        fitness = [f for _, f in result.trace]
        assert all(b >= a for a, b in zip(fitness, fitness[1:]))

    def test_active_bitmap_matches_count(self):
        bench = build_boolean("parity3")
        result = run_es(make_settings(nodes=50), bench, 1)
        assert len(result.active_bitmap) == 50
        assert result.active_bitmap.count("1") == result.active_count

    def test_converged_implies_threshold_met(self):
        boolean = build_boolean("parity3")
        for seed in range(4):
            cfg = make_settings(nodes=80, max_iterations=5000)
            result = run_es(cfg, boolean, seed)
            if result.converged:
                assert result.final_train_fitness >= 1.0
        regression = build_regression("keijzer6", np.random.default_rng(1))
        cfg = make_settings(benchmark="keijzer6", nodes=40, max_iterations=3000, threshold=0.01)
        result = run_es(cfg, regression, 2)
        if result.converged:
            assert result.final_train_fitness < 0.01

    def test_regression_run_reports_test_fitness(self):
        bench = build_regression("keijzer6", np.random.default_rng(1))
        cfg = make_settings(benchmark="keijzer6", nodes=30, max_iterations=200, threshold=0.01)
        result = run_es(cfg, bench, 4)
        assert result.final_test_fitness is not None
        fitness = [f for _, f in result.trace]
        assert all(b <= a for a, b in zip(fitness, fitness[1:]))

    def test_regression_without_test_split_reports_none(self):
        bench = build_regression("koza3", np.random.default_rng(1))
        cfg = make_settings(benchmark="koza3", max_iterations=50, threshold=0.01)
        result = run_es(cfg, bench, 0)
        assert result.final_test_fitness is None

    def test_trace_full_records_every_iteration(self):
        bench = build_boolean("multiply3")
        cfg = make_settings(nodes=30, max_iterations=40, trace_full=True)
        result = run_es(cfg, bench, 0)
        assert [it for it, _ in result.trace] == list(range(41))

    @pytest.mark.parametrize(
        "bench, overrides, converged",
        [
            # parity3 cannot reach 2.0, and 200 is an every-100th sample point
            (build_boolean("parity3"), dict(max_iterations=200, threshold=2.0), False),
            (constant_zero_bench(), {}, True),
        ],
        ids=["budget-ends-on-a-sample-point", "converged"],
    )
    def test_trace_ends_with_one_sample_at_the_final_iteration(self, bench, overrides, converged):
        result = run_es(make_settings(**overrides), bench, 0)
        assert result.converged == converged
        assert result.iterations == overrides.get("max_iterations", result.iterations)
        iterations = [it for it, _ in result.trace]
        assert all(a < b for a, b in zip(iterations, iterations[1:]))
        assert iterations.count(result.iterations) == 1
        assert result.trace[-1] == (result.iterations, result.final_train_fitness)


class GeneratorThatCannotDraw:
    """Lends its real PCG64 bit generator and raises on every draw of its own."""

    def __init__(self, bit_generator: np.random.PCG64) -> None:
        self.bit_generator = bit_generator

    def integers(self, *args, **kwargs):
        raise AssertionError("a draw bypassed the feed")

    random = integers


@pytest.mark.parametrize(
    "kind, p_reorder",
    [
        ("none", 1.0),
        ("original", 1.0),
        ("equidistant", 1.0),
        ("uniform", 1.0),
        ("negbias", 0.5),
        ("leftskew", 0.5),
    ],
)
@pytest.mark.parametrize("bench_name", ["parity3", "keijzer6"])
def test_every_draw_comes_from_the_feed(monkeypatch, kind, p_reorder, bench_name):
    if bench_name == "parity3":
        bench, threshold = build_boolean("parity3"), 2.0
    else:
        bench, threshold = build_regression("keijzer6", np.random.default_rng(1)), -1.0
    cfg = make_settings(
        benchmark=bench_name,
        nodes=30,
        variant=kind,
        p_reorder=p_reorder,
        max_iterations=80,
        threshold=threshold,
    )

    def serving(generator):
        def served(*seeds):
            assert seeds == (0, 5)
            return generator

        return served

    rng = run_rng(0, 5)
    monkeypatch.setattr(evolution, "run_rng", serving(rng))
    expected = run_es(cfg, bench, 5)
    bare = GeneratorThatCannotDraw(run_rng(0, 5).bit_generator)
    monkeypatch.setattr(evolution, "run_rng", serving(bare))
    assert run_es(cfg, bench, 5) == expected
    assert bare.bit_generator.state == rng.bit_generator.state


class TestRunSettingsValidation:
    def test_fixed_mu_lambda(self):
        # (1+4) is fixed, so neither size is a setting
        names = {f.name for f in dataclasses.fields(Settings)}
        assert not names & {"mu", "lam"}

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigError):
            make_settings(max_iterations=0)
