import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.analysis import (
    active_distribution,
    convergence_mean,
    default_grid,
    mean_sd,
    summarize,
    summary_line,
    write_csv,
    write_jsonl,
)
from cgp_reorder.cli import EXIT_OK, main
from cgp_reorder.errors import AggregationError

from conftest import (
    decile_means,
    reference_active_probabilities,
    reference_convergence_mean,
)

CONFIG = {"benchmark": "parity3", "variant": "none", "nodes": 4, "p_reorder": 1.0}


def make_record(seed=0, bitmap="0000", iterations=10, converged=True, train=1.0, test=None):
    """A results.jsonl record as `run` writes it."""
    return {
        "seed": seed,
        "converged": converged,
        "iterations": iterations,
        "evaluations": 4 * iterations,
        "final_train_fitness": train,
        "final_test_fitness": test,
        "active_count": bitmap.count("1"),
        "active_bitmap": bitmap,
        "union_active_bitmap": None,
        "config": CONFIG,
    }


class TestActiveDistribution:
    def test_single_run_equals_its_bitmap(self):
        assert active_distribution([make_record(bitmap="0110")]) == [0.0, 1.0, 1.0, 0.0]

    def test_two_disjoint_runs_average_to_half(self):
        probabilities = active_distribution(
            [make_record(bitmap="10"), make_record(seed=1, bitmap="01")]
        )
        assert probabilities == [0.5, 0.5]

    def test_empty_input_rejected(self):
        with pytest.raises(AggregationError):
            active_distribution([])

    @staticmethod
    def written_columns(tmp_path, nodes):
        """The histogram `analyze` writes for one parity3 run of ``nodes``
        nodes, as its position and normalized-position columns."""
        runs, out = tmp_path / "runs", tmp_path / "analysis"
        argv = ["--bench", "parity3", "--nodes", str(nodes), "--seeds", "0",
                "--max-iterations", "5", "--workers", "1", "--out", str(runs)]
        assert main(["run", *argv]) == EXIT_OK
        assert main(["analyze", str(runs), "--out", str(out)]) == EXIT_OK
        text = (out / f"histogram_parity3_none_N{nodes}_p1.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()[-nodes:]]
        return [row[0] for row in rows], [row[1] for row in rows]

    def test_normalized_positions(self, tmp_path):
        positions, normalized = self.written_columns(tmp_path, 4)
        assert positions == ["0", "1", "2", "3"]
        assert normalized == [repr(v) for v in (0.0, 1 / 3, 2 / 3, 1.0)]

    def test_a_lone_position_is_normalized_to_zero(self, tmp_path):
        assert self.written_columns(tmp_path, 1) == (["0"], ["0.0"])

    def test_decile_means_cover_all_positions(self):
        assert decile_means(active_distribution([make_record(bitmap="1" * 50)])) == [1.0] * 10


class TestSummarize:
    def test_success_rate_all_converged(self):
        rows = [make_record(seed=s) for s in range(4)]
        summary = summarize(rows)
        assert summary["success_rate"] == 1.0

    def test_mean_and_population_sd(self):
        rows = [make_record(seed=s, iterations=i) for s, i in enumerate((10, 20, 30))]
        summary = summarize(rows)
        assert summary["mean_iterations"] == 20.0
        assert summary["sd_iterations"] == pytest.approx(np.sqrt(200 / 3))

    def test_mean_test_fitness_only_when_all_runs_have_it(self):
        with_test = [make_record(seed=s, test=0.5) for s in range(2)]
        assert summarize(with_test)["mean_test_fitness"] == 0.5
        mixed = [make_record(seed=0, test=0.5), make_record(seed=1)]
        assert summarize(mixed)["mean_test_fitness"] is None

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            summarize([])

    @pytest.mark.parametrize("first_test, shown", [(0.25, "0.375"), (None, "-")])
    def test_summary_line(self, first_test, shown):
        rows = [
            make_record(seed=0, bitmap="0100", iterations=10, train=0.5, test=first_test),
            make_record(seed=1, bitmap="0100", iterations=30, converged=False, test=0.5),
        ]
        assert summary_line(summarize(rows)) == (
            "parity3      none         N=4     p=1    runs=2   SR=0.500 mean_I2S=20.0 "
            f"sd_I2S=10.0 active=1.0 train=0.75 test={shown}"
        )


@st.composite
def bitmaps(draw):
    width = draw(st.integers(1, 60))
    bitmap = st.text(alphabet="01", min_size=width, max_size=width)
    return draw(st.lists(bitmap, min_size=1, max_size=8))


@given(bitmaps())
def test_active_distribution_equals_the_per_result_sum_byte_for_byte(maps):
    probabilities = active_distribution([make_record(s, bitmap) for s, bitmap in enumerate(maps)])
    expected = reference_active_probabilities(maps)
    assert np.asarray(probabilities).tobytes() == np.asarray(expected).tobytes()


@st.composite
def traces(draw):
    """A trace of strictly ascending iterations with finite fitnesses."""
    iterations = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=10)))
    fitness = st.floats(-1e6, 1e6, allow_nan=False)
    return [(i, draw(fitness)) for i in iterations]


@given(
    st.lists(traces(), min_size=1, max_size=6),
    st.lists(st.integers(-10, 350), max_size=30).map(sorted),
)
def test_convergence_mean_equals_the_cursor_merge_byte_for_byte(runs, grid):
    mean, sd = convergence_mean(runs, grid)
    expected_mean, expected_sd = reference_convergence_mean(runs, grid)
    assert np.asarray(mean).tobytes() == np.asarray(expected_mean).tobytes()
    assert np.asarray(sd).tobytes() == np.asarray(expected_sd).tobytes()


class TestMeanSd:
    """Finite values give finite means and sds."""

    def test_deviations_too_large_to_square(self):
        # the iteration-0 fitnesses of two keijzer6 seeds
        a = [(0, 4.868313862735679e303)]
        b = [(0, 3.96)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, sd = convergence_mean([a, b], [0])
        assert mean == [pytest.approx(2.4341569313678394e303)]
        assert sd == [pytest.approx(2.4341569313678394e303)]

    def test_values_too_large_to_sum(self):
        rows = [make_record(train=v, test=v) for v in (1.7e308, 1.6e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarize(rows)
            traces = [[(0, 0.5), (r["iterations"], r["final_train_fitness"])] for r in rows]
            mean, sd = convergence_mean(traces, [10])
        assert summary["mean_train_fitness"] == pytest.approx(1.65e308)
        assert summary["mean_test_fitness"] == pytest.approx(1.65e308)
        assert mean == [pytest.approx(1.65e308)]
        assert sd == [pytest.approx(0.05e308)]

    def test_only_a_column_that_overflows_is_rescaled(self):
        values = np.array([[1e308, 0.1, 2.0], [1e308, 0.7, 2.0], [-5.0, 0.3, 2.0]])
        mean, sd = mean_sd(values)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(sd))
        assert mean[1:].tobytes() == np.mean(values[:, 1:], axis=0).tobytes()
        assert sd[1:].tobytes() == np.std(values[:, 1:], axis=0).tobytes()

    @pytest.mark.parametrize("value", [float("inf"), 1e308, 0.1])
    def test_identical_values_have_zero_sd(self, value):
        mean, sd = mean_sd(np.array([[value], [value]]))
        assert mean.tolist() == [value]
        assert sd.tolist() == [0.0]

    def test_an_infinite_fitness_keeps_an_infinite_mean(self):
        mean, _ = mean_sd(np.array([[float("inf")], [3.0]]))
        assert mean.tolist() == [float("inf")]


class TestConvergenceMean:
    def test_identical_traces_have_zero_sd(self):
        trace = [(0, 1.0), (5, 0.5), (10, 0.1)]
        _, sd = convergence_mean([trace, trace, trace], [0, 5, 10])
        assert sd == [0.0, 0.0, 0.0]

    def test_two_run_mean_and_sd(self):
        a = [(0, 0.4)]
        b = [(0, 0.6)]
        mean, sd = convergence_mean([a, b], [3])
        assert mean == [0.5]
        assert sd == [pytest.approx(0.1)]

    def test_step_interpolation_holds_last_value(self):
        trace = [(0, 1.0), (4, 0.25)]
        mean, _ = convergence_mean([trace], [0, 1, 4, 100])
        assert mean == [1.0, 1.0, 0.25, 0.25]

    def test_order_invariant(self):
        a = [(0, 0.9), (2, 0.3)]
        b = [(0, 0.7), (5, 0.2)]
        grid = [0, 2, 5, 9]
        assert convergence_mean([a, b], grid) == convergence_mean([b, a], grid)

    def test_mean_of_monotone_traces_is_monotone(self):
        rng = np.random.default_rng(0)
        traces = []
        for _ in range(10):
            points = sorted(rng.integers(1, 100, 5))
            values = sorted(rng.random(5), reverse=True)
            traces.append([(0, 1.0)] + list(zip(points, values)))
        grid = default_grid(traces, 40)
        mean, _ = convergence_mean(traces, grid)
        assert all(b <= a + 1e-12 for a, b in zip(mean, mean[1:]))

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            convergence_mean([], [0, 1])

    def test_identical_infinities_have_zero_sd(self):
        # seeds whose error sum overflowed
        runs = [[(0, float("inf"))], [(0, float("inf"))]]
        mean, sd = convergence_mean(runs, [0, 5])
        assert mean == [float("inf")] * 2
        assert sd == [0.0, 0.0]


class TestWriters:
    def test_histogram_csv_round_trip(self, tmp_path):
        probabilities = active_distribution([make_record(bitmap="0110")])
        path = tmp_path / "hist.csv"
        rows = ((pos, pos / 3, prob) for pos, prob in enumerate(probabilities))
        header = "position,normalized_position,probability"
        write_csv(str(path), {"nodes": 4, "benchmark": "parity3"}, ["runs=1"], header, rows)
        assert path.read_text().splitlines() == [
            "# benchmark=parity3", "# nodes=4", "# runs=1", header,
            "0,0.0,0.0", "1,0.3333333333333333,1.0", "2,0.6666666666666666,1.0", "3,1.0,0.0",
        ]

    def test_convergence_csv_format(self, tmp_path):
        path = tmp_path / "conv.csv"
        rows = zip([0, 10], [0.5, 0.25], [0.1, 0.0])
        write_csv(str(path), {"variant": "none"}, [], "iteration,mean_fitness,sd", rows)
        lines = path.read_text().strip().splitlines()
        assert lines == ["# variant=none", "iteration,mean_fitness,sd", "0,0.5,0.1", "10,0.25,0.0"]

    def test_summary_jsonl(self, tmp_path):
        import json

        rows = [summarize([make_record()])]
        path = tmp_path / "summary.jsonl"
        write_jsonl(str(path), rows)
        record = json.loads(path.read_text().strip())
        assert record["variant"] == "none"
        assert (record["benchmark"], record["nodes"], record["p_reorder"]) == ("parity3", 4, 1.0)
        assert record["config"] == CONFIG
        assert record["runs"] == 1
