import warnings

import numpy as np
import pytest

from cgp_reorder.benchmarks import (
    BOOLEAN_NAMES,
    REGRESSION_NAMES,
    BooleanBenchmark,
    DataSplit,
    RegressionBenchmark,
    benchmark_kind,
    boolean_fitness,
    build_boolean,
    build_regression,
    graph_params,
    mae_fitness,
    write_dataset,
)
from cgp_reorder.errors import ConfigError
from cgp_reorder.genome import GraphParams, Genotype, NodeGene, decode_active

from conftest import (
    parity3_xor_genome,
    read_dataset_csv,
    reference_grid,
    reference_parity3_table,
)


def constant_zero_genome(num_inputs, num_outputs, nodes=4):
    """NOR(x, x) of anything is 0 when x=1... not constant; use AND(a, NOT a).

    Simplest constant zero: y = AND(a, NOR(a, a)) since NOR(a,a) = NOT a.
    """
    params = GraphParams(num_inputs, num_outputs, nodes, "boolean")
    comp = [
        NodeGene(3, (0, 0)),  # NOR(a, a) = NOT a
        NodeGene(0, (0, params.comp_start)),  # AND(a, NOT a) = 0
    ]
    comp += [NodeGene(0, (0, 0)) for _ in range(nodes - 2)]
    outputs = tuple(params.comp_start + 1 for _ in range(num_outputs))
    return Genotype(params, comp, outputs)


class TestBooleanTables:
    def test_parity3_matches_xor_oracle(self):
        bench = build_boolean("parity3")
        assert bench.num_inputs == 3 and bench.num_outputs == 1
        assert len(bench.table) == 8
        for bits_in, bits_out in bench.table:
            assert bits_out == (bits_in[0] ^ bits_in[1] ^ bits_in[2],)

    def test_parity3_equals_the_xor_table(self):
        assert build_boolean("parity3").table == reference_parity3_table()

    def test_parity3_row_110(self):
        bench = build_boolean("parity3")
        row = dict((tuple(i), o) for i, o in bench.table)
        assert row[(1, 1, 0)] == (0,)

    def test_multiply3_against_integer_oracle(self):
        bench = build_boolean("multiply3")
        assert bench.num_inputs == 6 and bench.num_outputs == 6
        assert len(bench.table) == 64
        for bits_in, bits_out in bench.table:
            a = bits_in[0] * 4 + bits_in[1] * 2 + bits_in[2]
            b = bits_in[3] * 4 + bits_in[4] * 2 + bits_in[5]
            product = sum(bit << (5 - i) for i, bit in enumerate(bits_out))
            assert product == a * b

    def test_multiply3_five_times_three(self):
        bench = build_boolean("multiply3")
        row = dict((tuple(i), o) for i, o in bench.table)
        assert row[(1, 0, 1, 0, 1, 1)] == (0, 0, 1, 1, 1, 1)

    def test_encoder_covers_one_hot_rows_only(self):
        bench = build_boolean("encode16_4")
        assert bench.num_inputs == 16 and bench.num_outputs == 4
        assert len(bench.table) == 16
        for bits_in, bits_out in bench.table:
            assert sum(bits_in) == 1
            k = bits_in.index(1)
            assert bits_out == tuple((k >> i) & 1 for i in range(4))

    def test_decoder_row_zero_sets_bit_zero(self):
        bench = build_boolean("decode4_16")
        assert len(bench.table) == 16
        row = dict((tuple(i), o) for i, o in bench.table)
        assert row[(0, 0, 0, 0)] == (1,) + (0,) * 15

    def test_packed_masks_reconstruct_table(self):
        for name in ("parity3", "decode4_16", "multiply3"):
            bench = build_boolean(name)
            for r, (bits_in, bits_out) in enumerate(bench.table):
                assert bits_in == tuple((m >> r) & 1 for m in bench.input_masks)
                assert bits_out == tuple((m >> r) & 1 for m in bench.target_masks)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            build_boolean("parity9")


class TestBooleanFitness:
    def test_exact_circuit_scores_one(self):
        bench = build_boolean("parity3")
        genome = parity3_xor_genome()
        assert boolean_fitness(genome, bench, decode_active(genome)) == 1.0

    def test_constant_zero_on_parity_scores_half(self):
        bench = build_boolean("parity3")
        genome = constant_zero_genome(3, 1)
        assert boolean_fitness(genome, bench, decode_active(genome)) == 0.5

    def test_constant_zero_on_multiply_scores_fifteen_sixty_fourths(self):
        # oracle enumeration: the product is zero whenever either operand is
        # zero, which covers 8 + 7 = 15 of the 64 rows
        bench = build_boolean("multiply3")
        genome = constant_zero_genome(6, 6)
        zero_rows = sum(1 for a in range(8) for b in range(8) if a * b == 0)
        assert zero_rows == 15
        assert boolean_fitness(genome, bench, decode_active(genome)) == zero_rows / 64

    def test_row_counts_only_when_all_output_bits_match(self):
        # genome echoing input bit 0 to both outputs: compare to a table
        # where output 0 matches always but output 1 never does
        params = GraphParams(1, 2, 1, "boolean")
        genome = Genotype(params, [NodeGene(0, (0, 0))], (0, 0))
        bench_rows = [((0,), (0, 1)), ((1,), (1, 0))]
        from cgp_reorder.benchmarks import BooleanBenchmark

        bench = BooleanBenchmark("echo", 1, 2, bench_rows)
        assert boolean_fitness(genome, bench, decode_active(genome)) == 0.0

    def test_shape_mismatch_rejected(self):
        bench = build_boolean("parity3")
        genome = constant_zero_genome(6, 6)
        with pytest.raises(ConfigError):
            boolean_fitness(genome, bench, decode_active(genome))


class TestRegressionDatasets:
    def test_nguyen7_targets(self, rng):
        bench = build_regression("nguyen7", rng)
        assert bench.num_inputs == 1 and len(bench.train) == 20
        xs = bench.train.xs[:, 0]
        assert np.all((0 <= xs) & (xs <= 2))
        np.testing.assert_array_equal(
            bench.train.ys, np.log(xs + 1) + np.log(xs**2 + 1)
        )

    def test_nguyen7_target_at_zero_is_zero(self):
        assert np.log(0 + 1) + np.log(0 + 1) == 0.0

    def test_koza3_targets(self, rng):
        bench = build_regression("koza3", rng)
        xs = bench.train.xs[:, 0]
        assert len(xs) == 20 and np.all((-1 <= xs) & (xs <= 1))
        np.testing.assert_array_equal(bench.train.ys, xs**6 - 2 * xs**4 + xs**2)
        # x = 1 gives 1 - 2 + 1 = 0
        assert 1.0**6 - 2 * 1.0**4 + 1.0**2 == 0.0

    def test_pagie1_grid(self, rng):
        bench = build_regression("pagie1", rng)
        assert bench.num_inputs == 2
        assert len(bench.train) == 676  # 26 values per axis
        xs = bench.train.xs
        assert np.all(np.abs(xs) > 0.19)  # the grid never hits zero
        # the (1, 1) grid point exists and the standard form gives 1.0
        idx = np.where((xs[:, 0] == 1.0) & (xs[:, 1] == 1.0))[0]
        assert len(idx) == 1
        assert bench.train.ys[idx[0]] == pytest.approx(1.0)

    def test_pagie1_axis_equals_the_stepping_loop_byte_for_byte(self, rng):
        xs = build_regression("pagie1", rng).train.xs
        axis = reference_grid(-5.0, 5.0, 0.4)
        # the grid runs over the first input, then the second
        assert xs[::26, 0].tobytes() == axis.tobytes()
        assert xs[:26, 1].tobytes() == axis.tobytes()

    def test_keijzer6_harmonic_sums(self, rng):
        bench = build_regression("keijzer6", rng)
        assert len(bench.train) == 50
        assert bench.test is not None and len(bench.test) == 120
        assert bench.train.xs[0, 0] == 1.0 and bench.train.xs[-1, 0] == 50.0
        assert bench.train.ys[2] == pytest.approx(1 + 1 / 2 + 1 / 3)
        assert bench.test.ys[119] == pytest.approx(sum(1 / i for i in range(1, 121)))

    def test_sampled_datasets_reproducible_from_seed(self):
        a = build_regression("koza3", np.random.default_rng(5))
        b = build_regression("koza3", np.random.default_rng(5))
        np.testing.assert_array_equal(a.train.xs, b.train.xs)

    def test_grid_datasets_seed_independent(self):
        a = build_regression("pagie1", np.random.default_rng(1))
        b = build_regression("pagie1", np.random.default_rng(999))
        np.testing.assert_array_equal(a.train.xs, b.train.xs)
        np.testing.assert_array_equal(a.train.ys, b.train.ys)

    def test_unknown_name_rejected(self, rng):
        with pytest.raises(ConfigError):
            build_regression("vladislavleva4", rng)

    @pytest.mark.parametrize("name", REGRESSION_NAMES)
    def test_record_round_trip_bit_identical(self, name, rng, tmp_path):
        bench = build_regression(name, rng)
        write_dataset(bench, str(tmp_path), f"{name}_s1")
        for split_name, split in (("train", bench.train), ("test", bench.test)):
            path = tmp_path / f"{name}_s1_{split_name}.csv"
            if split is None:
                assert not path.exists()
                continue
            xs, ys = read_dataset_csv(path)
            assert xs.shape == split.xs.shape and xs.tobytes() == split.xs.tobytes()
            assert ys.shape == split.ys.shape and ys.tobytes() == split.ys.tobytes()

    def test_keijzer6_record_includes_test_split(self, rng, tmp_path):
        write_dataset(build_regression("keijzer6", rng), str(tmp_path), "k6")
        xs, _ = read_dataset_csv(tmp_path / "k6_test.csv")
        assert xs.shape == (120, 1)
        np.testing.assert_array_equal(xs[:, 0], np.arange(1, 121))


class TestMaeFitness:
    def test_identity_prediction_single_point(self):
        # genome forwards its input; dataset point (5, 2) scores |2 - 5| = 3
        params = GraphParams(1, 1, 1, "regression")
        genome = Genotype(params, [NodeGene(0, (0, 0))], (0,))
        split = DataSplit(np.array([[5.0]]), np.array([2.0]))
        assert mae_fitness(genome, split, decode_active(genome)) == 3.0

    def test_exact_fit_scores_zero(self):
        params = GraphParams(1, 1, 1, "regression")
        genome = Genotype(params, [NodeGene(0, (0, 0))], (0,))
        xs = np.linspace(-3, 3, 17).reshape(-1, 1)
        split = DataSplit(xs, xs[:, 0].copy())
        assert mae_fitness(genome, split, decode_active(genome)) == 0.0

    def test_constant_zero_on_koza3_scores_mean_abs_target(self, rng):
        bench = build_regression("koza3", rng)
        # LN of (x - x) is the protected zero, so SUB then LN gives constant 0
        params = GraphParams(1, 1, 2, "regression")
        genome = Genotype(
            params, [NodeGene(1, (0, 0)), NodeGene(6, (1, 1))], (2,)
        )
        expected = float(np.mean(np.abs(bench.train.ys)))
        score = mae_fitness(genome, bench.train, decode_active(genome))
        assert score == pytest.approx(expected, rel=0, abs=0)

    def test_overflowing_sum_scores_inf_without_warning(self):
        params = GraphParams(1, 1, 1, "regression")
        genome = Genotype(params, [NodeGene(0, (0, 0))], (0,))
        split = DataSplit(np.array([[1.7e308], [1.7e308]]), np.array([0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mae_fitness(genome, split, decode_active(genome)) == np.inf

    def test_empty_split_rejected(self):
        params = GraphParams(1, 1, 1, "regression")
        genome = Genotype(params, [NodeGene(0, (0, 0))], (0,))
        with pytest.raises(ConfigError):
            mae_fitness(genome, DataSplit(np.empty((0, 1)), np.empty(0)), decode_active(genome))


class TestHelpers:
    def test_benchmark_kind(self):
        assert all(benchmark_kind(name) is BooleanBenchmark for name in BOOLEAN_NAMES)
        assert all(benchmark_kind(name) is RegressionBenchmark for name in REGRESSION_NAMES)
        with pytest.raises(ConfigError):
            benchmark_kind("tictactoe")

    def test_graph_params_from_benchmark(self, rng):
        bench = build_boolean("decode4_16")
        params = graph_params(bench, 50)
        assert (params.num_inputs, params.num_outputs) == (4, 16)
        assert params.function_set == "boolean"
        reg = build_regression("pagie1", rng)
        assert graph_params(reg, 10).num_inputs == 2
