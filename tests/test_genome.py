import importlib.util
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgp_reorder.errors import ConfigError
from cgp_reorder.functions import REGRESSION_SET
from cgp_reorder.genome import (
    GraphParams,
    Genotype,
    NodeGene,
    decode_active,
    evaluate_batch,
    evaluate_packed,
    random_genome,
    to_flat_text,
)

from conftest import (
    chain_genome,
    fig1_genome,
    full_forward_pass,
    packed_inputs,
    parity3_xor_genome,
    sorted_readers,
    validate,
)


class TestGraphParams:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ConfigError):
            GraphParams(0, 1, 3)
        with pytest.raises(ConfigError):
            GraphParams(2, 1, 0)

    def test_position_helpers(self):
        p = GraphParams(2, 1, 3)
        assert p.comp_start == 2
        assert p.comp_end == 4
        assert p.num_connectable == 5

    def test_functions_is_the_registered_set_and_stays_out_of_pickles(self):
        p = GraphParams(2, 1, 3, "regression")
        fresh = pickle.dumps(p)
        assert p.functions() is REGRESSION_SET
        assert p.functions() is p.functions()
        # a call changes neither the pickle, nor equality, nor the hash
        assert pickle.dumps(p) == fresh
        copy = pickle.loads(fresh)
        assert copy == p and hash(copy) == hash(p)
        assert copy.functions() is REGRESSION_SET


class TestDecodeActive:
    def test_fig1_active_set(self):
        active = decode_active(fig1_genome())
        assert active.bitmap == [False, True, True]
        assert active.count == 2

    def test_output_to_input_gives_empty_active_set(self):
        params = GraphParams(2, 1, 3, "boolean")
        g = Genotype(params, [NodeGene(0, (0, 1))] * 3, (0,))
        active = decode_active(g)
        assert active.count == 0
        assert active.positions() == []

    def test_full_chain_all_active(self):
        g = chain_genome(10)
        assert decode_active(g).count == 10

    def test_unary_excess_gene_does_not_activate(self):
        # SIN node consumes only its first connection; the second points at
        # another computational node that must stay inactive
        params = GraphParams(1, 1, 3, "regression")
        nodes = [NodeGene(0, (0, 0)), NodeGene(0, (0, 0)), NodeGene(4, (0, 2))]
        g = Genotype(params, nodes, (3,))
        active = decode_active(g)
        assert active.bitmap == [False, False, True]

    def test_idempotent_pure_function(self):
        g = fig1_genome()
        assert sorted_readers(decode_active(g)) == sorted_readers(decode_active(g))


class TestEvaluate:
    def test_fig1_subtract_then_double(self):
        g = fig1_genome()
        assert evaluate_batch(g, np.array([[5.0, 3.0]]), decode_active(g)).tolist() == [[4.0]]

    @pytest.mark.parametrize("x", [0.0, 1.0, -7.5, 123.25])
    def test_fig1_equal_inputs_give_zero(self, x):
        g = fig1_genome()
        assert evaluate_batch(g, np.array([[x, x]]), decode_active(g)).tolist() == [[0.0]]

    def test_parity_circuit_against_xor_oracle(self):
        masks, full = packed_inputs(3)
        g = parity3_xor_genome()
        (packed,) = evaluate_packed(g, masks, full, decode_active(g))
        for r in range(8):
            bits = [(r >> i) & 1 for i in range(3)]
            assert (packed >> r) & 1 == bits[0] ^ bits[1] ^ bits[2]

    def test_parity_circuit_row_110(self):
        # one row packed into 1-bit masks: inputs a=1, b=1, c=0
        g = parity3_xor_genome()
        assert evaluate_packed(g, [1, 1, 0], 1, decode_active(g)) == [0]

    def test_deterministic(self):
        g = fig1_genome()
        xs = np.array([[2.0, 9.0]])
        first = evaluate_batch(g, xs, decode_active(g))
        assert np.array_equal(first, evaluate_batch(g, xs, decode_active(g)))

    def test_wrong_input_count_rejected(self):
        g = fig1_genome()
        with pytest.raises(ConfigError):
            evaluate_batch(g, np.array([[1.0]]), decode_active(g))


class TestRandomGenome:
    def test_first_computational_node_references_inputs_only(self):
        params = GraphParams(2, 1, 3)
        for seed in range(30):
            g = random_genome(params, np.random.default_rng(seed))
            assert all(c in (0, 1) for c in g.computational[0].connections)

    def test_single_node_single_input(self):
        params = GraphParams(1, 1, 1)
        for seed in range(10):
            g = random_genome(params, np.random.default_rng(seed))
            assert g.computational[0].connections == (0, 0)
            assert g.output_connections[0] in (0, 1)

    def test_fixed_seed_reproducible(self):
        params = GraphParams(2, 1, 3)
        a = random_genome(params, np.random.default_rng(42))
        b = random_genome(params, np.random.default_rng(42))
        assert a == b

    @pytest.mark.parametrize(
        "params",
        [
            GraphParams(2, 1, 10, "boolean"),
            GraphParams(3, 1, 40, "boolean"),
            GraphParams(6, 6, 25, "boolean"),
            GraphParams(1, 1, 30, "regression"),
            GraphParams(2, 1, 15, "regression"),
        ],
    )
    def test_thousand_random_genomes_validate_clean(self, params):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            assert validate(random_genome(params, rng)) == []


class TestValidate:
    def test_forward_connection_reported_with_position(self):
        params = GraphParams(2, 1, 6)
        g = random_genome(params, np.random.default_rng(0))
        g.computational[3] = NodeGene(0, (7, 0))  # node at position 5 -> 7
        report = validate(g)
        assert len(report) == 1
        assert "node 5" in report[0] and "7" in report[0]

    def test_output_pointing_at_output_position_reported(self):
        params = GraphParams(2, 1, 3)
        g = random_genome(params, np.random.default_rng(0))
        g.output_connections = (5,)  # first output position
        report = validate(g)
        assert len(report) == 1
        assert "output" in report[0]

    def test_bad_function_id_reported(self):
        g = fig1_genome()
        g.computational[0] = NodeGene(99, (0, 1))
        assert any("function id" in line for line in validate(g))


class TestPackedEvaluation:
    @pytest.mark.parametrize("num_inputs,num_outputs", [(3, 1), (4, 2), (6, 6)])
    def test_packed_equals_rowwise(self, num_inputs, num_outputs):
        params = GraphParams(num_inputs, num_outputs, 20, "boolean")
        masks, full = packed_inputs(num_inputs)
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_genome(params, rng)
            packed = evaluate_packed(g, masks, full, decode_active(g))
            for r in range(1 << num_inputs):
                bits = [(r >> i) & 1 for i in range(num_inputs)]
                rowwise = full_forward_pass(g, bits)
                assert [(m >> r) & 1 for m in packed] == rowwise

    def test_packed_rejects_regression_set(self):
        g = fig1_genome()
        with pytest.raises(ConfigError):
            evaluate_packed(g, [0, 0], 1, decode_active(g))


class TestBatchEvaluation:
    def test_batch_equals_scalar(self):
        params = GraphParams(2, 1, 15, "regression")
        xs = np.array([[0.5, 1.5], [2.0, -3.0], [1.0, 1.0], [-0.25, 8.0]])
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_genome(params, rng)
            batch = evaluate_batch(g, xs, decode_active(g))
            for row in range(xs.shape[0]):
                scalar = full_forward_pass(g, list(xs[row]))
                np.testing.assert_allclose(batch[row], scalar, rtol=1e-12, atol=1e-12)

    def test_batch_rejects_boolean_set(self):
        g = chain_genome(3)
        with pytest.raises(ConfigError):
            evaluate_batch(g, np.zeros((2, 2)), decode_active(g))

    def test_batch_output_finite_for_finite_inputs(self):
        params = GraphParams(1, 1, 30, "regression")
        xs = np.linspace(-50, 50, 31).reshape(-1, 1)
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_genome(params, rng)
            assert np.all(np.isfinite(evaluate_batch(g, xs, decode_active(g))))


def _benchmark_reference():
    # perfbench/reference.py: the reader the benchmark's checker parses dumps with
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


reference = _benchmark_reference()

# the errors the checker turns into a failed "structure" check
DUMP_REJECTED = (ValueError, KeyError)


class TestFlatSerialization:
    """`to_flat_text` against the benchmark checker's own dump reader."""

    def test_round_trip(self):
        shapes = [GraphParams(3, 2, 12, "boolean"), GraphParams(2, 3, 15, "regression")]
        for params in shapes:
            for seed in range(10):
                g = random_genome(params, np.random.default_rng(seed))
                assert reference.parse_flat(to_flat_text(g)) == reference.from_program(g)

    def test_format_lines(self):
        text = to_flat_text(fig1_genome())
        lines = text.strip().splitlines()
        assert "arity=2" in lines[0].split()
        assert lines[1] == "2 3 0 1"
        assert lines[-1] == "out_0 4"

    def test_missing_header_rejected(self):
        with pytest.raises(DUMP_REJECTED):
            reference.parse_flat("2 0 0 1\nout_0 2\n")

    @pytest.mark.parametrize("genes", [("0",), ("0", "1", "1")])
    def test_other_arity_rejected(self, genes):
        # the header says two connection genes, the nodes carry another count
        text = (
            "# inputs=2 outputs=1 nodes=2 arity=2 function_set=boolean\n"
            f"2 0 {' '.join(genes)}\n3 1 {' '.join(genes)}\nout_0 3\n"
        )
        with pytest.raises(ValueError, match="connection genes"):
            reference.parse_flat(text)

    @pytest.mark.parametrize(
        "text",
        [
            "# inputs=2 outputs=1 nodes=1 function_set=boolean\n2 0 0 1\nout_0 2\n",
            "# inputs=2 outputs=1 nodes=1 arity=2 function_set=boolean\n2 0 x 1\nout_0 2\n",
            "# inputs=2 outputs=1 nodes=1 arity=2 function_set=boolean\n2 0 0 1\nstray line\nout_0 2\n",
        ],
        ids=["no-arity", "non-integer-gene", "stray-line"],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(DUMP_REJECTED):
            reference.parse_flat(text)


class TestFullPassEquivalence:
    def test_boolean_full_pass_matches_active_only(self):
        params = GraphParams(3, 2, 18, "boolean")
        masks, full = packed_inputs(3)
        for seed in range(30):
            g = random_genome(params, np.random.default_rng(seed))
            packed = evaluate_packed(g, masks, full, decode_active(g))
            assert packed == full_forward_pass(g, masks, full)

    def test_regression_full_pass_matches_active_only(self):
        params = GraphParams(2, 1, 12, "regression")
        xs = np.array([[0.5, -1.5], [2.0, 3.0], [-0.75, 0.1]])
        for seed in range(30):
            g = random_genome(params, np.random.default_rng(seed))
            (full,) = full_forward_pass(g, [xs[:, 0], xs[:, 1]])
            assert np.array_equal(evaluate_batch(g, xs, decode_active(g))[:, 0], full)


genome_shapes = st.sampled_from(
    [
        (2, 1, 8, "boolean"),
        (3, 1, 12, "boolean"),
        (4, 3, 10, "boolean"),
        (1, 1, 9, "regression"),
        (2, 2, 14, "regression"),
    ]
)


@given(genome_shapes, st.integers(0, 2**32 - 1))
def test_random_genomes_always_valid(shape, seed):
    num_in, num_out, nodes, fset = shape
    params = GraphParams(num_in, num_out, nodes, fset)
    g = random_genome(params, np.random.default_rng(seed))
    assert validate(g) == []
    active = decode_active(g)
    assert active.count == sum(active.bitmap)
