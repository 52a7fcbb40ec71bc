"""Benchmark construction and fitness functions.

A benchmark's class is its kind, and the one owner of what the kind
implies: the function set its genomes draw from, whether fitness is
maximised, and the default iteration budget and convergence threshold of a
run.  `benchmark_kind` maps a name to its class.

Boolean benchmarks are truth tables; fitness is the fraction of rows whose
entire output vector is reproduced.  The tables are stored row-wise and also
packed column-wise into integer bitmasks so a genome can be scored against
every row with a handful of bitwise operations.

Regression benchmarks are sampled or gridded datasets; fitness is the mean
absolute error over a split.  A dataset is a function of the benchmark and
the generator it is built with alone: nguyen7 and koza3 are sampled from
it, pagie1 and keijzer6 are grids that ignore it.  This module holds the
data and the fitness functions only; the harness writes a dataset's record
(`cli._build_bench`).

Bit conventions: the encoder/decoder index is binary least-significant-bit
first, while the multiplier reads its operand and product bit vectors
most-significant-bit first (so the row (1,0,1, 0,1,1) means 5 x 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .genome import ActiveSet, GraphParams, Genotype, evaluate_batch, evaluate_packed

BOOLEAN_NAMES = ("parity3", "encode16_4", "decode4_16", "multiply3")
REGRESSION_NAMES = ("nguyen7", "koza3", "pagie1", "keijzer6")


@dataclass
class BooleanBenchmark:
    function_set = "boolean"
    maximize = True
    # Boolean benchmarks nominally run on an unlimited budget; this safety cap
    # marks a runaway run as non-converged instead of hanging forever.
    budget = 10_000_000
    # a run converges once it reproduces every row
    threshold = 1.0

    name: str
    num_inputs: int
    num_outputs: int
    table: list[tuple[tuple[int, ...], tuple[int, ...]]]
    input_masks: tuple[int, ...] = field(init=False)
    target_masks: tuple[int, ...] = field(init=False)
    full_mask: int = field(init=False)

    def __post_init__(self) -> None:
        rows = len(self.table)
        in_masks = [0] * self.num_inputs
        out_masks = [0] * self.num_outputs
        for r, (bits_in, bits_out) in enumerate(self.table):
            for i, bit in enumerate(bits_in):
                in_masks[i] |= bit << r
            for o, bit in enumerate(bits_out):
                out_masks[o] |= bit << r
        self.input_masks = tuple(in_masks)
        self.target_masks = tuple(out_masks)
        self.full_mask = (1 << rows) - 1


@dataclass
class DataSplit:
    xs: np.ndarray  # shape (n_points, num_inputs)
    ys: np.ndarray  # shape (n_points,)

    def __len__(self) -> int:
        return len(self.ys)


@dataclass
class RegressionBenchmark:
    function_set = "regression"
    maximize = False
    budget = 500_000
    # a run converges once its mean absolute error falls below this
    threshold = 0.01
    num_outputs = 1

    name: str
    num_inputs: int
    train: DataSplit
    test: DataSplit | None = None


def _bits_lsb(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(width))


def _bits_msb(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def build_boolean(name: str) -> BooleanBenchmark:
    """Construct one of the four truth-table benchmarks."""
    if name == "parity3":
        table = [(_bits_lsb(r, 3), (r.bit_count() & 1,)) for r in range(8)]
        return BooleanBenchmark(name, 3, 1, table)
    if name == "encode16_4":
        # only the 16 one-hot rows form the encoder's domain
        table = [
            (tuple(1 if i == k else 0 for i in range(16)), _bits_lsb(k, 4))
            for k in range(16)
        ]
        return BooleanBenchmark(name, 16, 4, table)
    if name == "decode4_16":
        table = [
            (_bits_lsb(r, 4), tuple(1 if i == r else 0 for i in range(16)))
            for r in range(16)
        ]
        return BooleanBenchmark(name, 4, 16, table)
    if name == "multiply3":
        table = []
        for a in range(8):
            for b in range(8):
                table.append((_bits_msb(a, 3) + _bits_msb(b, 3), _bits_msb(a * b, 6)))
        return BooleanBenchmark(name, 6, 6, table)
    raise ConfigError(f"unknown boolean benchmark {name!r}; expected one of {BOOLEAN_NAMES}")


def build_regression(name: str, rng: np.random.Generator) -> RegressionBenchmark:
    """Construct one of the four regression benchmarks."""
    if name == "nguyen7":
        xs = rng.uniform(0.0, 2.0, 20)
        ys = np.log(xs + 1.0) + np.log(xs**2 + 1.0)
        return RegressionBenchmark(name, 1, DataSplit(xs.reshape(-1, 1), ys))
    if name == "koza3":
        xs = rng.uniform(-1.0, 1.0, 20)
        ys = xs**6 - 2.0 * xs**4 + xs**2
        return RegressionBenchmark(name, 1, DataSplit(xs.reshape(-1, 1), ys))
    if name == "pagie1":
        axis = -5.0 + 0.4 * np.arange(26)  # -5.0 to 5.0 in steps of 0.4
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        xs = np.column_stack([gx.ravel(), gy.ravel()])
        ys = 1.0 / (1.0 + xs[:, 0] ** -4) + 1.0 / (1.0 + xs[:, 1] ** -4)
        return RegressionBenchmark(name, 2, DataSplit(xs, ys))
    if name == "keijzer6":
        harmonic = np.cumsum(1.0 / np.arange(1, 121, dtype=np.float64))
        train = DataSplit(
            np.arange(1, 51, dtype=np.float64).reshape(-1, 1), harmonic[:50].copy()
        )
        test = DataSplit(
            np.arange(1, 121, dtype=np.float64).reshape(-1, 1), harmonic.copy()
        )
        return RegressionBenchmark(name, 1, train, test)
    raise ConfigError(
        f"unknown regression benchmark {name!r}; expected one of {REGRESSION_NAMES}"
    )


def benchmark_kind(name: str) -> type[BooleanBenchmark] | type[RegressionBenchmark]:
    """The class of the benchmark called ``name``."""
    if name in BOOLEAN_NAMES:
        return BooleanBenchmark
    if name in REGRESSION_NAMES:
        return RegressionBenchmark
    raise ConfigError(
        f"unknown benchmark {name!r}; expected one of {BOOLEAN_NAMES + REGRESSION_NAMES}"
    )


def build_benchmark(name: str, dataset_rng: np.random.Generator):
    """The benchmark called ``name``; a sampled dataset draws from ``dataset_rng``."""
    if benchmark_kind(name) is BooleanBenchmark:
        return build_boolean(name)
    return build_regression(name, dataset_rng)


def graph_params(bench, num_computational: int) -> GraphParams:
    """Graph shape matching a benchmark's inputs, outputs, and function set."""
    return GraphParams(
        num_inputs=bench.num_inputs,
        num_outputs=bench.num_outputs,
        num_computational=num_computational,
        function_set=bench.function_set,
    )


def boolean_fitness(
    genome: Genotype,
    bench: BooleanBenchmark,
    active: ActiveSet,
    parent: Genotype | None = None,
) -> float:
    """Fraction of table rows whose full output vector matches; exact in [0, 1].

    ``parent``, when ``genome`` is its mutant, is evaluated already, and
    ``genome`` is evaluated from it (see :func:`evaluate_packed`).
    """
    params = genome.params
    if params.num_inputs != bench.num_inputs or params.num_outputs != bench.num_outputs:
        raise ConfigError(
            f"genome shape {params.num_inputs}->{params.num_outputs} does not match "
            f"{bench.name} ({bench.num_inputs}->{bench.num_outputs})"
        )
    outputs = evaluate_packed(genome, bench.input_masks, bench.full_mask, active, parent)
    wrong = 0
    for out_mask, target in zip(outputs, bench.target_masks):
        wrong |= out_mask ^ target
    rows = len(bench.table)
    return (rows - wrong.bit_count()) / rows


def mae_fitness(
    genome: Genotype,
    data: DataSplit,
    active: ActiveSet,
    parent: Genotype | None = None,
) -> float:
    """Mean absolute error of the genome's single output over the split.

    ``parent``, when ``genome`` is its mutant, is evaluated on ``data.xs``
    already, and ``genome`` is evaluated from it (see :func:`evaluate_batch`).
    """
    if len(data) == 0:
        raise ConfigError("cannot score an empty dataset split")
    if genome.params.num_outputs != 1:
        raise ConfigError("mean-absolute-error scoring expects a single output")
    preds = evaluate_batch(genome, data.xs, active, parent)[:, 0]
    errors = np.subtract(data.ys, preds)
    np.abs(errors, out=errors)
    # np.mean's own sum and division, without its dispatch overhead; a sum
    # past the largest float is the score inf, not a fault
    with np.errstate(over="ignore"):
        return float(np.add.reduce(errors) / len(errors))

