"""Aggregation of run results: positional-bias histograms, convergence
curves, and per-variant summary statistics.

Standard deviations are population deviations (divisor n), which is also
noted in the emitted file headers.  Finite fitnesses give finite means and
deviations, however large they are (see `mean_sd`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .benchmarks import write_atomic
from .errors import AggregationError
from .evolution import ConvergenceTrace, RunResult


@dataclass
class PositionalBiasHistogram:
    """Per-position probability of being active in the final solution."""

    probabilities: list[float]
    num_runs: int

    def normalized_positions(self) -> list[float]:
        n = len(self.probabilities)
        if n == 1:
            return [0.0]
        return [i / (n - 1) for i in range(n)]


@dataclass
class SummaryRow:
    variant: str
    benchmark: str
    nodes: int
    p_reorder: float
    runs: int
    mean_iterations: float
    sd_iterations: float
    mean_active: float
    success_rate: float
    mean_train_fitness: float
    mean_test_fitness: float | None
    config: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def format_line(self) -> str:
        test = (
            f"{self.mean_test_fitness:.6g}" if self.mean_test_fitness is not None else "-"
        )
        return (
            f"{self.benchmark:<12} {self.variant:<12} N={self.nodes:<5} "
            f"p={self.p_reorder:<4g} runs={self.runs:<3} SR={self.success_rate:.3f} "
            f"mean_I2S={self.mean_iterations:.1f} sd_I2S={self.sd_iterations:.1f} "
            f"active={self.mean_active:.1f} train={self.mean_train_fitness:.6g} "
            f"test={test}"
        )


@dataclass
class ConvergenceCurve:
    iterations: list[int]
    mean_fitness: list[float]
    sd_fitness: list[float]


def active_distribution(results: Sequence[RunResult]) -> PositionalBiasHistogram:
    """Position-wise mean of the final-solution active bitmaps."""
    if not results:
        raise AggregationError("no results to aggregate")
    width = len(results[0].active_bitmap)
    for r in results:
        if len(r.active_bitmap) != width:
            raise AggregationError(
                f"mixed node counts: seed {r.seed} has {len(r.active_bitmap)} "
                f"positions, expected {width}"
            )
    bits = np.frombuffer("".join(r.active_bitmap for r in results).encode(), dtype=np.uint8)
    counts = (bits.reshape(len(results), width) - ord("0")).sum(axis=0)
    return PositionalBiasHistogram((counts / len(results)).tolist(), len(results))


def mean_sd(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population sd of ``values`` over axis 0, column by column.

    A column of finite values whose plain float64 mean or sd overflows is
    divided by its largest magnitude, summarised, and scaled back, so that
    finite fitnesses give finite figures; every other column keeps numpy's
    plain result.  A column of identical values, infinities included, has
    an sd of exactly zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = np.mean(values, axis=0), np.std(values, axis=0)
        redo = ~(np.isfinite(mean) & np.isfinite(sd)) & np.isfinite(values).all(axis=0)
        if redo.any():
            scale = np.where(redo, np.abs(values).max(axis=0), 1.0)
            mean = np.where(redo, np.mean(values / scale, axis=0) * scale, mean)
            sd = np.where(redo, np.std(values / scale, axis=0) * scale, sd)
    return mean, np.where((values == values[0]).all(axis=0), 0.0, sd)


def summarize(results: Sequence[RunResult], config: dict) -> SummaryRow:
    """Descriptive statistics over one variant's run set; the row is named
    by the benchmark, variant, nodes and p_reorder of its ``config``."""
    if not results:
        raise AggregationError("no results to summarize")
    mean = lambda values: float(mean_sd(np.asarray(values, dtype=np.float64))[0])
    mean_iterations, sd_iterations = mean_sd(
        np.asarray([r.iterations for r in results], dtype=np.float64)
    )
    tests = [r.final_test_fitness for r in results]
    mean_test = mean(tests) if all(t is not None for t in tests) else None
    return SummaryRow(
        variant=config["variant"],
        benchmark=config["benchmark"],
        nodes=config["nodes"],
        p_reorder=config["p_reorder"],
        runs=len(results),
        mean_iterations=float(mean_iterations),
        sd_iterations=float(sd_iterations),
        mean_active=float(np.mean([r.active_count for r in results])),
        success_rate=sum(1 for r in results if r.converged) / len(results),
        mean_train_fitness=mean([r.final_train_fitness for r in results]),
        mean_test_fitness=mean_test,
        config=config,
    )


def default_grid(traces: Sequence[ConvergenceTrace], points: int = 257) -> list[int]:
    """Evenly spaced iteration grid covering the longest trace."""
    last = max((t.samples[-1][0] for t in traces if t.samples), default=0)
    return sorted({int(round(v)) for v in np.linspace(0, last, points)})


def convergence_mean(
    traces: Sequence[ConvergenceTrace], grid: Sequence[int]
) -> ConvergenceCurve:
    """Mean and population sd of best-so-far fitness at each grid iteration.

    Traces are step functions: between samples the previous value holds, and
    a run that stopped early keeps contributing its final value.
    """
    if not traces:
        raise AggregationError("no traces to aggregate")
    values = np.empty((len(traces), len(grid)))
    for t_idx, trace in enumerate(traces):
        iterations, fitnesses = zip(*trace.samples)
        last = np.searchsorted(iterations, grid, side="right") - 1
        values[t_idx] = np.asarray(fitnesses)[np.maximum(last, 0)]
    mean, sd = mean_sd(values)
    return ConvergenceCurve(
        iterations=list(grid), mean_fitness=mean.tolist(), sd_fitness=sd.tolist()
    )


def config_comment_lines(config: dict) -> list[str]:
    return [f"# {key}={config[key]}" for key in sorted(config)]


def write_histogram_csv(path: str, hist: PositionalBiasHistogram, config: dict) -> None:
    lines = config_comment_lines(config)
    lines.append(f"# runs={hist.num_runs}")
    lines.append("position,normalized_position,probability")
    for pos, (norm, prob) in enumerate(
        zip(hist.normalized_positions(), hist.probabilities)
    ):
        lines.append(f"{pos},{norm!r},{prob!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def write_convergence_csv(path: str, curve: ConvergenceCurve, config: dict) -> None:
    lines = config_comment_lines(config)
    lines.append("# sd is the population standard deviation over runs (divisor n)")
    lines.append("iteration,mean_fitness,sd")
    for it, mean, sd in zip(curve.iterations, curve.mean_fitness, curve.sd_fitness):
        lines.append(f"{it},{mean!r},{sd!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def write_summary_jsonl(path: str, rows: Sequence[SummaryRow]) -> None:
    write_atomic(path, "".join(row.to_json() + "\n" for row in rows))
