"""Aggregation of run results: positional-bias histograms, convergence
curves, and per-variant summary statistics.

Standard deviations are population deviations (divisor n), which is also
noted in the emitted file headers.
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

    @property
    def num_positions(self) -> int:
        return len(self.probabilities)

    def normalized_positions(self) -> list[float]:
        n = self.num_positions
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
    counts = np.zeros(width)
    for r in results:
        counts += np.frombuffer(r.active_bitmap.encode(), dtype=np.uint8) - ord("0")
    return PositionalBiasHistogram((counts / len(results)).tolist(), len(results))


def summarize(results: Sequence[RunResult], config: dict) -> SummaryRow:
    """Descriptive statistics over one variant's run set; the row is named
    by the benchmark, variant, nodes and p_reorder of its ``config``."""
    if not results:
        raise AggregationError("no results to summarize")
    iterations = np.asarray([r.iterations for r in results], dtype=np.float64)
    tests = [r.final_test_fitness for r in results]
    mean_test = (
        float(np.mean([t for t in tests])) if all(t is not None for t in tests) else None
    )
    return SummaryRow(
        variant=config["variant"],
        benchmark=config["benchmark"],
        nodes=config["nodes"],
        p_reorder=config["p_reorder"],
        runs=len(results),
        mean_iterations=float(np.mean(iterations)),
        sd_iterations=float(np.std(iterations)),
        mean_active=float(np.mean([r.active_count for r in results])),
        success_rate=sum(1 for r in results if r.converged) / len(results),
        mean_train_fitness=float(np.mean([r.final_train_fitness for r in results])),
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
        samples = trace.samples
        cursor = 0
        current = samples[0][1]
        for g_idx, point in enumerate(grid):
            while cursor < len(samples) and samples[cursor][0] <= point:
                current = samples[cursor][1]
                cursor += 1
            values[t_idx, g_idx] = current
    sd = np.std(values, axis=0)
    sd[np.ptp(values, axis=0) == 0.0] = 0.0  # identical values: exactly zero
    return ConvergenceCurve(
        iterations=list(grid),
        mean_fitness=np.mean(values, axis=0).tolist(),
        sd_fitness=sd.tolist(),
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
