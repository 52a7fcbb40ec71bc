"""Aggregation of `results.jsonl` records: positional-bias histograms,
convergence curves, per-variant summary statistics, and the one CSV writer.

Aggregation reads the records as they are on disk: one dict per seed, keyed
by `cli.RECORD_FIELDS`, and each trace as its list of ``(iteration, best
fitness)`` samples.  Standard deviations are population deviations
(divisor n), which is also noted in the emitted file headers.  Finite
fitnesses give finite means and deviations, however large they are (see
`mean_sd`).  Every CSV the harness writes, traces included, goes through
`write_csv`: the effective config as sorted ``# key=value`` lines, free
``# `` notes, a header, and one line per row with every value spelled by
``repr``, so each float reads back exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .benchmarks import write_atomic
from .errors import AggregationError


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


def active_distribution(records: Sequence[dict]) -> list[float]:
    """Position-wise mean of the records' ``active_bitmap`` strings (the
    final solutions' active nodes), all as wide as the first: each
    position's probability of being active."""
    if not records:
        raise AggregationError("no results to aggregate")
    width = len(records[0]["active_bitmap"])
    bits = np.frombuffer("".join(r["active_bitmap"] for r in records).encode(), dtype=np.uint8)
    counts = (bits.reshape(len(records), width) - ord("0")).sum(axis=0)
    return (counts / len(records)).tolist()


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


def summarize(records: Sequence[dict], config: dict) -> SummaryRow:
    """Descriptive statistics over one variant's `results.jsonl` records;
    the row is named by the benchmark, variant, nodes and p_reorder of its
    ``config``."""
    if not records:
        raise AggregationError("no results to summarize")
    mean = lambda values: float(mean_sd(np.asarray(values, dtype=np.float64))[0])
    mean_iterations, sd_iterations = mean_sd(
        np.asarray([r["iterations"] for r in records], dtype=np.float64)
    )
    tests = [r["final_test_fitness"] for r in records]
    mean_test = mean(tests) if all(t is not None for t in tests) else None
    return SummaryRow(
        variant=config["variant"],
        benchmark=config["benchmark"],
        nodes=config["nodes"],
        p_reorder=config["p_reorder"],
        runs=len(records),
        mean_iterations=float(mean_iterations),
        sd_iterations=float(sd_iterations),
        mean_active=float(np.mean([r["active_count"] for r in records])),
        success_rate=sum(1 for r in records if r["converged"]) / len(records),
        mean_train_fitness=mean([r["final_train_fitness"] for r in records]),
        mean_test_fitness=mean_test,
        config=config,
    )


def default_grid(traces: Sequence[list[tuple[int, float]]], points: int = 257) -> list[int]:
    """Evenly spaced iteration grid covering the longest trace."""
    last = max((t[-1][0] for t in traces if t), default=0)
    return sorted({int(round(v)) for v in np.linspace(0, last, points)})


def convergence_mean(
    traces: Sequence[list[tuple[int, float]]], grid: Sequence[int]
) -> tuple[list[float], list[float]]:
    """Mean and population sd of best-so-far fitness at each grid iteration,
    over traces of ascending ``(iteration, fitness)`` samples.

    Traces are step functions: between samples the previous value holds, and
    a run that stopped early keeps contributing its final value.
    """
    if not traces:
        raise AggregationError("no traces to aggregate")
    values = np.empty((len(traces), len(grid)))
    for t_idx, trace in enumerate(traces):
        iterations, fitnesses = zip(*trace)
        last = np.searchsorted(iterations, grid, side="right") - 1
        values[t_idx] = np.asarray(fitnesses)[np.maximum(last, 0)]
    mean, sd = mean_sd(values)
    return mean.tolist(), sd.tolist()


def write_csv(
    path: str, config: dict, notes: Sequence[str], header: str, rows: Iterable[Sequence]
) -> None:
    """Write ``config`` as sorted ``# key=value`` lines, each note as a
    ``# `` line, ``header``, then each row's values spelled by ``repr``."""
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    lines += [f"# {note}" for note in notes]
    lines.append(header)
    lines += [",".join(map(repr, row)) for row in rows]
    write_atomic(path, "\n".join(lines) + "\n")


def write_summary_jsonl(path: str, rows: Sequence[SummaryRow]) -> None:
    write_atomic(path, "".join(json.dumps(asdict(row), sort_keys=True) + "\n" for row in rows))
