"""The benchmark's workloads: fixed (benchmark, variant, N, p) cells.

Each workload runs a fixed ES seed list for a fixed iteration budget under a
convergence threshold no run can reach, so every round does the same work on
every commit.  The seed list is part of the workload and does not follow the
benchmark's ``--seed``: the ES trajectory sets the work (on pagie1 at 150
iterations, single seeds differ 2.4x in iterations/s), so a seed-dependent
list would make the figures measure the draw instead of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

# fitness is a fraction of rows (at most 1.0) and converges at >= threshold
BOOLEAN_UNREACHABLE = 2.0
# mean absolute error is never negative and converges at < threshold
REGRESSION_UNREACHABLE = 0.0
OFFSPRING_PER_ITERATION = 4


@dataclass(frozen=True)
class Workload:
    name: str
    bench: str
    variant: str
    nodes: int
    p_reorder: float
    es_seeds: tuple[int, ...]
    iterations: int
    why: str

    @property
    def boolean(self) -> bool:
        return self.bench in ("parity3", "encode16_4", "decode4_16", "multiply3")

    @property
    def threshold(self) -> float:
        return BOOLEAN_UNREACHABLE if self.boolean else REGRESSION_UNREACHABLE

    def run_argv(self, out_dir: str) -> list[str]:
        """Arguments of the `cgp-reorder run` command one round executes."""
        argv = [
            "run",
            "--bench", self.bench,
            "--variant", self.variant,
            "--nodes", str(self.nodes),
            "--seeds", ",".join(str(s) for s in self.es_seeds),
            "--max-iterations", str(self.iterations),
            "--threshold", repr(self.threshold),
            "--workers", "1",
            "--dump-genome",
            "--out", out_dir,
        ]
        if self.variant in ("negbias", "leftskew"):
            argv += ["--p-reorder", repr(self.p_reorder)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "parity3-none-n200", "parity3", "none", 200, 1.0, (0, 1, 2, 3), 2000,
            "plain CGP: single_mutation dominates and reorder is bypassed",
        ),
        Workload(
            "multiply3-negbias-n750", "multiply3", "negbias", 750, 0.9, (0, 1), 700,
            "headline cell: active set grows to most of N, so decode, reorder+repair "
            "and packed evaluation lead",
        ),
        Workload(
            "parity3-original-n600", "parity3", "original", 600, 1.0, (0, 1), 800,
            "topological-shuffle operator with its own remap path and no repair",
        ),
        Workload(
            "pagie1-leftskew-n350", "pagie1", "leftskew", 350, 0.5, (0, 1, 2), 150,
            "regression: batched evaluation over 676 grid points leads; "
            "Beta(6,1) placement",
        ),
    )
}
