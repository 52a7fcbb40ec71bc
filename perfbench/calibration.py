"""Machine-speed calibration for the end-to-end timings.

On a shared 2-vCPU VM the speed of one thread drifts by 15-35% over tens of
seconds, because of load this process cannot see or control.  Wall time and
CPU time drift together.  So each untraced round interleaves fixed
calibration slices with the ES: every ``GAP_NS`` of ES time, at the start of
an iteration, the slice evaluates one fixed genome with the reference
interpreter, once untimed to warm the caches the ES evicted and once timed.
The slice is benchmark code, and the package never runs it, so a change to
the package does not move it.  The mean timed evaluation, against its
nominal time, gives the round's speed factor.  The round's run and ES times
are scaled by that factor to reference speed, and slice time is left out of
them.  Set-up time is not scaled: over 60 fresh processes the raw set-up
time stayed within 0.20-0.28 s while a speed factor measured just before
each ranged 0.37-1.04, so the import does not follow the slices' speed.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import reference

clock = time.perf_counter_ns

GAP_NS = 10_000_000
SEED = 20241001
# genome size per function set
SLICE_NODES = {"boolean": 300, "regression": 30}
# the timed evaluation's time at reference speed: its fast-mode time on the
# 2-vCPU VM the README's figures come from
NOMINAL_NS = {"parity3": 65_000, "multiply3": 80_000, "pagie1": 235_000}


class Calibration:
    def __init__(self, bench: str) -> None:
        problem = reference.make_problem(bench)
        self.problem = problem
        self.nominal_ns = NOMINAL_NS[bench]
        kind = problem.function_set
        rng = np.random.default_rng(SEED)
        nodes = SLICE_NODES[kind]
        start = problem.num_inputs
        size = len(reference.ARITIES[kind])
        self.genome = reference.Genome(
            start,
            problem.num_outputs,
            kind,
            [int(rng.integers(size)) for _ in range(nodes)],
            [tuple(int(rng.integers(start + i)) for _ in range(2)) for i in range(nodes)],
            [start + nodes - 1] * problem.num_outputs,
        )
        self.every_node = [True] * nodes
        # all time spent in slices, and the timed evaluations' share of it
        self.spent_ns = 0
        self.timed_ns = 0
        self.slices = 0
        # the first iteration runs a slice, so no round is left without one
        self.last = 0

    def slice(self) -> None:
        start = clock()
        self.problem.fitness(self.genome, self.every_node)
        # a collection here would traverse the package's objects too
        gc.disable()
        timed = clock()
        self.problem.fitness(self.genome, self.every_node)
        self.last = clock()
        gc.enable()
        self.timed_ns += self.last - timed
        self.spent_ns += self.last - start
        self.slices += 1

    def install(self, evolution) -> None:
        """Run a slice at the start of an iteration once GAP_NS has passed."""
        maybe_reorder = evolution.maybe_reorder

        def interleaved(*args, **kwargs):
            if clock() - self.last >= GAP_NS:
                self.slice()
            return maybe_reorder(*args, **kwargs)

        evolution.maybe_reorder = interleaved

    def factor(self) -> float:
        """Reference-speed seconds per measured second (below 1 when slow)."""
        return self.nominal_ns * self.slices / self.timed_ns
