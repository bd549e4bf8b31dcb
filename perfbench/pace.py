"""Machine-speed probe used to scale every reported time.

On a shared machine the interpreter's speed drifts by 20-40% over tens of
seconds, so raw medians of runs made minutes apart disagree by more than any
useful bound.  The probe runs a fixed unit of benchmark-side Python work
(bitset graph code of the same kind as the program's: adjacency rows as
ints, breadth-first reachability, triangle counts and sorted invariants) right before and right after each
timed operation.  The operation's time is multiplied by the speed measured
around it, UNIT_S * units / probe seconds, which gives the time it would take
on a machine where one unit takes UNIT_S.  Program changes cannot move the
probe; machine drift moves both.

The unit is self-contained: it imports nothing from the program or from the
rest of the benchmark, so no other edit can change its cost.  Changing
``_unit`` or ``UNIT_S`` re-baselines every time metric of every workload.
"""

from __future__ import annotations

import gc
from time import perf_counter

UNIT_S = 0.0012  # one unit's time on the 2-core machine where the benchmark was defined
MIN_PROBE_S = 0.005
PROBE_SHARE = 0.05  # probe time after an operation, as a share of its time


def _unit() -> None:
    """A fixed piece of graph work: for eight pseudo-random graphs on 12
    vertices, reachability with each edge deleted and a degree/triangle
    invariant."""
    state = 12345
    for n in (12,) * 8:
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                if state >> 16 & 3 == 0:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        for u in range(n):
            for v in range(u + 1, n):
                if not rows[u] >> v & 1:
                    continue
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                seen = frontier = 1 << u
                while frontier:
                    nxt = 0
                    w = frontier
                    while w:
                        low = w & -w
                        nxt |= rows[low.bit_length() - 1]
                        w ^= low
                    frontier = nxt & ~seen
                    seen |= nxt
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
        per = []
        for v in range(n):
            nbrs = [u for u in range(n) if rows[v] >> u & 1]
            tri = sum((rows[u] & rows[v]).bit_count() for u in nbrs) // 2
            per.append((rows[v].bit_count(), tuple(sorted(rows[u].bit_count() for u in nbrs)), tri))
        sorted(per)


class Probe:
    """Runs whole units for at least a given time; keeps every sample."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, float]] = []

    def __call__(self, after_s: float = 0.0) -> tuple[int, float]:
        """Probe after an operation of ``after_s`` seconds (or before the first)."""
        return self.run(max(MIN_PROBE_S, PROBE_SHARE * after_s))

    def run(self, budget_s: float) -> tuple[int, float]:
        """Run units for at least ``budget_s``.  The collector is off so that
        the program's heap cannot change the cost."""
        gc.disable()
        try:
            units = 0
            t0 = perf_counter()
            while True:
                _unit()
                units += 1
                elapsed = perf_counter() - t0
                if elapsed >= budget_s:
                    break
        finally:
            gc.enable()
        self.samples.append((units, elapsed))
        return units, elapsed


def speed(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Speed factor from the probes on both sides of a timed interval."""
    return UNIT_S * (before[0] + after[0]) / (before[1] + after[1])
