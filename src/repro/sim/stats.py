"""Lightweight simulation-wide perf counters for ``repro ... --stats``.

A :class:`SimStats` collector, installed with :func:`collecting`, tallies
events processed and allocator work across every simulation that runs
while it is active — sourced from ``Environment.events_processed`` and
the per-device ``SimulatedGPU.alloc_calls`` family — so a perf
regression shows up as a one-line summary without attaching a profiler.

The hook is :data:`repro.sim.core.RUN_LISTENER`, called whenever
``Environment.run`` returns; it is ``None`` unless a collector is
active, so simulations outside a ``collecting()`` block pay nothing.
Simulations fanned out to *worker processes* by the sweep runner are not
visible to the parent's collector — run with ``--jobs 1`` for complete
counts (cache hits execute no simulation and contribute zero either
way).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.sim import core as _core

__all__ = ["SimStats", "collecting"]


class SimStats:
    """Counters accumulated over every in-process simulation run."""

    def __init__(self) -> None:
        self.sims = 0
        self.events = 0
        self.alloc_calls = 0
        self.alloc_group_recomputes = 0
        self.alloc_group_reuses = 0
        self.alloc_fast_path = 0
        self.alloc_uniform_hits = 0
        self.wall_seconds = 0.0
        self._t0 = time.perf_counter()

    # -- collection ---------------------------------------------------------
    def note_env(self, env) -> None:
        """Fold one environment's counters in (delta since last seen).

        ``run()`` may be called several times on one environment (warm-up
        then drain); per-env high-water marks make each call contribute
        only its delta.
        """
        seen = getattr(env, "_stats_seen", None)
        if seen is None:
            self.sims += 1
            seen = {"events": 0}
        self.events += env.events_processed - seen["events"]
        seen["events"] = env.events_processed
        for gpu in env.gpus:
            key = f"gpu{id(gpu)}"
            last = seen.get(key, (0, 0, 0, 0, 0))
            now = (gpu.alloc_calls, gpu.alloc_group_recomputes,
                   gpu.alloc_group_reuses, gpu.alloc_fast_path,
                   gpu.alloc_uniform_hits)
            self.alloc_calls += now[0] - last[0]
            self.alloc_group_recomputes += now[1] - last[1]
            self.alloc_group_reuses += now[2] - last[2]
            self.alloc_fast_path += now[3] - last[3]
            self.alloc_uniform_hits += now[4] - last[4]
            seen[key] = now
        env._stats_seen = seen

    def close(self) -> None:
        self.wall_seconds = time.perf_counter() - self._t0

    # -- reporting ----------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def summary_line(self) -> str:
        """The one-line report printed by the CLI under ``--stats``."""
        cached = (self.alloc_group_reuses + self.alloc_fast_path
                  + self.alloc_uniform_hits)
        denom = self.alloc_group_recomputes + cached
        reuse = cached / denom if denom else 0.0
        return (
            f"[stats] sims={self.sims} events={self.events:,} "
            f"events/sec={self.events_per_sec:,.0f} "
            f"alloc_calls={self.alloc_calls:,} "
            f"group_recomputes={self.alloc_group_recomputes:,} "
            f"uniform_hits={self.alloc_uniform_hits:,} "
            f"alloc_reuse={reuse:.0%} wall={self.wall_seconds:.2f}s"
        )


@contextmanager
def collecting():
    """Install a :class:`SimStats` collector for the enclosed block.

    Nested collectors are not supported (the innermost wins); the CLI
    uses one per command group.
    """
    stats = SimStats()
    prev = _core.RUN_LISTENER
    _core.RUN_LISTENER = stats.note_env
    try:
        yield stats
    finally:
        _core.RUN_LISTENER = prev
        stats.close()
