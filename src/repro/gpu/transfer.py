"""Host→device transfer engine: the contended half of model loading.

§6 measures LLaMa-2 13B taking ~10 s to load.  That load is not free to
parallelise: concurrent function cold starts on the same node share the
host's storage + PCIe path.  The engine models that shared path as a
fluid pool — one in-flight load proceeds at full calibrated speed, *k*
concurrent loads each proceed at 1/k — which is what turns a "warm pool
of 4 replicas" startup into 4x the single-replica load time.

Transfers are expressed in *exclusive seconds* (how long the copy takes
alone) so workload models keep their calibrated load times regardless of
the engine's nominal bandwidth.
"""

from __future__ import annotations

from repro.sim.core import Environment, Event
from repro.sim.fluid import FluidPool, FluidTask

__all__ = ["TransferEngine"]


class TransferEngine:
    """A shared, equal-split host→device copy path."""

    def __init__(self, env: Environment, name: str = "pcie"):
        self.env = env
        self.name = name
        self.pool = FluidPool(env, self._equal_split, name=f"{name}-pool")
        self.transfers_completed = 0
        self.busy_seconds = 0.0
        self._last_change = env.now

    def _equal_split(self, tasks: list[FluidTask]) -> float:
        share = 1.0 / len(tasks)
        for t in tasks:
            t.rate = share
        return share  # uniform: the pool drains with the scalar share

    def copy(self, exclusive_seconds: float) -> Event:
        """Start a transfer that would take ``exclusive_seconds`` alone.

        Returns the completion event.  Concurrent transfers stretch each
        other proportionally (equal split of the path).
        """
        if exclusive_seconds < 0:
            raise ValueError("exclusive_seconds must be non-negative")
        task = FluidTask(self.env, work=exclusive_seconds,
                         meta={"kind": "h2d"})
        task.done.callbacks.append(self._on_done)
        self.pool.add(task)
        return task.done

    def _on_done(self, _ev: Event) -> None:
        self.transfers_completed += 1

    @property
    def in_flight(self) -> int:
        return len(self.pool)
