"""Fleet-to-cluster feedback: sensed rates drive cluster replanning.

Closes the loop across all three tiers.  Devices report into
:class:`~repro.telemetry.resilience.ResilienceStats` counters; the
fleet publishes them through
:meth:`~repro.workloads.fleet.ServingFleet.sensor_snapshot`
(the same guarded telemetry the :class:`~repro.workloads.autoscale.
FleetAutoscaler` trusts for MPS resizes); this adapter turns those
offered-count deltas into windowed arrival rates, smooths them, and —
when the sensed rates drift past a threshold from the rates the current
placement was sized for — re-runs the segment packer and reports the
placement diff (GPUs freed/added, segments moved).  Replanning is
deliberately *not* per-tick: cluster moves imply instance migrations,
so the drift threshold plays the role cooldowns play one tier down.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

from repro.gpu.specs import GPUSpec
from repro.cluster.model import ClusterPlacement, FunctionDemand
from repro.cluster.oracle import SizingOracle
from repro.cluster.packing import optimize_pack

__all__ = ["ClusterFeedback", "WindowedRateSensor", "placement_diff"]


class WindowedRateSensor:
    """Offered-count deltas -> windowed arrival rates, one mark per
    function (the cluster-tier sibling of the FleetAutoscaler's
    ``_sense``: monotone counters in, rates out, first sample primes)."""

    def __init__(self) -> None:
        self._marks: dict[str, tuple[float, float]] = {}

    def observe(self, name: str, offered: float,
                as_of: float) -> Optional[float]:
        """Rate over the window since the last observation, or ``None``
        while priming / on a stalled or rewound counter."""
        last = self._marks.get(name)
        self._marks[name] = (offered, as_of)
        if last is None:
            return None
        last_offered, last_time = last
        window = as_of - last_time
        if window <= 0 or offered < last_offered:
            return None  # stalled clock or restarted counter: re-prime
        return (offered - last_offered) / window


class ClusterFeedback:
    """Drift-triggered replanner sitting above one packed placement."""

    def __init__(self, demands: Sequence[FunctionDemand],
                 inventory: Sequence[tuple[GPUSpec, int]],
                 oracle: Optional[SizingOracle] = None,
                 drift_threshold: float = 0.25,
                 smoothing: float = 0.5):
        if not 0 < drift_threshold:
            raise ValueError("drift_threshold must be positive")
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        self.inventory = list(inventory)
        self.oracle = oracle if oracle is not None else \
            SizingOracle([spec for spec, _ in inventory])
        self.drift_threshold = drift_threshold
        self.smoothing = smoothing
        self.demands: dict[str, FunctionDemand] = {d.name: d for d in demands}
        #: EWMA of sensed rates (seeded with the forecast).
        self.rates: dict[str, float] = {d.name: d.rate_rps for d in demands}
        self.sensor = WindowedRateSensor()
        self.placement: ClusterPlacement = optimize_pack(
            demands, self.inventory, self.oracle)
        #: Rates the current placement was sized for.
        self._planned_rates: dict[str, float] = dict(self.rates)
        self.replans = 0
        self.log: list[dict] = []

    # -- sensing --------------------------------------------------------------
    def observe_fleet(self, fleet) -> dict[str, float]:
        """Pull one windowed-rate sample per function from a fleet's
        published sensors (functions the fleet does not serve keep
        their forecast)."""
        samples = {}
        for name in self.demands:
            if name not in fleet.groups:
                continue
            offered, as_of = fleet.sensor_snapshot(name)
            samples[name] = (offered, as_of)
        return self.observe_counters(samples)

    def observe_counters(
            self, samples: Mapping[str, tuple[float, float]]
    ) -> dict[str, float]:
        """Feed raw ``name -> (offered_count, as_of)`` sensor samples
        (e.g. straight from ``ResilienceStats.offered``)."""
        for name, (offered, as_of) in sorted(samples.items()):
            rate = self.sensor.observe(name, offered, as_of)
            if rate is None:
                continue
            self.rates[name] = (self.smoothing * rate
                                + (1 - self.smoothing) * self.rates[name])
        return dict(self.rates)

    # -- control --------------------------------------------------------------
    def drift(self) -> float:
        """Largest relative gap between sensed and planned-for rates."""
        worst = 0.0
        for name, planned in self._planned_rates.items():
            sensed = self.rates.get(name, planned)
            denom = max(planned, 1e-9)
            worst = max(worst, abs(sensed - planned) / denom)
        return worst

    def replan(self, force: bool = False,
               now: float = 0.0) -> Optional[dict]:
        """Re-pack for the sensed rates when drift demands it.

        Returns the placement diff, or ``None`` when the sensed rates
        are still close enough to the planned ones.
        """
        observed_drift = self.drift()
        if not force and observed_drift < self.drift_threshold:
            return None
        new_demands = [replace(d, rate_rps=self.rates[d.name])
                       for d in self.demands.values()]
        new_placement = optimize_pack(new_demands, self.inventory,
                                      self.oracle)
        diff = placement_diff(self.placement, new_placement)
        diff["drift"] = observed_drift
        diff["time"] = now
        self.placement = new_placement
        self.demands = {d.name: d for d in new_demands}
        self._planned_rates = {d.name: d.rate_rps for d in new_demands}
        self.replans += 1
        self.log.append(diff)
        return diff

    def summary(self) -> dict:
        return {
            "replans": self.replans,
            "drift": self.drift(),
            "drift_threshold": self.drift_threshold,
            "rates": {name: self.rates[name] for name in sorted(self.rates)},
            "score": self.placement.score(),
        }


def placement_diff(old: ClusterPlacement, new: ClusterPlacement) -> dict:
    """What changes when ``new`` replaces ``old`` (migration bill)."""

    def keyed(placement: ClusterPlacement) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        for gpu in placement.gpus:
            for seg in gpu.segments:
                key = (gpu.gpu_id, seg.function, seg.geometry)
                out[key] = out.get(key, 0) + 1
        return out

    before, after = keyed(old), keyed(new)
    added = sum(max(0, n - before.get(k, 0)) for k, n in after.items())
    removed = sum(max(0, n - after.get(k, 0)) for k, n in before.items())
    resized = sorted({k[1] for k in set(before) ^ set(after)})
    return {
        "gpus_before": old.gpus_used,
        "gpus_after": new.gpus_used,
        "gpus_freed": max(0, old.gpus_used - new.gpus_used),
        "segments_added": added,
        "segments_removed": removed,
        "functions_touched": resized,
    }
