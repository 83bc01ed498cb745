"""``nvidia-smi``-style periodic utilization sampling.

The monitor runs as a simulation process, waking every ``interval``
seconds to record the device's mean SM utilization since the previous
sample.  Fig. 3's "GPU idle between inference bursts" observation is
produced from these samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import SimulatedGPU

__all__ = ["GpuMonitor", "UtilizationSample"]


@dataclass(frozen=True)
class UtilizationSample:
    """Mean utilization over one sampling interval ending at ``time``."""

    time: float
    sm_utilization: float
    resident_kernels: int


class GpuMonitor:
    """Samples a device's utilization on a fixed interval."""

    def __init__(self, device: SimulatedGPU, interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.device = device
        self.interval = interval
        self.samples: list[UtilizationSample] = []
        self._proc = device.env.process(self._sample_loop())

    def _sample_loop(self):
        device = self.device
        env = device.env
        last_sm_seconds = device.sm_seconds
        last_time = env.now
        while True:
            yield env.timeout(self.interval)
            device._integrate()
            dt = env.now - last_time
            busy = (device.sm_seconds - last_sm_seconds) / device.spec.sms
            self.samples.append(
                UtilizationSample(
                    time=env.now,
                    sm_utilization=busy / dt if dt > 0 else 0.0,
                    resident_kernels=device.resident_count,
                )
            )
            last_sm_seconds = device.sm_seconds
            last_time = env.now

    def stop(self) -> None:
        """Stop sampling (safe to call once)."""
        if self._proc.is_alive:
            self._proc.interrupt("monitor stopped")
            self._proc.defuse()

    @property
    def mean_utilization(self) -> float:
        """Average SM utilization across all samples so far."""
        if not self.samples:
            return 0.0
        return sum(s.sm_utilization for s in self.samples) / len(self.samples)

    def idle_fraction(self, threshold: float = 0.01) -> float:
        """Fraction of sampled intervals with utilization below threshold."""
        if not self.samples:
            return 1.0
        idle = sum(1 for s in self.samples if s.sm_utilization < threshold)
        return idle / len(self.samples)
