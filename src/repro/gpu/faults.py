"""Fault domains: the blast radius of a GPU hardware fault.

The paper's isolation table (Table 1) is also a *fault containment*
table: MIG gives each instance its own memory slices and ECC scope, so
an uncorrectable memory error (ECC/Xid 48-style) kills only the kernels
resident in the affected instance; MPS clients share one CUDA context
and one memory system, so the same fault kills every resident client —
the classic argument for MIG in multi-tenant serving (MISO, ParvaGPU).

This module makes that distinction explicit.  A :class:`FaultDomain` is
the set of share groups that fail together.  The partitioning rule
mirrors the memory model: every group backed by the *device* memory
pool (the default time-sliced context, device-wide MPS) shares one
domain; every group with its own :class:`~repro.gpu.memory.MemoryPool`
(a MIG instance, a vGPU VM's framebuffer slice) is its own
hardware-isolated domain.  Injection helpers in
:mod:`repro.faas.failures` route every kill through the owning domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gpu.device import ShareGroup, SimulatedGPU

__all__ = [
    "FaultDomain",
    "GpuEccError",
    "GpuLaunchError",
    "domain_of",
    "fault_domains",
    "kill_domain",
]


class GpuEccError(RuntimeError):
    """An uncorrectable GPU memory error killed the resident kernels."""


class GpuLaunchError(RuntimeError):
    """A kernel launch failed transiently (driver hiccup, Xid 13/31).

    Unlike :class:`GpuEccError` this kills nothing already resident —
    the launch itself is rejected, and an immediate relaunch may
    succeed.  The serving plane maps it to a retryable attempt failure.
    """


@dataclass(frozen=True)
class FaultDomain:
    """A set of share groups that one hardware fault takes down together."""

    name: str
    device: SimulatedGPU
    groups: tuple[ShareGroup, ...]
    #: True when the domain is one hardware-isolated partition (MIG
    #: instance / vGPU slice) rather than the shared device context.
    hardware_isolated: bool

    def __contains__(self, group: ShareGroup) -> bool:
        return any(g is group for g in self.groups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "isolated" if self.hardware_isolated else "shared"
        return (f"<FaultDomain {self.name!r} {kind} "
                f"groups={[g.name for g in self.groups]}>")


def fault_domains(device: SimulatedGPU) -> list[FaultDomain]:
    """The device's fault domains, shared domain first.

    Groups backed by the device memory pool fail together (one shared
    context, one ECC scope); each group with its own pool is its own
    domain.  Order is deterministic: the shared domain, then isolated
    groups in ``device.groups`` order — so seeded fault processes pick
    the same victim every run.
    """
    shared = tuple(g for g in device.groups if g.memory is device.memory)
    domains = [FaultDomain(name=f"{device.name}-shared", device=device,
                           groups=shared, hardware_isolated=False)]
    for group in device.groups:
        if group.memory is not device.memory:
            domains.append(FaultDomain(name=group.name, device=device,
                                       groups=(group,),
                                       hardware_isolated=True))
    return domains


def domain_of(device: SimulatedGPU, group: ShareGroup) -> FaultDomain:
    """The fault domain that contains ``group``."""
    for domain in fault_domains(device):
        if group in domain:
            return domain
    raise ValueError(
        f"group {group.name!r} is not attached to device {device.name!r}"
    )


def kill_domain(device: SimulatedGPU, domain: FaultDomain,
                cause: Optional[BaseException] = None) -> int:
    """Kill every kernel resident in ``domain``; returns the count.

    Queued (time-shared) kernels are spared — they had not begun
    executing, exactly like work sitting in a stream behind a killed
    context that gets resubmitted.  Each victim's ``done`` event fails
    with ``cause`` (default: a fresh :class:`GpuEccError` naming the
    kernel), which launch waiters observe; a temporal group's pump
    catches the failure and keeps draining its queue.
    """
    if domain.device is not device:
        raise ValueError(f"domain {domain.name!r} belongs to "
                         f"{domain.device.name!r}, not {device.name!r}")
    members = {g.gid for g in domain.groups}
    killed = 0
    for task in device.resident_tasks:
        client = task.meta["client"]
        if client.group.gid not in members:
            continue
        device.cancel(task)
        if cause is None:
            kernel = task.meta["kernel"]
            exc: BaseException = GpuEccError(
                f"{device.name}/{domain.name}: uncorrectable memory error "
                f"killed kernel {kernel.name!r}"
            )
        else:
            exc = cause
        task.done.fail(exc)
        killed += 1
    return killed
