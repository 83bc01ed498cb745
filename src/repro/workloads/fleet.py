"""One replicated serving fleet over one partitioned GPU, wired for chaos.

:class:`ServingFleet` owns a device split under one partition layout,
chosen at construction, and one or more :class:`FunctionGroup`\\ s of
serving replicas, each group behind its own :class:`ResilientRouter`.
It exposes :meth:`ServingFleet.apply_fault`, the dispatch point a
:class:`~repro.faas.chaos.ChaosController` drives.

The layouts give the *same replica count* over the *same silicon* with
different isolation, which is what the blast-radius experiment
measures:

- ``"mig-mps"`` — MIG ``1g.10gb`` instances, an MPS daemon inside each
  (the paper's nested fine-grained configuration).  Each instance is a
  hardware fault domain: an ECC error kills kernels in one slice.
- ``"mps"`` — one flat MPS daemon, every replica capped to an SM share.
  One fault domain: an ECC error kills every resident kernel.
- ``"timeshare"`` — default time-sliced contexts, one fault domain.

Two constructors build the two fleets the benchmarks use.
:class:`ServingFleet` builds the static fleet of the scale benchmark —
one group, replicas ``srv0``, ``srv1``, … — and
:class:`AutoscaledServingFleet` builds one group per named
:class:`FleetFunction` (replicas ``{name}-r0``, …) over a flat MPS
daemon, whose shares the :class:`~repro.workloads.autoscale.FleetAutoscaler`
resizes live.  Only groups built from a :class:`FleetFunction` are
managed by the control plane.

Fault targets in a plan are raw integers; :meth:`~ServingFleet.apply_fault`
resolves them modulo the relevant victim pool (fault domains, device
groups, the flat ``(group, replica)`` pool, managed groups), so one plan
replays against any fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.gpu.device import GpuClient, SimulatedGPU
from repro.gpu.faults import fault_domains, kill_domain
from repro.gpu.mig import MigManager
from repro.gpu.mps import MpsControlDaemon
from repro.gpu.specs import A100_80GB
from repro.partition.weightcache import WeightCache
from repro.sim.core import Environment
from repro.telemetry.resilience import ResilienceStats
from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference
from repro.workloads.resilience import Replica, ResilientRouter, SLOPolicy
from repro.workloads.serving import InferenceServer

__all__ = ["AutoscaledServingFleet", "FLEET_MODES", "FleetFunction",
           "FunctionGroup", "ResizeTransaction", "ServingFleet"]

FLEET_MODES = ("mig-mps", "mps", "timeshare")

#: Fault kinds that act on the resize/telemetry machinery of managed
#: groups rather than on replicas or the device.
_CONTROL_PLANE_KINDS = ("resize_stuck", "cache_load_failure",
                        "sensor_dropout", "telemetry_corruption")


def _latest(base: float, factors: list[float]) -> float:
    """A straggling replica runs at the latest active factor."""
    return factors[-1]


def _divide_each(base: float, factors: list[float]) -> float:
    """A straggling device group divides by each active factor in turn."""
    for factor in factors:
        base /= factor
    return base


@dataclass(frozen=True)
class FleetFunction:
    """Static description of one autoscaled serving function."""

    name: str
    #: Replica count (fixed; the autoscaler resizes shares, not counts).
    n_replicas: int
    #: Per-request latency SLO, seconds.
    slo_seconds: float
    #: Initial per-replica MPS percentage.
    initial_pct: int
    #: Tokens per completion request.
    n_tokens: int = 16

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be positive")
        if self.slo_seconds <= 0:
            raise ValueError("slo_seconds must be positive")
        if not 1 <= self.initial_pct <= 100:
            raise ValueError("initial_pct must be in [1, 100]")


class FunctionGroup:
    """Runtime state of one group of replicas: router, stats, client slots.

    Each group gets its own :class:`ResilientRouter` and
    :class:`~repro.telemetry.resilience.ResilienceStats` — breakers,
    hedging, and SLO accounting are per group, while the GPU (and the
    weight cache) is shared fleet-wide.  Replica ``k`` is labelled
    ``f"{label}{k}"``; its client slot is ``daemons[k]`` (``None`` = a
    time-sliced context) at ``pct_by_replica[k]`` (``None`` = uncapped).
    Groups built from a :class:`FleetFunction` (``spec``) carry its SLO
    and sizing model and are the ones the control plane manages.
    """

    def __init__(self, fleet: "ServingFleet", name: str, label: str,
                 daemons: list, pcts: list, policy: SLOPolicy, seed: int,
                 stats: Optional[ResilienceStats] = None,
                 spec: Optional[FleetFunction] = None):
        self.fleet = fleet
        self.name = name
        self.label = label
        self.spec = spec
        self.policy = policy
        self.stats = stats if stats is not None else ResilienceStats()
        self.daemons = daemons
        #: Actually-provisioned percentage per replica (diverges from
        #: ``current_pct`` transiently, mid-rolling-resize).
        self.pct_by_replica = pcts
        #: Client-name generation counter (names must be unique).
        self.generation = 0
        llm = fleet.llm
        self.model_key = name
        self.model_bytes = llm.weight_bytes
        self.model_load_seconds = llm.load_seconds
        #: Desired per-replica MPS percentage (the controller's target).
        self.current_pct = None if spec is None else spec.initial_pct
        if spec is not None:
            self.n_tokens = spec.n_tokens
            self.slo_seconds = spec.slo_seconds
            #: Isolated completion latency vs SM count (the sizing model).
            self.latency_fn: Callable[[int], float] = (
                lambda sms: llm.completion_seconds(fleet.device.spec, sms,
                                                   spec.n_tokens))
        self.replicas = [Replica(k, self.new_server(k), policy)
                         for k in range(len(daemons))]
        self.router = ResilientRouter(fleet.env, self.replicas, policy,
                                      stats=self.stats, seed=seed)

    def open_client(self, index: int) -> GpuClient:
        """A new client in replica ``index``'s slot, named after the
        current generation."""
        name = f"{self.label}{index}g{self.generation}"
        daemon = self.daemons[index]
        if daemon is None:
            return self.fleet.device.timeshare_client(name)
        pct = self.pct_by_replica[index]
        return daemon.client(name, 100 if pct is None else pct)

    def new_server(self, index: int) -> InferenceServer:
        """A fresh server (and client) for replica ``index``."""
        fleet = self.fleet
        return InferenceServer(
            fleet.env, self.open_client(index), fleet.llm,
            max_batch_size=fleet.max_batch_size,
            keep_completed=False, kernel_cache=True,
            name=f"{self.label}{index}")


class ServingFleet:
    """Replicated inference serving over one partitioned GPU.

    This constructor builds the static fleet: ``n_partitions`` partitions
    of ``servers_per_partition`` replicas each, in one group named
    ``srv`` whose router, stats and replicas are also :attr:`router`,
    :attr:`stats` and :attr:`replicas`.  Clients talk to :attr:`router`
    (or the fleet's :meth:`submit` passthrough).

    Every fleet — this one or an :class:`AutoscaledServingFleet` — has
    the same fault handling, resize machinery and capacity ledger.
    :attr:`faults` counts every event passed to :meth:`apply_fault`; a
    group's ``stats.faults`` counts the events that took effect on it,
    and the device-scoped kinds (``ecc``, ``straggler_device``) count
    in every group's.  :meth:`provisioned_gpu_seconds` integrates the
    summed MPS percentage caps over time — the "equal GPU-seconds" side
    of the autoscale bench's fairness claim.
    """

    def __init__(self, env: Environment, mode: str = "mig-mps",
                 n_partitions: int = 7, servers_per_partition: int = 16,
                 spec=A100_80GB, profile: str = "1g.10gb",
                 dtype_bytes: int = 1, max_batch_size: int = 1,
                 policy: Optional[SLOPolicy] = None, seed: int = 0,
                 respawn_seconds: float = 5.0,
                 stats: Optional[ResilienceStats] = None):
        if n_partitions < 1 or servers_per_partition < 1:
            raise ValueError("fleet dimensions must be positive")
        self._setup(env, mode, spec, dtype_bytes, max_batch_size,
                    respawn_seconds)
        self.n_partitions = n_partitions
        self.servers_per_partition = servers_per_partition
        self.policy = policy if policy is not None else SLOPolicy()
        daemons = [daemon for daemon in self._partition(n_partitions, profile)
                   for _ in range(servers_per_partition)]
        # Equal-share SM caps mirroring the MIG slice width, so flat MPS
        # and MIG differ in *isolation*, not per-replica compute.
        pct = max(1, round(100 / n_partitions)) if mode == "mps" else None
        group = self._add_group("srv", "srv", daemons, [pct] * len(daemons),
                                self.policy, seed, stats=stats)
        self.stats, self.router = group.stats, group.router
        self.replicas = group.replicas

    def _setup(self, env: Environment, mode: str, spec, dtype_bytes: int,
               max_batch_size: int, respawn_seconds: float) -> None:
        if mode not in FLEET_MODES:
            raise ValueError(f"unknown fleet mode {mode!r}; "
                             f"expected one of {FLEET_MODES}")
        if respawn_seconds <= 0:
            raise ValueError("respawn_seconds must be positive")
        self.env = env
        self.mode = mode
        self.max_batch_size = max_batch_size
        self.respawn_seconds = respawn_seconds
        self.device = SimulatedGPU(env, spec, cross_check=False)
        self.llm = LlamaInference(LLAMA2_7B,
                                  InferenceRuntime(dtype_bytes=dtype_bytes))
        self.weight_cache: Optional[WeightCache] = None
        self.groups: dict[str, FunctionGroup] = {}
        #: Every fault event applied, by kind.
        self.faults: dict[str, int] = {}
        #: Per-ECC-fault blast radius: (domain, killed, resident before).
        self.ecc_log: list[tuple[str, int, int]] = []
        # Provisioned-capacity integral: sum over replicas of their MPS
        # percentage, integrated piecewise over sim time.  The ledger is
        # per-replica (`_provisioned`) so resize transactions, crashes,
        # and respawns can all touch the same replica without double
        # counting — see _set_provisioned.
        self._provisioned: dict[tuple[str, int], int] = {}
        self._alloc_total_pct = 0
        self._alloc_integral = 0.0
        self._alloc_changed_at = env.now
        #: ``id(target) -> (pre-fault value, {token: factor})`` for every
        #: straggler target with active faults, in application order.
        self._stragglers: dict[int, tuple[float, dict]] = {}
        # -- injected control-plane fault state (see apply_fault) ----------
        #: ``(group, replica index) -> sim time`` until which that
        #: replica's resize drain handshake is held (inf = forever).
        self._drain_stuck: dict[tuple[str, int], float] = {}
        #: Groups whose cached weights are corrupt: the next resize
        #: restart misses, pays a full reload, and repairs the entry.
        self._cache_corrupt: set[str] = set()
        #: ``group -> (until, frozen offered, frozen as-of)``: the
        #: telemetry pipeline stopped publishing; consumers keep seeing
        #: the last snapshot.
        self._sensor_dropout: dict[str, tuple[float, int, float]] = {}
        #: ``group -> (until, offered at onset, factor)``: the offered
        #: counter inflates by ``factor`` relative to onset.
        self._sensor_corrupt: dict[str, tuple[float, int, float]] = {}

    def _partition(self, n_partitions: int, profile: Optional[str]) -> list:
        """Lay the device out under :attr:`mode`: one MPS daemon per
        partition (``None`` per partition under time-sharing)."""
        if self.mode == "mig-mps":
            manager = MigManager(self.device)
            self.env.run(until=self.env.process(manager.enable()))
            self.manager = manager
            return [manager.create_instance(profile).enable_mps()
                    for _ in range(n_partitions)]
        if self.mode == "mps":
            daemon = MpsControlDaemon(self.device)
            daemon.start()
            self.manager = daemon
            return [daemon] * n_partitions
        self.manager = None
        return [None] * n_partitions

    def _add_group(self, name: str, label: str, daemons: list, pcts: list,
                   policy: SLOPolicy, seed: int,
                   stats: Optional[ResilienceStats] = None,
                   spec: Optional[FleetFunction] = None) -> FunctionGroup:
        group = FunctionGroup(self, name, label, daemons, pcts, policy, seed,
                              stats=stats, spec=spec)
        self.groups[name] = group
        for k, pct in enumerate(pcts):
            self._set_provisioned(name, k, pct or 0)
        return group

    # -- client API ---------------------------------------------------------
    def submit(self, n_tokens: int = 20):
        """Route one request through the fleet (router passthrough)."""
        return self.router.submit(n_tokens)

    @property
    def n_replicas(self) -> int:
        return sum(len(g.replicas) for g in self.groups.values())

    def report(self, horizon: float) -> dict:
        return self.stats.report(horizon)

    # -- capacity accounting ------------------------------------------------
    def _set_provisioned(self, name: str, index: int, pct: int) -> None:
        """Set one replica's provisioned percentage (idempotent ledger).

        All capacity transitions — resize teardown/restart, crash,
        respawn — go through here, so overlapping events (a crash during
        a restart window, say) can each assert the state they produce
        without double-charging the integral.
        """
        key = (name, index)
        old = self._provisioned.get(key, 0)
        if pct != old:
            now = self.env.now
            self._alloc_integral += self._alloc_total_pct * \
                (now - self._alloc_changed_at)
            self._alloc_changed_at = now
            self._alloc_total_pct += pct - old
            self._provisioned[key] = pct

    def provisioned_gpu_seconds(self) -> float:
        """GPU-seconds of provisioned capacity up to now (1.0 = whole GPU
        for one second).  Restart windows provision nothing: the share is
        released at client teardown and re-counted when the new client
        exists."""
        live = self._alloc_total_pct * (self.env.now - self._alloc_changed_at)
        return (self._alloc_integral + live) / 100.0

    # -- live resize --------------------------------------------------------
    def resize_replica(self, name: str, replica: Replica, new_pct: int,
                       planner, watchdog_seconds: float = 30.0):
        """Drain one replica of group ``name``; restart its MPS client at
        ``new_pct``.

        The §6 sequence, executed against live traffic: pause admission,
        wait for in-flight kernels (queued requests are *held*, and the
        router steers new work elsewhere — see ``Replica.stalled``),
        close the client, pay teardown + worker start from ``planner``,
        create the resized client, reload weights unless the cache has
        them, swap the client under the same server, resume.  The
        :class:`Replica` object — and with it the breaker state and the
        router registration — survives, so fault-tolerance history
        carries across the resize.  The steps run as a
        :class:`ResizeTransaction`: the drain is guarded by a watchdog
        (``watchdog_seconds``), and a drain that never completes aborts
        the resize with a verified rollback instead of wedging the
        control loop.

        A generator: run under ``env.process``.  Returns a dict with the
        replica's downtime and whether the weight cache hit; aborted
        transactions return ``{"aborted": True, "rollback_verified": …}``
        instead, and ``None`` means the replica died mid-resize.
        """
        txn = ResizeTransaction(self, name, replica, new_pct, planner,
                                watchdog_seconds=watchdog_seconds)
        return (yield from txn.run())

    def _drain_handshake(self, name: str, replica: Replica,
                         done: Callable[[], None]) -> None:
        """Call ``done`` once ``replica``'s drain completes *and* any
        injected ``resize_stuck`` hold on it has released.

        A hold with ``until == inf`` never releases — the caller's
        watchdog is then the only way out, which is the point of the
        fault.
        """
        env = self.env
        key = (name, replica.index)

        def release() -> None:
            self._drain_stuck.pop(key, None)
            done()

        def on_drained(_event) -> None:
            until = self._drain_stuck.get(key)
            if until is None or env.now >= until:
                release()
            elif until != math.inf:
                env.schedule_callback(until - env.now, release)
            # inf: held until further notice; never call done().

        replica.server.drain().callbacks.append(on_drained)

    # -- control-plane introspection ----------------------------------------
    def control_state(self) -> dict:
        """JSON-able snapshot of the fleet's control-plane state.

        Everything a resize rollback must restore: per-replica
        percentages and client identities, incarnation counts, router
        membership, the capacity ledger, and the weight cache's
        per-model refcounts.  The rollback property tests compare this
        dict verbatim before and after an aborted transaction.
        """
        state: dict = {
            "alloc_total_pct": self._alloc_total_pct,
            "provisioned": {f"{name}/{idx}": pct for (name, idx), pct
                            in sorted(self._provisioned.items())},
            "groups": {},
        }
        if self.weight_cache is not None:
            state["weight_cache_refs"] = self.weight_cache.refcounts()
        for name, group in self.groups.items():
            state["groups"][name] = {
                "current_pct": group.current_pct,
                "pct_by_replica": list(group.pct_by_replica),
                "generation": group.generation,
                "replicas": [
                    {"index": r.index,
                     "alive": r.alive,
                     "incarnations": r.incarnations,
                     "client": (r.server.client.name
                                if r.server is not None else None),
                     "stalled": r.stalled,
                     "registered": group.router.replicas[r.index] is r}
                    for r in group.replicas],
            }
        return state

    def sensor_snapshot(self, name: str) -> tuple[int, float]:
        """Group ``name``'s *published* telemetry: (offered, as-of).

        This is what the autoscaler is allowed to see.  Healthy sensors
        publish ``(stats.offered, now)``; an active ``sensor_dropout``
        freezes both at fault onset, and an active
        ``telemetry_corruption`` inflates the offered delta since onset
        by its factor.  Expired faults clean themselves up here, so the
        post-fault snapshot reverts to ground truth (the autoscaler's
        plausibility check absorbs the resulting step).
        """
        group = self.groups[name]
        now = self.env.now
        drop = self._sensor_dropout.get(name)
        if drop is not None:
            until, frozen_offered, frozen_at = drop
            if now < until:
                return frozen_offered, frozen_at
            del self._sensor_dropout[name]
        corrupt = self._sensor_corrupt.get(name)
        if corrupt is not None:
            until, onset_offered, factor = corrupt
            if now < until:
                real = group.stats.offered
                inflated = onset_offered + int(
                    round((real - onset_offered) * factor))
                return inflated, now
            del self._sensor_corrupt[name]
        return group.stats.offered, now

    # -- fault application --------------------------------------------------
    def apply_fault(self, event) -> str:
        """Apply one :class:`~repro.faas.chaos.FaultEvent`; describe it.

        Data-plane kinds resolve over the device or the flat
        ``(group, replica)`` pool; control-plane kinds mutate the
        resize/telemetry machinery of the managed groups, and are
        skipped on a fleet without any.
        """
        handler = getattr(self, f"_fault_{event.kind}", None)
        if handler is None:
            raise ValueError(f"fleet cannot apply fault kind {event.kind!r}")
        self.faults[event.kind] = self.faults.get(event.kind, 0) + 1
        if event.kind in _CONTROL_PLANE_KINDS and not self._managed():
            return (f"{event.kind.replace('_', '-')}: "
                    f"no control plane (skipped)")
        return handler(event)

    def _managed(self) -> list[FunctionGroup]:
        return [g for g in self.groups.values() if g.spec is not None]

    def _managed_group(self, event) -> FunctionGroup:
        managed = self._managed()
        return managed[event.target % len(managed)]

    def _target(self, event, groups) -> tuple[FunctionGroup, Replica, str]:
        """The ``(group, replica, label)`` an event targets in ``groups``."""
        pairs = [(g, r) for g in groups for r in g.replicas]
        group, replica = pairs[event.target % len(pairs)]
        return group, replica, f"{group.label}{replica.index}"

    def _hold(self, event) -> tuple[float, str]:
        """An injected hold's expiry and its description (a duration of
        zero or less holds until further notice)."""
        if event.duration <= 0:
            return math.inf, "until further notice"
        return self.env.now + event.duration, f"for {event.duration:g}s"

    def _straggle(self, target, attr: str, event,
                  effect: Callable[[float, list[float]], float],
                  changed: Optional[Callable[[], None]] = None) -> None:
        """Slow ``target.attr`` by ``event.factor`` for ``event.duration``.

        Overlapping faults on one target are kept in the order they were
        applied; while any is active the attribute is ``effect(base,
        factors)``, and when the last one ends it returns to ``base``,
        its value before the first of them.
        """
        key = id(target)
        held = self._stragglers.get(key)
        if held is None:
            held = self._stragglers[key] = (getattr(target, attr), {})
        base, active = held
        token = object()
        active[token] = event.factor

        def update() -> None:
            setattr(target, attr,
                    effect(base, list(active.values())) if active else base)
            if changed is not None:
                changed()

        def restore() -> None:
            del active[token]
            if not active:
                del self._stragglers[key]
            update()

        update()
        self.env.schedule_callback(event.duration, restore)

    def _fault_ecc(self, event) -> str:
        # Only domains with clients can lose work; the empty residual
        # domain (e.g. the zero-budget default group in MIG mode) is
        # not a meaningful ECC victim.
        domains = [d for d in fault_domains(self.device)
                   if any(g.clients for g in d.groups)]
        if not domains:
            return "ecc: no populated fault domain"
        domain = domains[event.target % len(domains)]
        resident = self.device.resident_count
        killed = kill_domain(self.device, domain)
        self.ecc_log.append((domain.name, killed, resident))
        for group in self.groups.values():
            group.stats.record_fault(event.kind)
        return (f"ecc {domain.name}: killed {killed} of "
                f"{resident} resident kernels")

    def _fault_straggler_device(self, event) -> str:
        populated = [g for g in self.device.groups if g.clients]
        if not populated:
            return "straggler-device: no populated group"
        dgroup = populated[event.target % len(populated)]
        self._straggle(dgroup, "overhead_factor", event, _divide_each,
                       lambda: self.device.poke(dgroup))
        for group in self.groups.values():
            group.stats.record_fault(event.kind)
        return (f"straggler-device {dgroup.name}: x{event.factor:g} "
                f"for {event.duration:g}s")

    def _fault_replica_crash(self, event) -> str:
        group, replica, label = self._target(event, self.groups.values())
        if not replica.alive:
            return f"crash {label}: already down"
        group.stats.record_fault(event.kind)
        replica.server.crash()
        self._set_provisioned(group.name, replica.index, 0)
        delay = event.duration if event.duration > 0 else \
            self.respawn_seconds
        self.env.schedule_callback(
            delay, lambda: self._respawn(group, replica))
        return f"crash {label}: respawn in {delay:g}s"

    def _respawn(self, group: FunctionGroup, replica: Replica) -> None:
        if replica.alive:
            return
        group.generation += 1
        replica.replace(group.new_server(replica.index))
        self._set_provisioned(group.name, replica.index,
                              group.pct_by_replica[replica.index] or 0)

    def _fault_straggler_replica(self, event) -> str:
        group, replica, label = self._target(event, self.groups.values())
        if not replica.alive:
            return f"straggler {label}: replica down"
        group.stats.record_fault(event.kind)
        # A crashed incarnation's replacement starts at full speed
        # anyway; its holds end on the dead server.
        self._straggle(replica.server, "slowdown", event, _latest)
        return (f"straggler {label}: x{event.factor:g} "
                f"for {event.duration:g}s")

    def _fault_launch_failure(self, event) -> str:
        group, replica, label = self._target(event, self.groups.values())
        if not replica.alive:
            return f"launch-failure {label}: replica down"
        group.stats.record_fault(event.kind)
        replica.server.fail_next_launches += 1
        return f"launch-failure {label}: next launch rejected"

    def _fault_reconfig_stall(self, event) -> str:
        group, replica, label = self._target(event, self.groups.values())
        if not replica.alive:
            return f"stall {label}: replica down"
        group.stats.record_fault(event.kind)
        server = replica.server
        server.stall_until = max(server.stall_until,
                                 self.env.now + event.duration)
        return f"stall {label}: {event.duration:g}s"

    def _fault_resize_stuck(self, event) -> str:
        group, replica, label = self._target(event, self._managed())
        group.stats.record_fault(event.kind)
        until, hold = self._hold(event)
        self._drain_stuck[(group.name, replica.index)] = until
        return f"resize-stuck {label}: drain held {hold}"

    def _fault_cache_load_failure(self, event) -> str:
        group = self._managed_group(event)
        group.stats.record_fault(event.kind)
        self._cache_corrupt.add(group.name)
        return (f"cache-load-failure {group.name}: next resize restart "
                f"reloads from cold")

    def _fault_sensor_dropout(self, event) -> str:
        group = self._managed_group(event)
        group.stats.record_fault(event.kind)
        until, hold = self._hold(event)
        self._sensor_dropout[group.name] = (
            until, group.stats.offered, self.env.now)
        return f"sensor-dropout {group.name}: telemetry frozen {hold}"

    def _fault_telemetry_corruption(self, event) -> str:
        group = self._managed_group(event)
        group.stats.record_fault(event.kind)
        until, hold = self._hold(event)
        self._sensor_corrupt[group.name] = (
            until, group.stats.offered, event.factor)
        return (f"telemetry-corruption {group.name}: offered inflated "
                f"x{event.factor:g} {hold}")


class AutoscaledServingFleet(ServingFleet):
    """A multi-function MPS serving fleet whose shares can be resized live.

    One flat MPS daemon over one GPU; each function owns a managed group
    of a fixed number of replicas whose ``active_thread_percentage`` the
    :class:`~repro.workloads.autoscale.FleetAutoscaler` re-negotiates at
    runtime via :meth:`resize_replica` — the §7 "change GPU resources
    depending on demand" loop made concrete.  With ``weight_cache=True``
    the fleet owns a :class:`~repro.partition.weightcache.WeightCache`
    holding one standing reference per function's weights, so a resized
    replica's restarted client skips the model reload.
    """

    def __init__(self, env: Environment,
                 functions: Sequence[FleetFunction],
                 spec=A100_80GB, dtype_bytes: int = 1,
                 max_batch_size: int = 1, seed: int = 0,
                 weight_cache: bool = True,
                 respawn_seconds: float = 5.0):
        if not functions:
            raise ValueError("need at least one function")
        names = {f.name for f in functions}
        if len(names) != len(functions):
            raise ValueError("function names must be unique")
        self._setup(env, "mps", spec, dtype_bytes, max_batch_size,
                    respawn_seconds)
        daemon, = self._partition(1, None)
        if weight_cache:
            self.weight_cache = WeightCache()
        for i, fn in enumerate(functions):
            group = self._add_group(
                fn.name, f"{fn.name}-r", [daemon] * fn.n_replicas,
                [fn.initial_pct] * fn.n_replicas,
                SLOPolicy(deadline_seconds=fn.slo_seconds),
                seed * 1_000_003 + i, spec=fn)
            if self.weight_cache is not None:
                # The standing fleet-level reference: weights stay
                # resident (refcount >= 1) for the fleet's lifetime, so
                # every resize-restart is a cache hit.
                self.weight_cache.acquire(group.replicas[0].server.client,
                                          group.model_key, group.model_bytes)

    def submit(self, name: str):
        """Route one request to function ``name`` (router passthrough)."""
        group = self.groups[name]
        return group.router.submit(group.n_tokens)

    def report(self, horizon: float) -> dict:
        return {name: group.stats.report(horizon)
                for name, group in self.groups.items()}


class ResizeTransaction:
    """One replica's drain → restart → swap resize as an explicit state
    machine with a drain watchdog and a verified rollback.

    States: ``pending`` → ``draining`` → ``restarting`` → ``committed``,
    with two off-ramps — ``aborted`` (the drain watchdog fired before
    the drain handshake completed: admission resumes at the *old*
    percentage and nothing else has changed, verified against a
    pre-resize snapshot) and ``failed`` (the replica died mid-flight).

    The abort path is cheap by construction: the MPS client is only
    closed *after* the drain handshake, so a timed-out drain has
    mutated nothing but the admission pause — rollback is ``resume()``
    plus a state comparison.  :attr:`rollback_verified` records whether
    the post-abort replica-scoped state matched the pre-resize snapshot
    bit for bit (counted in ``ResilienceStats.resize_rollbacks``).

    Run the generator returned by :meth:`run` under ``env.process``;
    it returns the per-replica result dict (``aborted`` key marks the
    off-ramp) or ``None`` when the replica died mid-resize.
    """

    STATES = ("pending", "draining", "restarting", "committed",
              "aborted", "failed")

    def __init__(self, fleet: ServingFleet, name: str,
                 replica: Replica, new_pct: int, planner,
                 watchdog_seconds: float = 30.0):
        if not 1 <= new_pct <= 100:
            raise ValueError("new_pct must be in [1, 100]")
        if watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")
        self.fleet = fleet
        self.name = name
        self.replica = replica
        self.new_pct = new_pct
        self.planner = planner
        self.watchdog_seconds = watchdog_seconds
        self.state = "pending"
        #: After an abort: did the rollback restore the pre-resize
        #: replica-scoped state bit for bit?  ``None`` until then.
        self.rollback_verified: Optional[bool] = None

    # -- rollback verification ----------------------------------------------
    def _scope_state(self) -> dict:
        """Replica-scoped control state this transaction may touch.

        Deliberately excludes group-shared fields (``generation``,
        the fleet capacity integral) that *sibling* transactions in the
        same rolling wave legitimately mutate — an abort must restore
        exactly its own blast radius, concurrently with commits nearby.
        """
        fleet = self.fleet
        group = fleet.groups[self.name]
        replica = self.replica
        server = replica.server
        cache = fleet.weight_cache
        return {
            "pct": group.pct_by_replica[replica.index],
            "client": server.client.name if server is not None else None,
            "client_alive": bool(server is not None and server.client.alive),
            "incarnations": replica.incarnations,
            "registered": group.router.replicas[replica.index] is replica,
            "provisioned": fleet._provisioned.get(
                (self.name, replica.index), 0),
            "cache_refs": (None if cache is None else
                           cache.refcounts().get(group.model_key, 0)),
        }

    # -- the state machine --------------------------------------------------
    def run(self):
        fleet = self.fleet
        env = fleet.env
        group = fleet.groups[self.name]
        replica = self.replica
        server = replica.server
        planner = self.planner
        if not server.alive:
            self.state = "failed"
            return None
        stats = group.stats
        stats.resize_attempts += 1
        old_pct = group.pct_by_replica[replica.index]
        snapshot = self._scope_state()
        t0 = env.now
        self.state = "draining"
        server.pause()
        # Drain watchdog: first of {drain handshake, deadline} decides.
        decided = env.event()
        outcome: list[str] = []

        def settle(what: str) -> None:
            if not outcome:
                outcome.append(what)
                decided.succeed()

        fleet._drain_handshake(self.name, replica,
                               lambda: settle("drained"))
        env.schedule_callback(self.watchdog_seconds,
                              lambda: settle("timeout"))
        yield decided
        if outcome[0] == "timeout":
            # ABORT: the client was never closed, so nothing beyond the
            # admission pause happened.  Roll back, verify, move on.
            self.state = "aborted"
            if server.alive:
                server.resume()
            stats.resize_aborts += 1
            self.rollback_verified = self._scope_state() == snapshot
            if self.rollback_verified:
                stats.resize_rollbacks += 1
            return {"replica": replica.index, "aborted": True,
                    "rollback_verified": self.rollback_verified,
                    "downtime_seconds": env.now - t0,
                    "from_pct": old_pct, "to_pct": self.new_pct}
        if not server.alive:
            self.state = "failed"
            return None
        self.state = "restarting"
        server.client.close()
        fleet._set_provisioned(self.name, replica.index, 0)
        yield env.timeout_pooled(planner.TEARDOWN_SECONDS)
        yield env.timeout_pooled(planner.cold_start.worker_start_seconds(True))
        if not server.alive:
            self.state = "failed"
            return None
        group.generation += 1
        group.pct_by_replica[replica.index] = self.new_pct
        client = group.open_client(replica.index)
        fleet._set_provisioned(self.name, replica.index, self.new_pct)
        hit = False
        cache = fleet.weight_cache
        if self.name in fleet._cache_corrupt:
            # Injected corruption: the resident bytes are garbage.  Pay
            # the full reload (streaming fresh weights into the standing
            # allocation repairs the entry for subsequent restarts) and
            # never touch the refcount — the cache stays consistent.
            fleet._cache_corrupt.discard(self.name)
            stats.cache_load_failures += 1
            yield env.timeout_pooled(group.model_load_seconds)
        elif cache is not None:
            # Bump-and-release against the standing fleet reference:
            # counts the hit, leaves the refcount unchanged, and stays
            # safe under concurrent resizes of sibling replicas.
            hit = cache.acquire(client, group.model_key, group.model_bytes)
            if hit:
                cache.release(client, group.model_key)
            else:
                yield env.timeout_pooled(group.model_load_seconds)
        else:
            yield env.timeout_pooled(group.model_load_seconds)
        server.client = client
        server.resume()
        self.state = "committed"
        return {"replica": replica.index, "aborted": False,
                "downtime_seconds": env.now - t0,
                "weight_cache_hit": hit, "from_pct": old_pct,
                "to_pct": self.new_pct}
