"""Tests for the SLO-aware resilient router and the serving fleet."""

import pytest

from repro.gpu import A100_40GB, MpsControlDaemon, SimulatedGPU
from repro.sim import Environment
from repro.workloads import (
    LLAMA2_7B,
    AutoscaledServingFleet,
    CircuitBreaker,
    FleetFunction,
    InferenceRuntime,
    InferenceServer,
    LlamaInference,
    Replica,
    ResilientRouter,
    ServingFleet,
    SLOPolicy,
)
from repro.faas.chaos import FaultEvent


def make_router(n_servers=2, seed=1, **policy_kwargs):
    env = Environment()
    gpu = SimulatedGPU(env, A100_40GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))
    policy = SLOPolicy(**policy_kwargs)
    servers = [InferenceServer(env, daemon.client(f"s{i}"), llm,
                               max_batch_size=1, name=f"s{i}")
               for i in range(n_servers)]
    replicas = [Replica(i, s, policy) for i, s in enumerate(servers)]
    router = ResilientRouter(env, replicas, policy, seed=seed)
    return env, servers, router


# ------------------------------------------------------------ happy path

def test_request_completes_through_router():
    env, _servers, router = make_router()
    request = router.submit(n_tokens=4)
    env.run(until=request.done)
    assert request.outcome == "ok"
    assert request.latency is not None and request.latency > 0
    assert request.attempts == 1
    stats = router.stats
    assert stats.offered == 1 and stats.completed == 1
    assert stats.slo_ok == 1 and stats.lost == 0


def test_router_balances_by_queue_depth():
    env, servers, router = make_router(n_servers=2)
    for _ in range(4):
        router.submit(n_tokens=4)
    # Synchronous submits alternate over the two empty replicas.
    assert servers[0].queue_depth == 2
    assert servers[1].queue_depth == 2
    env.run()
    assert router.stats.completed == 4


def test_submit_validates_tokens():
    _env, _servers, router = make_router()
    with pytest.raises(ValueError):
        router.submit(n_tokens=0)


# --------------------------------------------------------------- retries

def test_retry_fails_over_to_surviving_replica():
    env, servers, router = make_router(n_servers=2, backoff_base=0.01)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    victim = servers[request.tried[0]]
    victim.crash()
    env.run(until=request.done)
    assert request.outcome == "ok"
    assert request.attempts == 2
    assert len(set(request.tried)) == 2  # second attempt went elsewhere
    assert router.stats.retries == 1
    assert router.stats.attempt_failures == 1
    assert router.stats.lost == 0


def test_crash_failover_is_exactly_once():
    env, servers, router = make_router(n_servers=2, backoff_base=0.01)
    requests = [router.submit(n_tokens=50) for _ in range(10)]
    env.run(until=env.now + 0.05)
    servers[0].crash()
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    stats = router.stats
    assert stats.completed == 10
    assert stats.lost == 0
    # Everything that was queued or running on srv0 retried exactly once.
    assert stats.retries == stats.attempt_failures > 0


def test_max_attempts_exhaustion_fails_request():
    env, servers, router = make_router(n_servers=1, max_attempts=1)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    servers[0].crash()
    env.run()
    assert request.outcome == "failed"
    assert router.stats.failed == 1
    assert router.stats.retries == 0
    assert router.stats.lost == 0


def test_retry_budget_gates_retries():
    env, servers, router = make_router(
        n_servers=2, retry_budget_initial=0.0, retry_budget_rate=0.0)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    servers[request.tried[0]].crash()
    env.run()
    assert request.outcome == "failed"  # no budget, no retry
    assert router.stats.retries == 0


def test_done_event_always_succeeds():
    """Clients await ``done`` without special-casing failures — the
    outcome field carries the verdict."""
    env, servers, router = make_router(n_servers=1, max_attempts=1)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    servers[0].crash()
    env.run(until=request.done)  # would raise if done failed
    assert request.done.ok
    assert request.outcome == "failed"


# ------------------------------------------------------ admission control

def test_infeasible_deadline_is_shed():
    env, _servers, router = make_router(deadline_seconds=0.5)
    router._est_prior = 10.0  # pretend service takes 10s
    request = router.submit(n_tokens=4)
    assert request.outcome == "shed"
    assert request.done.triggered
    assert router.stats.shed == 1
    assert router.stats.lost == 0


def test_admission_control_can_be_disabled():
    env, _servers, router = make_router(deadline_seconds=0.5,
                                        admission_control=False)
    router._est_prior = 10.0
    request = router.submit(n_tokens=400)
    assert request.outcome == "pending"
    env.run()
    assert request.outcome == "ok"  # late, but served
    assert request.latency > 0.5
    assert router.stats.slo_ok == 0  # missed the SLO


# ---------------------------------------------------------------- hedging

def test_hedge_rescues_straggling_replica():
    env, servers, router = make_router(
        n_servers=2, hedge_quantile=0.5, hedge_min_samples=5,
        hedge_max_fraction=1.0)
    # Seed the latency quantile with normal completions.
    warm = [router.submit(n_tokens=4) for _ in range(8)]
    env.run()
    assert router._hedge_q.count >= 5
    # Straggle one replica hard; a request landing there hedges away.
    servers[0].slowdown = 500.0
    servers[1].slowdown = 500.0
    request = router.submit(n_tokens=4)
    straggler = servers[request.tried[0]]
    other = servers[1 - request.tried[0]]
    other.slowdown = 1.0
    env.run(until=request.done)
    assert request.outcome == "ok"
    assert request.hedged
    assert router.stats.hedges == 1
    assert router.stats.hedge_wins == 1
    # The straggler's attempt eventually lands as wasted work.
    env.run()
    assert all(r.outcome == "ok" for r in warm)


def test_hedge_rate_cap_is_enforced():
    env, servers, router = make_router(
        n_servers=2, hedge_quantile=0.5, hedge_min_samples=5,
        hedge_max_fraction=0.1)
    for _ in range(8):
        router.submit(n_tokens=4)
    env.run()
    for s in servers:
        s.slowdown = 500.0
    requests = [router.submit(n_tokens=4) for _ in range(10)]
    for s in servers:
        s.slowdown = 400.0  # keep straggling; hedges would fire freely
    env.run()
    assert all(r.outcome in ("ok", "failed") for r in requests)
    assert router.stats.hedges <= 0.1 * router.stats.offered + 1


# -------------------------------------------------------- circuit breaker

def test_circuit_breaker_state_machine():
    breaker = CircuitBreaker(threshold=2, cooldown=10.0)
    assert breaker.available(0.0)
    assert not breaker.record_failure(0.0)
    assert breaker.record_failure(1.0)  # second failure opens it
    assert breaker.opens == 1
    assert not breaker.available(5.0)
    assert breaker.available(11.0)  # half-open after cooldown
    # One failure in half-open re-opens immediately (counter saturated).
    assert breaker.record_failure(12.0)
    assert breaker.opens == 2
    assert not breaker.available(13.0)
    breaker.record_success()
    assert breaker.consecutive_failures == 0


def test_breaker_steers_traffic_away_from_sick_replica():
    env, servers, router = make_router(
        n_servers=2, breaker_failures=2, breaker_cooldown_seconds=30.0,
        backoff_base=0.001, backoff_jitter=0.0)
    sick = servers[0]
    sick.fail_next_launches = 10**6  # every launch on srv0 fails
    requests = [router.submit(n_tokens=4) for _ in range(12)]
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    assert router.stats.breaker_opens >= 1
    # Once open, new requests go straight to the healthy replica.
    assert not router.replicas[0].breaker.available(env.now)
    request = router.submit(n_tokens=4)
    assert request.tried[0] == 1
    env.run()


# ----------------------------------------------- stalled-replica placement

def test_router_steers_away_from_stalled_replica():
    """Regression: a stalled replica admits no batches, so sending
    first attempts there just queues them behind the stall window."""
    env, servers, router = make_router(n_servers=2)
    servers[0].stall_until = env.now + 10.0
    assert router.replicas[0].stalled
    requests = [router.submit(n_tokens=4) for _ in range(3)]
    assert all(r.tried[0] == 1 for r in requests)
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    env.run(until=servers[0].stall_until)
    assert not router.replicas[0].stalled  # window expired with time


def test_router_steers_away_from_draining_replica():
    env, servers, router = make_router(n_servers=2)
    servers[0].pause()
    assert router.replicas[0].stalled
    request = router.submit(n_tokens=4)
    assert request.tried[0] == 1
    servers[0].resume()
    assert not router.replicas[0].stalled
    env.run()
    assert request.outcome == "ok"


def test_stalled_replica_is_last_resort_not_a_failure():
    env, servers, router = make_router(n_servers=2)
    servers[0].stall_until = env.now + 0.5
    servers[1].crash()
    env.run(until=env.now + 0.001)  # let the crash interrupt propagate
    request = router.submit(n_tokens=4)
    # Queueing behind the stall beats failing the request outright.
    assert request.tried[0] == 0
    env.run()
    assert request.outcome == "ok"


def test_admission_control_ignores_stalled_queue_depths():
    """A stalled replica's empty queue must not fool the feasibility
    projection — its queue cannot move until the stall ends."""
    env, servers, router = make_router(n_servers=2, deadline_seconds=0.5)
    servers[0].stall_until = env.now + 100.0
    for _ in range(3):
        router.submit(n_tokens=4)  # no estimate yet: admitted freely
    assert servers[1].queue_depth == 3  # all steered to the live one
    router._est_prior = 0.4
    request = router.submit(n_tokens=4)
    assert request.outcome == "shed"
    assert router.stats.shed == 1


def test_reconfig_stall_fault_steers_first_attempts():
    """The satellite-2 regression, end to end: a ``reconfig_stall``
    fault deprioritises the victim for fresh placements."""
    env = Environment()
    fleet = small_fleet(env)
    fleet.apply_fault(FaultEvent(time=0.0, kind="reconfig_stall",
                                 target=0, duration=5.0))
    assert fleet.replicas[0].stalled
    requests = [fleet.submit(n_tokens=4) for _ in range(6)]
    assert all(r.tried[0] != 0 for r in requests)
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    assert fleet.stats.lost == 0


# ------------------------------------------------------------ fleet faults

#: Both fleet constructors; every data-plane fault test runs on each.
FLEET_KINDS = ("static", "autoscaled")


def small_fleet(env, mode="mig-mps", kind="static", **kwargs):
    """Four replicas: ``srv0``-``srv3``, or on the autoscaled fleet (flat
    MPS whatever ``mode`` says) ``hot-r0, hot-r1, cold-r0, cold-r1``."""
    if kind == "autoscaled":
        functions = [FleetFunction(name, 2, slo_seconds=60.0,
                                   initial_pct=25, n_tokens=4)
                     for name in ("hot", "cold")]
        return AutoscaledServingFleet(env, functions, **kwargs)
    return ServingFleet(env, mode=mode, n_partitions=2,
                        servers_per_partition=2, **kwargs)


def fleet_targets(fleet):
    """``(group, replica)`` pairs in fault-target order."""
    return [(g, r) for g in fleet.groups.values() for r in g.replicas]


def fleet_submit(fleet, n_tokens):
    """Route one request through the fleet's first group."""
    return next(iter(fleet.groups.values())).router.submit(n_tokens)


def fleet_lost(fleet):
    return sum(g.stats.lost for g in fleet.groups.values())


def test_fleet_validates_mode():
    with pytest.raises(ValueError):
        ServingFleet(Environment(), mode="bare-metal")


def test_fleet_replica_crash_and_respawn():
    for kind, label in zip(FLEET_KINDS, ("srv1", "hot-r1")):
        env = Environment()
        fleet = small_fleet(env, kind=kind)
        group, dead = fleet_targets(fleet)[1]
        description = fleet.apply_fault(
            FaultEvent(time=0.0, kind="replica_crash", target=1,
                       duration=2.0))
        assert label in description
        assert fleet.faults == {"replica_crash": 1}
        assert group.stats.faults == {"replica_crash": 1}
        env.run(until=env.now + 0.001)  # let the crash interrupt propagate
        assert not dead.alive
        env.run(until=env.now + 3.0)
        assert dead.alive  # respawned
        assert dead.incarnations == 2
        request = fleet_submit(fleet, 4)
        env.run()
        assert request.outcome == "ok"


def test_fleet_straggler_replica_restores():
    for kind, label in zip(FLEET_KINDS, ("srv0", "hot-r0")):
        env = Environment()
        fleet = small_fleet(env, kind=kind)
        _group, replica = fleet_targets(fleet)[0]
        description = fleet.apply_fault(
            FaultEvent(time=0.0, kind="straggler_replica", target=0,
                       duration=5.0, factor=4.0))
        assert label in description
        assert fleet.faults == {"straggler_replica": 1}
        assert replica.server.slowdown == 4.0
        env.run(until=env.now + 6.0)
        assert replica.server.slowdown == 1.0


def test_fleet_straggler_device_restores_overhead():
    for kind in FLEET_KINDS:
        env = Environment()
        fleet = small_fleet(env, kind=kind)
        groups = [g for g in fleet.device.groups if g.clients]
        before = [g.overhead_factor for g in groups]
        fleet.apply_fault(FaultEvent(time=0.0, kind="straggler_device",
                                     target=0, duration=5.0, factor=2.0))
        assert any(g.overhead_factor != b for g, b in zip(groups, before))
        # Device-scoped: the fault counts in every group's stats.
        assert fleet.faults == {"straggler_device": 1}
        assert all(g.stats.faults == {"straggler_device": 1}
                   for g in fleet.groups.values())
        env.run(until=env.now + 6.0)
        assert [g.overhead_factor for g in groups] == before


def test_fleet_overlapping_stragglers_restore_in_order():
    """Overlapping stragglers on one target: each fault's end lifts only
    its own share, and the last end restores the pre-fault value."""
    for kind in FLEET_KINDS:
        env = Environment()
        fleet = small_fleet(env, mode="mps", kind=kind)
        server = fleet_targets(fleet)[0][1].server
        dgroup = next(g for g in fleet.device.groups if g.clients)
        base = dgroup.overhead_factor
        for t, factor in ((0.0, 2.0), (5.0, 4.0)):
            env.run(until=t)
            for fault in ("straggler_device", "straggler_replica"):
                fleet.apply_fault(FaultEvent(time=t, kind=fault, target=0,
                                             duration=10.0, factor=factor))
        env.run(until=7.0)  # both active
        assert dgroup.overhead_factor == base / 2.0 / 4.0
        assert server.slowdown == 4.0
        env.run(until=12.0)  # the first has ended, the second has not
        assert dgroup.overhead_factor == base / 4.0
        assert server.slowdown == 4.0
        env.run(until=16.0)  # both ended
        assert dgroup.overhead_factor == base
        assert server.slowdown == 1.0


def test_fleet_stall_and_launch_failure_descriptions():
    labels = {"static": ("srv2", "srv3"), "autoscaled": ("cold-r0", "cold-r1")}
    for kind in FLEET_KINDS:
        stall_label, launch_label = labels[kind]
        env = Environment()
        fleet = small_fleet(env, kind=kind)
        targets = fleet_targets(fleet)
        d1 = fleet.apply_fault(FaultEvent(time=0.0, kind="reconfig_stall",
                                          target=2, duration=3.0))
        assert f"stall {stall_label}" in d1
        d2 = fleet.apply_fault(FaultEvent(time=0.0, kind="launch_failure",
                                          target=3))
        assert launch_label in d2
        assert targets[3][1].server.fail_next_launches == 1
        request = fleet_submit(fleet, 4)
        env.run()
        assert request.outcome == "ok"
        expected = {"reconfig_stall": 1, "launch_failure": 1}
        assert targets[2][0].stats.faults == expected
        assert fleet.faults == expected


def test_fleet_ecc_confined_to_mig_instance():
    env = Environment()
    fleet = small_fleet(env, mode="mig-mps")
    requests = [fleet.submit(n_tokens=100) for _ in range(4)]
    env.run(until=env.now + 0.1)  # let kernels become resident
    resident_before = fleet.device.resident_count
    assert resident_before > 0
    fleet.apply_fault(FaultEvent(time=0.0, kind="ecc", target=0))
    _domain, killed, resident = fleet.ecc_log[0]
    assert resident == resident_before
    assert 0 < killed < resident  # confined: not the whole device
    env.run()
    assert all(r.outcome == "ok" for r in requests)  # retried to success
    assert fleet.stats.lost == 0


def test_fleet_ecc_kills_everything_under_flat_mps():
    for kind in FLEET_KINDS:
        env = Environment()
        fleet = small_fleet(env, mode="mps", kind=kind)
        requests = [fleet_submit(fleet, 100) for _ in range(4)]
        env.run(until=env.now + 0.1)
        fleet.apply_fault(FaultEvent(time=0.0, kind="ecc", target=0))
        assert len(fleet.ecc_log) == 1
        _domain, killed, resident = fleet.ecc_log[0]
        assert resident > 0 and killed == resident  # whole shared context
        assert fleet.faults == {"ecc": 1}
        assert all(g.stats.faults == {"ecc": 1}
                   for g in fleet.groups.values())
        env.run()
        assert all(r.outcome == "ok" for r in requests)
        assert fleet_lost(fleet) == 0
