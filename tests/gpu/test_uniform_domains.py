"""Uniform allocation domains: the rate memo must be exact.

A domain is *uniform* when every resident kernel has the same rate
signature (group, kernel shape, client SM cap) and no client has two
resident kernels.  There every kernel gets the same rate, and the
allocator memoises ``(rate, SM total, bandwidth total)`` per resident
count.  These schedules launch identical kernels from equal-cap clients,
so the domains stay uniform and the memo is hit again and again; each
case then changes one memo input mid-run and keeps launching, so later
allocations land on resident counts the memo saw *before* the change:

- the kernel signature (every stream switches to another kernel shape);
- a client with a different SM cap joins;
- a client launches a second concurrent stream (a repeat);
- the group SM budget shrinks (no poke);
- ``overhead_factor`` moves (no poke), then ``device.poke``;
- a device-level capacity change that only the poke announces.

Every schedule runs with ``cross_check=True`` (each allocation, memo
hits included, verified against the full recompute) and as a twin run
against ``incremental=False``; completion times must be exactly equal.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import A100_80GB, Kernel, MigManager, MpsControlDaemon
from repro.gpu import SimulatedGPU
from repro.gpu.vgpu import VgpuManager
from repro.sim import Environment

N_KERNELS = 10


@st.composite
def uniform_schedule(draw):
    """Identical kernels on equal-cap clients, plus one mid-run change."""
    return {
        "n_clients": draw(st.integers(min_value=3, max_value=6)),
        "pct": draw(st.sampled_from([20, 25, 50, 100])),
        "flops": draw(st.floats(min_value=1e9, max_value=2e10)),
        "bytes": draw(st.one_of(st.just(0.0),
                                st.floats(min_value=1e7, max_value=2e9))),
        "max_sms": draw(st.integers(min_value=1, max_value=A100_80GB.sms)),
        "efficiency": draw(st.floats(min_value=0.2, max_value=1.0)),
        "gaps": draw(st.lists(st.floats(min_value=0.0, max_value=0.01),
                              min_size=3, max_size=8)),
        "change_at": draw(st.floats(min_value=0.005, max_value=0.04)),
    }


def _mps(env, gpu, n, pct):
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    clients = [daemon.client(f"c{i}", active_thread_percentage=pct)
               for i in range(n)]
    return clients, [gpu.default_group], \
        lambda name, p: daemon.client(name, active_thread_percentage=p)


def _mig(env, gpu, n, pct):
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    daemons = [manager.create_instance("1g.10gb").enable_mps()
               for _ in range(2)]
    clients = [daemons[i % 2].client(f"c{i}", active_thread_percentage=pct)
               for i in range(n)]
    return clients, [d.group for d in daemons], \
        lambda name, p: daemons[0].client(name, active_thread_percentage=p)


def _vgpu(env, gpu, n, pct):
    # VMs time-share their own kernels, so a VM's domain share is one
    # resident at a time: uniform at count 1, mixed while both VMs run.
    manager = VgpuManager(gpu, num_vms=2)
    clients = [manager.vm(i % 2).client(f"c{i}") for i in range(n)]
    return clients, [vm.group for vm in manager.vms], None


TOPOLOGIES = {"mps": _mps, "mig": _mig, "vgpu": _vgpu}
CHANGES = ["signature", "cap", "repeat", "budget", "overhead", "throttle"]
CASES = [(t, c) for t in sorted(TOPOLOGIES) for c in CHANGES
         # vGPU clients carry no SM caps, and a VM runs one kernel at a
         # time, so neither input can differ between its residents.
         if not (t == "vgpu" and c in ("cap", "repeat"))]


def _run(topology, change, sched, incremental):
    """One schedule; returns completion records, final clock, device."""
    env = Environment()
    # A private spec: the throttle case mutates it in place.
    spec = dataclasses.replace(A100_80GB)
    gpu = SimulatedGPU(env, spec, incremental=incremental,
                       cross_check=incremental)
    clients, groups, new_client = TOPOLOGIES[topology](
        env, gpu, sched["n_clients"], sched["pct"])
    kernel = [Kernel(flops=sched["flops"], bytes_moved=sched["bytes"],
                     max_sms=sched["max_sms"],
                     efficiency=sched["efficiency"], name="k")]
    gaps = sched["gaps"]
    done = []

    def stream(sid, client, offset):
        for k in range(N_KERNELS):
            yield env.timeout(gaps[(offset + k) % len(gaps)])
            yield client.launch(kernel[0])
            done.append((sid, k, env.now))

    procs = [env.process(stream(i, c, i)) for i, c in enumerate(clients)]

    def changer():
        yield env.timeout(sched["change_at"])
        if change == "signature":
            kernel[0] = dataclasses.replace(
                kernel[0], bytes_moved=2.0 * kernel[0].bytes_moved + 1e6)
        elif change == "cap":
            other = 10 if sched["pct"] != 10 else 50
            procs.append(env.process(
                stream("cap", new_client("odd", other), 1)))
        elif change == "repeat":
            procs.append(env.process(stream("repeat", clients[0], 2)))
        elif change == "budget":
            for g in groups:
                g.sm_budget = max(1, g.sm_budget // 2)
        elif change == "overhead":
            for g in groups:
                g.overhead_factor *= 0.5
            yield env.timeout(0.01)
            gpu.poke()
        elif change == "throttle":
            # Device bandwidth drops (e.g. thermal throttling): no group
            # attribute moves, only the poke says capacity changed.
            object.__setattr__(spec, "bandwidth", spec.bandwidth * 0.1)
            gpu.poke()

    env.process(changer())
    env.run()
    assert all(p.triggered for p in procs)
    return sorted(done, key=str), env.now, gpu


@pytest.mark.parametrize("topology,change", CASES)
@given(sched=uniform_schedule())
@settings(max_examples=25, deadline=None)
def test_uniform_memo_matches_full_recompute(topology, change, sched):
    inc_done, inc_now, gpu = _run(topology, change, sched, incremental=True)
    full_done, full_now, _ = _run(topology, change, sched,
                                  incremental=False)
    assert inc_done == full_done  # exact float equality, no approx
    assert inc_now == full_now
    # Bounded by construction: one entry per resident count at most.
    for domain in gpu._domains:
        assert len(domain._umemo) <= sched["n_clients"] + 1


def test_memo_serves_repeated_counts_and_solo_counter_stays_solo():
    """A steady uniform domain recomputes once per resident count."""
    sched = {"n_clients": 4, "pct": 25, "flops": 5e9, "bytes": 1e8,
             "max_sms": 108, "efficiency": 0.5,
             "gaps": [0.001, 0.0, 0.003], "change_at": 1.0}
    _, _, gpu = _run("mps", "none", sched, incremental=True)
    assert gpu.alloc_uniform_hits > 0
    # Every allocation was a memo hit, a solo-path run (count 1, first
    # time) or a recompute (a count seen for the first time).
    assert gpu.alloc_fast_path == 1
    assert gpu.alloc_group_recomputes <= sched["n_clients"] - 1
    assert (gpu.alloc_uniform_hits + gpu.alloc_fast_path
            + gpu.alloc_group_recomputes) == gpu.alloc_calls
