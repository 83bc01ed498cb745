"""The incremental allocator must be bit-identical to the full recompute.

Two layers of defence, both exercised here:

- ``cross_check=True`` makes the device run the full hierarchical
  recompute after every incremental allocation and raise
  ``AllocatorMismatch`` on the first float that differs — so simply
  *running* a schedule under cross-check is an exhaustive equality test
  over every membership change in it;
- twin runs (incremental vs ``incremental=False``) must produce
  exactly equal completion timestamps, which additionally pins the
  event-loop interaction (wakeup horizons derive from rates).

Schedules are randomised over client counts, kernel shapes, and launch
staggering, across the three sharing topologies (flat MPS, MIG+MPS,
vGPU fair-share), because the allocator's branches differ per topology:
MPS exercises the aggregate-cap shrink, MIG the per-group bandwidth
caps, and vGPU the fair SM policy with an overhead factor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    A100_40GB,
    Kernel,
    MigManager,
    MpsControlDaemon,
    SimulatedGPU,
)
from repro.gpu.vgpu import VgpuManager
from repro.sim import Environment

SPEC = A100_40GB


@st.composite
def launch_schedule(draw, max_clients=4, max_kernels=10):
    """A list of (client index, start delay, kernel shape) launches."""
    n_clients = draw(st.integers(min_value=1, max_value=max_clients))
    n_kernels = draw(st.integers(min_value=1, max_value=max_kernels))
    launches = []
    for _ in range(n_kernels):
        launches.append((
            draw(st.integers(min_value=0, max_value=n_clients - 1)),
            draw(st.floats(min_value=0.0, max_value=0.5,
                           allow_nan=False, allow_infinity=False)),
            draw(st.floats(min_value=1e6, max_value=1e12)),   # flops
            draw(st.floats(min_value=0.0, max_value=1e9)),    # bytes
            draw(st.integers(min_value=1, max_value=SPEC.sms)),
        ))
    return n_clients, launches


def _drive(env, clients, launches):
    """Launch every kernel on its schedule; return completion times."""
    finished = []

    def submit(env, client, delay, kernel):
        yield env.timeout(delay)
        yield client.launch(kernel)
        finished.append(env.now)

    procs = []
    for i, (c, delay, flops, nbytes, max_sms) in enumerate(launches):
        kernel = Kernel(flops=flops, bytes_moved=nbytes, max_sms=max_sms,
                        name=f"k{i}")
        procs.append(env.process(submit(env, clients[c], delay, kernel)))
    env.run(until=env.all_of(procs))
    return finished


def _mps_setup(env, gpu, n_clients):
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    pct = 100 // n_clients
    return [daemon.client(f"c{i}", active_thread_percentage=pct)
            for i in range(n_clients)]


def _mig_setup(env, gpu, n_clients):
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    instances = [manager.create_instance("1g.5gb"),
                 manager.create_instance("2g.10gb")]
    daemons = [inst.enable_mps() for inst in instances]
    return [daemons[i % 2].client(f"c{i}") for i in range(n_clients)]


def _vgpu_setup(env, gpu, n_clients):
    manager = VgpuManager(gpu, num_vms=min(2, n_clients))
    return [manager.vm(i % min(2, n_clients)).client(f"c{i}")
            for i in range(n_clients)]


TOPOLOGIES = {"mps": _mps_setup, "mig": _mig_setup, "vgpu": _vgpu_setup}


def _run(topology, schedule, incremental):
    n_clients, launches = schedule
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                       cross_check=incremental)
    clients = TOPOLOGIES[topology](env, gpu, n_clients)
    finished = _drive(env, clients, launches)
    return finished, env.now, gpu


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@given(schedule=launch_schedule())
@settings(max_examples=25, deadline=None)
def test_incremental_matches_full_recompute(topology, schedule):
    """Twin runs agree exactly; cross-check guards every intermediate."""
    inc_times, inc_now, gpu = _run(topology, schedule, incremental=True)
    full_times, full_now, _ = _run(topology, schedule, incremental=False)
    assert inc_times == full_times      # exact float equality, no approx
    assert inc_now == full_now
    assert gpu.alloc_calls > 0


@given(schedule=launch_schedule())
@settings(max_examples=25, deadline=None)
def test_cancellation_keeps_paths_identical(schedule):
    """Admit/cancel churn (eviction mid-flight) stays bit-identical."""
    n_clients, launches = schedule

    def run(incremental):
        env = Environment()
        gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                           cross_check=incremental)
        clients = _mps_setup(env, gpu, n_clients)
        events = []

        def submit(env, client, delay, kernel, cancel_after):
            yield env.timeout(delay)
            done = client.launch(kernel)
            # Spatial groups admit immediately, so the newest resident
            # task with our client is ours.
            mine = [t for t in gpu.resident_tasks
                    if t.meta.get("client") is client]
            task = mine[-1] if mine else None
            if cancel_after is not None and task is not None:
                yield env.timeout(cancel_after)
                if not done.triggered and task in gpu.resident_tasks:
                    gpu.cancel(task)
                    events.append(("cancel", env.now))
                    return
            yield done
            events.append(("done", env.now))

        def poker(env):
            # External capacity-change notifications interleaved with
            # the admit/cancel churn (the incremental path must survive
            # forced reallocations of an unchanged membership).
            for _ in range(3):
                yield env.timeout(0.07)
                gpu.poke()

        procs = []
        for i, (c, delay, flops, nbytes, max_sms) in enumerate(launches):
            kernel = Kernel(flops=flops, bytes_moved=nbytes,
                            max_sms=max_sms, name=f"k{i}")
            cancel_after = 0.01 if i % 3 == 0 else None
            procs.append(env.process(
                submit(env, clients[c], delay, kernel, cancel_after)))
        env.process(poker(env))
        env.run(until=env.all_of(procs))
        return events, env.now

    assert run(True) == run(False)


def test_solo_fast_path_and_counters():
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=True, cross_check=True)
    clients = _mps_setup(env, gpu, 2)

    def one(env):
        yield clients[0].launch(Kernel(flops=1e10, bytes_moved=1e8,
                                       max_sms=40))

    env.run(until=env.process(one(env)))
    # A single resident kernel goes through the solo collapse.
    assert gpu.alloc_fast_path > 0
    assert gpu.alloc_calls > 0

    def two(env):
        a = clients[0].launch(Kernel(flops=1e11, bytes_moved=1e8, max_sms=40))
        b = clients[1].launch(Kernel(flops=1e11, bytes_moved=1e8, max_sms=40))
        yield env.all_of([a, b])

    env.run(until=env.process(two(env)))
    assert gpu.alloc_group_recomputes > 0


def test_group_reuse_skips_clean_groups():
    """With two groups in one shared domain, churn in one must not
    recompute the other.  vGPU VMs share the device's allocation domain
    (MIG instances each get their own, so they cannot show reuse)."""
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=True, cross_check=True)
    vms = VgpuManager(gpu, num_vms=2).vms
    # MPS inside each VM makes its clients' kernels co-resident.
    daemons = [MpsControlDaemon(gpu, group=vm.group) for vm in vms]
    for daemon in daemons:
        daemon.start()
    # Four clients over two VMs (even index -> VM 0).
    clients = [daemons[i % 2].client(f"c{i}") for i in range(4)]

    def busy(env, client, n):
        for _ in range(n):
            yield client.launch(Kernel(flops=1e10, bytes_moved=1e7,
                                       max_sms=14))

    # VM 0 churns (two clients trading short kernels) while VM 1 holds
    # one long kernel: every churn event dirties only group 0, so group
    # 1's cached state must be reused.  (Reuse needs at least two
    # resident tasks throughout — a single resident kernel takes the
    # solo path, which drops the cache on purpose.)
    def long_one(env):
        yield clients[1].launch(Kernel(flops=5e12, bytes_moved=1e7,
                                       max_sms=28))

    procs = [env.process(busy(env, clients[0], 10)),
             env.process(busy(env, clients[2], 10)),
             env.process(long_one(env))]
    env.run(until=env.all_of(procs))
    assert gpu.alloc_group_reuses > 0
    assert gpu.alloc_group_recomputes > 0


def test_incremental_default_on_and_env_cross_check(monkeypatch):
    monkeypatch.setenv("REPRO_ALLOC_CHECK", "1")
    env = Environment()
    gpu = SimulatedGPU(env, SPEC)
    assert gpu.incremental is True
    assert gpu.cross_check is True
    monkeypatch.setenv("REPRO_ALLOC_CHECK", "0")
    assert SimulatedGPU(Environment(), SPEC).cross_check is False
