"""MIG instances are exact allocation domains.

A MIG instance is hardware-isolated in SMs *and* bandwidth, so a kernel
on one instance must never move another instance's rates — not even in
the last ulp.  The differential oracle: N instances on one device give
every client latencies bit-identical to N single-instance devices fed
the same client RNG streams.  The same must hold under an ECC fault:
killing one instance's kernels leaves every other instance's latencies
bit-identical to the fault-free run.

Each scenario runs with ``cross_check=True`` (every per-domain
allocation is verified against the full recompute on that domain's
tasks) and with the default, which ``REPRO_ALLOC_CHECK=1`` turns into a
second cross-checked run.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import pytest

from repro.gpu import (
    A100_80GB,
    GpuMonitor,
    MigManager,
    ShareGroup,
    SimulatedGPU,
)
from repro.gpu.faults import domain_of, kill_domain
from repro.gpu.memory import MemoryPool
from repro.sim import Environment
from repro.workloads import (
    LLAMA2_7B,
    InferenceRuntime,
    InferenceServer,
    LlamaInference,
    OpenLoopClient,
)
from repro.workloads.shardcells import sharded_scale_report

N_INSTANCES = 7
SERVERS = 16
REQUESTS_PER_CLIENT = 6
#: ~95% offered load on the 7x16 fleet, so queues build and a drifted
#: rate anywhere shows up as a different latency.
RATE_RPS = 3.88 / (N_INSTANCES * SERVERS)
N_TOKENS = 16
SEED = 1009
ECC_AT = 40.0

LLM = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))


class Run(NamedTuple):
    #: Per-client latency lists keyed by global client index.
    latencies: dict
    gpu: SimulatedGPU
    #: Kernels killed by the ECC fault (None without one).
    killed: Optional[int]
    #: Global client index of every failed request.
    failures: list
    monitor: Optional[GpuMonitor]


def _serve(instances, cross_check, ecc_instance=None, monitor=False):
    """Run 16 MPS servers per listed instance index on one device.

    Client ``(i, j)`` draws its arrivals from the stream seeded by its
    global index ``i * SERVERS + j``, whichever device it lands on.
    """
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB, cross_check=cross_check)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    latencies: dict[int, list[float]] = {}
    failures: list[int] = []
    mig = {}
    clients = []
    for i in instances:
        mig[i] = manager.create_instance("1g.10gb")
        daemon = mig[i].enable_mps()
        for j in range(SERVERS):
            k = i * SERVERS + j
            record = latencies.setdefault(k, [])

            def on_complete(request, record=record):
                record.append(request.finish_time - request.arrival_time)

            def on_failure(request, exc, k=k):
                failures.append(k)
                request.done._defused = True

            server = InferenceServer(
                env, daemon.client(f"srv{k}"), LLM, max_batch_size=1,
                keep_completed=False, on_complete=on_complete,
                on_failure=on_failure)
            rng = np.random.default_rng(np.random.SeedSequence([SEED, k]))
            clients.append(OpenLoopClient(
                env, server, rate_rps=RATE_RPS,
                n_requests=REQUESTS_PER_CLIENT, n_tokens=N_TOKENS, rng=rng,
                streaming=True))
    killed = []
    if ecc_instance is not None:
        group = mig[ecc_instance].group
        env.schedule_callback(ECC_AT, lambda: killed.append(
            kill_domain(gpu, domain_of(gpu, group))))
    mon = GpuMonitor(gpu, interval=5.0) if monitor else None
    env.run(until=env.all_of([c.done for c in clients]))
    return Run(latencies, gpu, killed[0] if killed else None, failures, mon)


@pytest.fixture(scope="module", params=[True, None],
                ids=["cross_check", "default"])
def fault_free(request):
    return request.param, _serve(range(N_INSTANCES), request.param)


def test_instances_match_single_instance_devices(fault_free):
    cross_check, together = fault_free
    assert together.gpu.resident_count == 0
    for i in range(N_INSTANCES):
        alone = _serve([i], cross_check).latencies
        for k, lat in alone.items():
            assert len(lat) == REQUESTS_PER_CLIENT
            assert together.latencies[k] == lat, f"client {k} on instance {i}"


def test_ecc_blast_radius_is_exact(fault_free):
    cross_check, baseline = fault_free
    victim = 3
    faulted = _serve(range(N_INSTANCES), cross_check, ecc_instance=victim)
    assert faulted.killed > 0
    assert {k // SERVERS for k in faulted.failures} == {victim}
    for k, lat in faulted.latencies.items():
        if k // SERVERS != victim:
            assert lat == baseline.latencies[k], f"client {k} moved by the ECC"
    assert faulted.gpu.resident_count == 0


def test_twin_runs_are_identical(fault_free):
    cross_check, first = fault_free
    second = _serve(range(N_INSTANCES), cross_check)
    assert first.latencies == second.latencies
    assert first.gpu.alloc_calls == second.gpu.alloc_calls
    assert first.gpu.sm_seconds == second.gpu.sm_seconds


def test_scale_cells_invariant_in_shard_count():
    reports = [sharded_scale_report(n_cells=2, n_shards=n,
                                    n_requests_per_cell=224, seed=3,
                                    use_processes=False)
               for n in (1, 2)]
    for r in reports:
        r.pop("execution")
    assert reports[0] == reports[1]


def test_utilisation_sums_over_domains():
    """SM-seconds of the 7-instance device equal the sum over seven
    single-instance devices, and the monitor counts MIG residents."""
    run = _serve(range(N_INSTANCES), None, monitor=True)
    singles = sum(_serve([i], None).gpu.sm_seconds
                  for i in range(N_INSTANCES))
    assert run.gpu.sm_seconds == pytest.approx(singles, rel=1e-12)
    assert run.gpu.bw_byte_seconds > 0
    assert 0.0 < run.gpu.sm_utilization() <= 1.0
    assert max(s.resident_kernels for s in run.monitor.samples) > 0


def test_public_residency_api_spans_domains():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    a, b = (manager.create_instance("1g.10gb") for _ in range(2))
    kernel = LLM.decode_kernel()
    da = a.enable_mps().client("a").launch(kernel)
    db = b.enable_mps().client("b").launch(kernel)
    assert gpu.resident_count == 2
    # The shared domain holds nothing in MIG mode.
    assert len(gpu._shared.pool) == 0
    (ta, tb) = gpu.resident_tasks
    assert ta.meta["client"].group is a.group
    assert gpu.cancel(ta) > 0
    assert gpu.resident_count == 1
    gpu.poke(b.group)
    gpu.poke()
    env.run(until=db)
    assert not da.triggered and db.ok
    assert gpu.resident_count == 0


def test_isolated_caps_must_fit_the_device():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    instance = manager.create_instance("7g.80gb")
    with pytest.raises(ValueError, match="caps sum"):
        gpu.add_group(ShareGroup(name="extra", device=gpu, sm_budget=1,
                                 bw_cap=instance.group.bw_cap / 8,
                                 memory=MemoryPool(1.0),
                                 discipline="spatial"))


def test_removed_instance_keeps_its_utilisation():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    instance = manager.create_instance("1g.10gb")
    client = instance.enable_mps().client("a")
    done = client.launch(LLM.decode_kernel())
    with pytest.raises(RuntimeError, match="still attached"):
        manager.destroy_instance(instance)
    env.run(until=done)
    used = gpu.sm_seconds
    assert used > 0
    client.close()
    manager.destroy_instance(instance)
    assert gpu.sm_seconds == used
    assert gpu.resident_count == 0


def test_group_with_resident_kernels_cannot_be_removed():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    instance = manager.create_instance("1g.10gb")
    client = instance.enable_mps().client("a")
    client.launch(LLM.decode_kernel())
    client.close()  # the kernel outlives its client
    with pytest.raises(RuntimeError, match="kernels still resident"):
        manager.destroy_instance(instance)


def test_time_sliced_instance_with_queued_kernels_cannot_be_removed():
    # Without MPS an instance's clients take turns, so a closed client's
    # kernels can still be queued, not yet resident.
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    instance = manager.create_instance("1g.10gb")
    clients = [instance.client(name) for name in ("a", "b")]
    done = [c.launch(LLM.decode_kernel()) for c in clients]
    for c in clients:
        c.close()
    assert gpu.resident_count == 0
    with pytest.raises(RuntimeError, match="2 queued"):
        manager.destroy_instance(instance)
    env.run(until=done[1])
    used = gpu.sm_seconds
    assert used > 0
    manager.destroy_instance(instance)
    assert gpu.sm_seconds == used
