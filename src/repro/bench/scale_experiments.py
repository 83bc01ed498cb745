"""Million-request trace-serving scale benchmark (``repro bench``).

The paper's sweeps are many *small* simulations; this scenario is one
*large* one, sized to exercise the engine work that dominates at FaaS
fleet scale: a fully-partitioned A100-80GB (7 x ``1g.10gb`` MIG
instances, each running an MPS daemon with 16 serving functions)
under a sustained open-loop Poisson load of up to a million requests.

Two engine configurations run the identical scenario:

- ``streaming`` — the current engine: incremental allocator, pooled
  timeouts, chunked gap draws, and streaming accumulators (no
  per-request retention anywhere), so memory stays bounded however long
  the trace.
- ``legacy`` — the pre-incremental engine, reconstructed via the
  compatibility switches: ``SimulatedGPU(incremental=False)`` (full
  hierarchical recompute on every membership change, over the changed
  MIG instance's allocation domain — both engines share the
  per-instance pools),
  ``Environment(pooling=False)`` (a fresh Timeout per event), and the
  retaining client/server (every request and latency kept in lists).

Both produce the same simulated clock and the same per-request
latencies — the engines differ only in wall-clock and RSS, which is
what the report records.  Each engine runs in a forked subprocess so
``ru_maxrss`` growth measures that engine alone.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from typing import Optional

__all__ = ["build_trace_serving", "trace_serving_metrics",
           "trace_serving_scale", "scale_report", "sharded_scale_benchmark"]

#: The fixed fleet topology (see module docstring).  Batch size 1 with
#: 16-token completions is the paper's fine-grained sharing regime: many
#: small kernels from many co-resident functions, which maximises
#: allocator churn (the engine cost this benchmark isolates).
N_INSTANCES = 7
SERVERS_PER_INSTANCE = 16
MAX_BATCH_SIZE = 1
N_TOKENS = 16

#: Total offered load over the whole fleet, requests/second.  Must stay
#: below fleet capacity or queues (and, in legacy mode, memory) grow
#: without bound.  At batch size 1 the fleet is GPU-bound: capacity
#: measures ~4.07 rps regardless of server count, so 3.88 rps ~= 95%
#: utilisation — heavy enough that nearly every server keeps a kernel
#: resident (~112 concurrent fluid tasks), light enough to stay stable.
DEFAULT_RATE_RPS = 3.88


def build_trace_serving(env, n_requests: int, rate_rps: float, seed: int,
                        streaming: bool = True, stats=None) -> dict:
    """Construct the canonical scale fleet inside ``env``; return handles.

    One fully-partitioned A100-80GB (7 x ``1g.10gb``, 16 MPS serving
    functions each) plus its open-loop clients.  Shared by the bench
    engines and the sharded simulation cells, so both build the
    *identical* scenario — the bit-identity the differential tests
    assert rests on this single construction path.

    ``stats`` (any object with ``add(latency)``) is handed to every
    streaming client; pass a recording wrapper to tap completions.
    Returns ``{"gpu", "manager", "servers", "clients", "stats",
    "n_servers", "n_requests"}``.
    """
    import numpy as np

    from repro.gpu.device import SimulatedGPU
    from repro.gpu.mig import MigManager
    from repro.gpu.specs import A100_80GB
    from repro.telemetry.streaming import StreamingLatencyStats
    from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference
    from repro.workloads.serving import InferenceServer, OpenLoopClient

    # Pin cross_check off: this is a performance measurement, and an
    # inherited REPRO_ALLOC_CHECK=1 would make the incremental engine
    # run the full recompute after every allocation anyway.
    gpu = SimulatedGPU(env, A100_80GB, incremental=streaming,
                       cross_check=False)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    # int8 weights: LLaMa-2-7B fits a 1g.10gb slice.
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))

    n_servers = N_INSTANCES * SERVERS_PER_INSTANCE
    if streaming and stats is None:
        stats = StreamingLatencyStats()
    servers: list[InferenceServer] = []
    clients: list[OpenLoopClient] = []
    per_server = max(1, n_requests // n_servers)
    for i in range(N_INSTANCES):
        instance = manager.create_instance("1g.10gb")
        daemon = instance.enable_mps()
        for j in range(SERVERS_PER_INSTANCE):
            k = i * SERVERS_PER_INSTANCE + j
            server = InferenceServer(
                env, daemon.client(f"srv{k}"), llm,
                max_batch_size=MAX_BATCH_SIZE,
                keep_completed=not streaming,
                kernel_cache=streaming)
            servers.append(server)
            clients.append(OpenLoopClient(
                env, server, rate_rps=rate_rps / n_servers,
                n_requests=per_server, n_tokens=N_TOKENS,
                rng=np.random.default_rng(seed + k),
                streaming=streaming, stats=stats))
    return {"gpu": gpu, "manager": manager, "servers": servers,
            "clients": clients, "stats": stats, "n_servers": n_servers,
            "n_requests": per_server * n_servers}


def trace_serving_metrics(env, handles: dict, engine: str,
                          rate_rps: float) -> dict:
    """The deterministic half of the engine metrics dict.

    Everything here is a pure function of (seed, config) — wall clock
    and RSS are layered on by :func:`_run_engine`, and excluded when
    the differential tests compare sharded against single-process runs.
    """
    from repro.telemetry import summarize

    streaming = engine == "streaming"
    if streaming:
        lat = handles["stats"].stats()
    else:
        lat = summarize([r.latency for s in handles["servers"]
                         for r in s.completed])
    gpu = handles["gpu"]
    return {
        "engine": engine,
        "n_requests": handles["n_requests"],
        "n_servers": handles["n_servers"],
        "rate_rps": rate_rps,
        "sim_seconds": env.now,
        "events": env.events_processed,
        "alloc_calls": gpu.alloc_calls,
        "alloc_group_recomputes": gpu.alloc_group_recomputes,
        "latency": {
            "count": lat.count,
            "mean": lat.mean,
            "p50": lat.p50,
            "p95": lat.p95,
            "p99": lat.p99,
            "min": lat.minimum,
            "max": lat.maximum,
        },
    }


def _run_engine(engine: str, n_requests: int, rate_rps: float,
                seed: int) -> dict:
    """Run one engine configuration inline; returns the metrics dict."""
    from repro.sim.core import Environment

    if engine not in ("streaming", "legacy"):
        raise ValueError(f"unknown engine {engine!r}")
    streaming = engine == "streaming"

    env = Environment(pooling=streaming)
    handles = build_trace_serving(env, n_requests, rate_rps, seed,
                                  streaming=streaming)

    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    env.run(until=env.all_of([c.done for c in handles["clients"]]))
    wall = time.perf_counter() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    metrics = trace_serving_metrics(env, handles, engine, rate_rps)
    metrics["wall_seconds"] = wall
    metrics["events_per_sec"] = (env.events_processed / wall
                                 if wall > 0 else 0.0)
    metrics["rss_growth_kb"] = max(0, rss1 - rss0)
    return metrics


def _subprocess_target(conn, engine, n_requests, rate_rps, seed):
    try:
        conn.send(_run_engine(engine, n_requests, rate_rps, seed))
    except BaseException as exc:  # pragma: no cover - forwarded to parent
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def trace_serving_scale(engine: str, n_requests: int,
                        rate_rps: float = DEFAULT_RATE_RPS,
                        seed: int = 0, isolate: bool = True) -> dict:
    """Run the scale scenario under one engine; returns the metrics dict.

    With ``isolate=True`` (the default) the run happens in a forked
    child process, so its ``rss_growth_kb`` is not polluted by whatever
    the parent allocated before — ``ru_maxrss`` is a process-lifetime
    high-water mark, and a big earlier run would otherwise mask a small
    later one.
    """
    if not isolate:
        return _run_engine(engine, n_requests, rate_rps, seed)
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_subprocess_target,
                       args=(child, engine, n_requests, rate_rps, seed))
    proc.start()
    child.close()
    try:
        result = parent.recv()
    finally:
        proc.join()
        parent.close()
    if "error" in result:
        raise RuntimeError(f"scale run failed in subprocess: {result['error']}")
    return result


#: Sharded-bench shape: one cell per MIG-partitioned device, matching
#: the canonical topology, so the ideal speedup is ``min(cores, 7)``.
SHARDED_N_CELLS = 7
#: Events/sec floor for sharded vs single-process on a multi-core
#: runner (the gate is advisory on smaller machines — there is nothing
#: to parallelise onto).
SHARDED_SPEEDUP_FLOOR = 5.0
SHARDED_MIN_CORES = 6


def sharded_scale_benchmark(quick: bool = False, seed: int = 0,
                            n_requests_per_cell: Optional[int] = None,
                            n_cells: int = SHARDED_N_CELLS,
                            n_shards: Optional[int] = None,
                            epoch_seconds: float = 60.0) -> dict:
    """The ``sharded`` subsection of the ``scale`` bench section.

    Runs the identical ``n_cells``-device workload twice — once
    in-process on one shard (the current streaming engine, serialised)
    and once over ``n_shards`` worker processes — then gates on two
    things: the deterministic payloads must be bit-identical (shard
    count is an execution detail, not a model input), and on a
    multi-core runner (>= ``SHARDED_MIN_CORES`` cores) the sharded run
    must clear ``SHARDED_SPEEDUP_FLOOR``x the single-process events/sec.
    Worker RSS growth is reported per shard so a leak in any one cell
    process is visible rather than averaged away.
    """
    import json
    import os

    from repro.workloads.shardcells import sharded_scale_report

    per_cell = n_requests_per_cell or (400 if quick else 4_000)
    cores = os.cpu_count() or 1
    if n_shards is None:
        n_shards = min(n_cells, cores)

    def timed(shards: int, use_processes: bool) -> tuple:
        t0 = time.perf_counter()
        out = sharded_scale_report(n_cells, shards, per_cell, seed=seed,
                                   epoch_seconds=epoch_seconds,
                                   use_processes=use_processes)
        wall = time.perf_counter() - t0
        events = out["merged"]["events_processed"]
        summary = {
            "shards": shards,
            "processes": use_processes,
            "events": events,
            "n_requests": out["merged"]["n_requests"],
            "wall_seconds": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "worker_rss_growth_kb": out["execution"]["worker_rss_growth_kb"],
            "worker_respawns": out["execution"]["worker_respawns"],
        }
        return out, summary

    single_out, single = timed(1, use_processes=False)
    sharded_out, sharded = timed(n_shards, use_processes=True)

    def payload(out: dict) -> str:
        return json.dumps({k: v for k, v in out.items()
                           if k != "execution"}, sort_keys=True,
                          default=repr)

    identical = payload(single_out) == payload(sharded_out)
    speedup = (sharded["events_per_sec"] / single["events_per_sec"]
               if single["events_per_sec"] > 0 else 0.0)
    enforced = cores >= SHARDED_MIN_CORES and n_shards >= SHARDED_SPEEDUP_FLOOR
    gate = {
        "identical": identical,
        "speedup_floor": SHARDED_SPEEDUP_FLOOR,
        "speedup": speedup,
        "speedup_enforced": enforced,
        "pass": identical and (not enforced
                               or speedup >= SHARDED_SPEEDUP_FLOOR),
    }
    return {
        "n_cells": n_cells,
        "n_requests_per_cell": per_cell,
        "epoch_seconds": epoch_seconds,
        "cores": cores,
        "events_digest": sharded_out["merged"]["events_digest"],
        "merged_latency": sharded_out["merged"]["latency"],
        "single": single,
        "sharded": sharded,
        "speedup": speedup,
        "gate": gate,
    }


def scale_report(quick: bool = False, seed: int = 0,
                 n_requests: Optional[int] = None) -> dict:
    """The ``scale`` section of ``BENCH_<date>.json``.

    Runs the streaming engine and the legacy engine on the same
    scenario at a comparison size (both engines, so the speedup is
    apples-to-apples), then — unless ``quick`` — the streaming engine
    alone at the million-request headline size (the legacy engine at
    that size is exactly the slow, memory-unbounded case this PR
    removes).
    """
    compare_n = n_requests or (2_500 if quick else 25_000)
    streaming = trace_serving_scale("streaming", compare_n, seed=seed)
    legacy = trace_serving_scale("legacy", compare_n, seed=seed)
    report = {
        "scenario": {
            "gpu": "A100_80GB",
            "topology": f"{N_INSTANCES}x 1g.10gb MIG, "
                        f"{SERVERS_PER_INSTANCE} MPS servers each",
            "model": "llama2-7b int8",
            "max_batch_size": MAX_BATCH_SIZE,
            "n_tokens": N_TOKENS,
            "rate_rps": DEFAULT_RATE_RPS,
        },
        "compare_n_requests": compare_n,
        "streaming": streaming,
        "legacy": legacy,
        "speedup": (streaming["events_per_sec"] / legacy["events_per_sec"]
                    if legacy["events_per_sec"] > 0 else 0.0),
    }
    report["sharded"] = sharded_scale_benchmark(quick=quick, seed=seed)
    if not quick:
        report["streaming_1m"] = trace_serving_scale(
            "streaming", 1_000_000, seed=seed)
    return report
