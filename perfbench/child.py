"""Run one workload in this (fresh) interpreter and print its raw result.

``run.py`` starts this script once per set-up sample and once for the
measurement, so imports, construction and peak RSS belong to one
workload alone.  The last line of standard output is one JSON object.

    python3 perfbench/child.py --workload serve_scale --seed 1 \\
        --seconds 15 --trace 0 --t0 <time.monotonic() at launch>

Host times are reported in *reference seconds*.  The measuring host is
shared, and its speed drifts by ±20% within a minute; a fixed
pure-Python kernel (heap, dict and float work, like the simulator's)
is timed before and after every timed step, and each step's wall time
is scaled by ``REFERENCE_SECONDS / kernel time``.  On a steady host the
scale is ~1; measured on a drifting one, it cut the run-to-run spread
of a fixed episode's throughput from 0.13 to 0.04.  The raw figures are
printed too.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import statistics
import time
from typing import NamedTuple

#: The reference kernel's median time on the host the benchmark was
#: written on (2-core Intel Xeon container, 2.1 GHz, Python 3.11).
REFERENCE_SECONDS = 0.014


def reference_kernel(n: int = 20_000) -> float:
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        k = i & 255
        table[k] = table.get(k, 0.0) + i * 0.5
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc


def reference_seconds(reps: int = 5) -> float:
    """Median time of the reference kernel on this host, right now."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(out, timers: dict) -> dict:
    """Per-layer counts read from one episode's outcome."""
    c = out.counters
    return {
        "gpu.device.alloc_calls": c.get("alloc_calls", 0),
        "gpu.device.recompute_ratio": ratio(c.get("alloc_group_recomputes", 0),
                                            c.get("alloc_calls", 0)),
        "sim.core.events_per_op": ratio(c.get("events", 0), out.ops),
        "workloads.resilience.amplification": ratio(c.get("attempts", 0),
                                                    c.get("offered", 0)),
        "workloads.resilience.retries": c.get("retries", 0),
        "workloads.resilience.hedges": c.get("hedges", 0),
        "workloads.resilience.hedge_win_ratio": ratio(c.get("hedge_wins", 0),
                                                      c.get("hedges", 0)),
        "faas.chaos.faults_applied": c.get("faults_applied", 0),
        "workloads.autoscale.ticks": c.get("ticks", 0),
        "workloads.autoscale.resize_attempts": c.get("resize_attempts", 0),
        "workloads.autoscale.resize_abort_ratio": ratio(
            c.get("resize_aborts", 0), c.get("resize_attempts", 0)),
        "workloads.autoscale.degraded_fraction": c.get("degraded_fraction",
                                                       0.0),
        "workloads.autoscale.cache_hit_ratio": ratio(
            c.get("weight_cache_hits", 0), c.get("replica_restarts", 0)),
        "workloads.autoscale.reconfig_downtime_s": c.get(
            "reconfiguration_downtime", 0.0),
        "cluster.packing.greedy_s": timers.get("greedy_s", 0.0),
        "cluster.packing.optimize_s": timers.get("optimize_s", 0.0),
        "cluster.packing.greedy_gpus": c.get("greedy_gpus", 0.0),
        "failed_fraction": out.failed_fraction,
        "sim_latency_p50_s": out.latency_p50,
        "sim_latency_p99_s": out.latency_p99,
    }


class Done(NamedTuple):
    """One finished episode."""

    #: Timed host seconds, raw and in reference seconds.
    wall: float
    ref_wall: float
    digest: str
    outcome: object
    #: The episode's sub-call timers, in reference seconds.
    timers: dict


def run_episodes(build, seconds: float, tracer=None,
                 on_built=None) -> list:
    """Build and run episodes until ``seconds`` are spent (at least one).

    Stops once another episode would overrun the budget by more than
    half an episode.  Only the episode's steps are timed; construction,
    read-back and the reference kernel run between timed calls.
    ``on_built`` is called once the first episode is built.
    """
    done = []
    start = time.perf_counter()
    while True:
        episode = build()
        if on_built is not None:
            on_built()
            on_built = None
        wall = ref_wall = 0.0
        for step in episode.steps:
            before = reference_seconds()
            t0 = time.perf_counter()
            if tracer is None:
                step()
            else:
                with tracer:
                    step()
            step_wall = time.perf_counter() - t0
            wall += step_wall
            ref_wall += step_wall * REFERENCE_SECONDS / (
                (before + reference_seconds()) / 2)
        out = episode.outcome()
        scale = ref_wall / wall
        done.append(Done(wall, ref_wall, out.digest, out,
                         {k: v * scale for k, v in episode.timers.items()}))
        out.payload = None
        del episode
        if time.perf_counter() - start >= seconds - 0.5 * wall:
            return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent launched us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this file")
    args = parser.parse_args(argv)

    import scenarios
    from tracer import LayerTracer

    kwargs = scenarios.TINY[args.workload] if args.tiny else {}

    def build():
        return scenarios.BUILDERS[args.workload](args.seed, **kwargs)

    setup: dict = {}

    def record_setup():
        setup["raw_s"] = time.monotonic() - args.t0
        setup["reference_s"] = reference_seconds()
        setup["s"] = setup["raw_s"] * REFERENCE_SECONDS / setup["reference_s"]

    if args.setup_only:
        build()
        record_setup()
        print(json.dumps(setup))
        return 0

    episodes = run_episodes(build, args.seconds, on_built=record_setup)
    out = episodes[0].outcome
    digests = {e.digest for e in episodes}
    checks = dict(out.checks)
    checks["digest identical across episodes"] = len(digests) == 1
    for e in episodes[1:]:
        for name, ok in e.outcome.checks.items():
            checks[name] = checks[name] and ok
    attempted = sum(e.outcome.attempted for e in episodes)
    lost = sum(e.outcome.attempted - e.outcome.ops for e in episodes)
    raw = {"ops_per_s": statistics.median(e.outcome.ops / e.wall
                                          for e in episodes),
           "setup_s": setup["raw_s"],
           "reference_s": setup["reference_s"]}

    if args.trace:
        tracer = LayerTracer()
        traced = run_episodes(build, args.seconds, tracer=tracer)
        checks["traced digest == untraced digest"] = all(
            e.digest in digests for e in traced)
        metrics = tracer.layer_metrics(len(traced))
        metrics.update(layer_counters(
            out, {k: statistics.median(e.timers[k] for e in episodes)
                  for k in episodes[0].timers}))
        metrics["sim.fluid.adds_per_op"] = ratio(
            tracer.counts["fluid_adds"], out.ops * len(traced))
        metrics["trace.overhead"] = ratio(
            statistics.median(e.ref_wall for e in traced),
            statistics.median(e.ref_wall for e in episodes))
        metrics["trace.coverage"] = ratio(sum(tracer.self_s), tracer.wall)
        metrics["trace.spans"] = tracer.n_spans / len(traced)
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics = {
            "ops_per_s": statistics.median(e.outcome.ops / e.ref_wall
                                           for e in episodes),
            "slo_good_fraction": ratio(out.slo_ok, out.offered),
            "gpu_seconds_per_ok": out.gpu_seconds_per_ok,
            "gpus_used": out.gpus_used,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    correct = all(checks.values())
    print(json.dumps({
        "setup_s": setup["s"],
        "correct": correct,
        "attempted": attempted,
        "failed": lost if correct else attempted,
        "checks": checks,
        "digest": episodes[0].digest,
        "episodes": len(episodes),
        "raw": raw,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
