"""The benchmark's four scenarios, built from the layers' public constructors.

Every parameter is written out here rather than imported from
``repro.bench``: an edit to the in-repo bench must not silently change
what this benchmark measures.  The values mirror ``repro.bench``'s
scale, resilience, autoscale and cluster sections except where a
comment says otherwise.

Each ``build_*`` function takes the workload seed, constructs one
episode's scenario (this construction is the set-up the benchmark
times separately) and returns an :class:`Episode`.  Its ``steps`` are
the timed calls into the program, run in order; ``episode.outcome()``
reads the finished scenario back as an :class:`Outcome`.  The seed changes only
the generated inputs: arrival streams, fault plans, router seeds and
cluster demands.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.model import FunctionDemand, LatencyCurve
from repro.cluster.oracle import SizingOracle
from repro.cluster.packing import greedy_pack, optimize_pack
from repro.faas.chaos import ChaosController, FaultPlan
from repro.gpu.device import SimulatedGPU
from repro.gpu.mig import MigManager
from repro.gpu.specs import A100_40GB, A100_80GB, GB, H100_80GB, V100_32GB
from repro.sim.core import Environment
from repro.telemetry.streaming import StreamingLatencyStats
from repro.workloads.autoscale import FleetAutoscaler
from repro.workloads.fleet import (AutoscaledServingFleet, FleetFunction,
                                   ServingFleet)
from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference
from repro.workloads.resilience import SLOPolicy
from repro.workloads.serving import InferenceServer, OpenLoopClient
from repro.workloads.traces import iter_diurnal_trace

WORKLOADS = ("serve_scale", "serve_chaos", "autoscale_chaos", "cluster_pack")

# -- shared serving topology: one A100-80GB, 7 x 1g.10gb MIG, 16 MPS each ----
N_PARTITIONS = 7
SERVERS_PER_PARTITION = 16
N_SERVERS = N_PARTITIONS * SERVERS_PER_PARTITION
N_TOKENS = 16
#: Latency SLO of both 7x16 serving workloads (the resilience bench's
#: deadline).  ``serve_scale`` has no router to enforce it; it is only
#: the line its in-SLO fraction is scored against.
SERVING_SLO_SECONDS = 60.0

# -- serve_scale ---------------------------------------------------------------
#: ~95% of the fleet's ~4.07 rps batch-size-1 capacity.
SCALE_RATE_RPS = 3.88
SCALE_REQUESTS_PER_CLIENT = 24

# -- serve_chaos ---------------------------------------------------------------
CHAOS_RATE_RPS = 3.4
CHAOS_REQUESTS = 1000
#: (kind, mtbf seconds, duration, factor): the five data-plane classes.
DATA_PLANE_FAULTS = (
    ("ecc", 80.0, 0.0, 1.0),
    ("replica_crash", 80.0, 5.0, 1.0),
    ("straggler_replica", 60.0, 10.0, 4.0),
    ("launch_failure", 40.0, 0.0, 1.0),
    ("reconfig_stall", 120.0, 2.0, 1.0),
)

# -- autoscale_chaos -------------------------------------------------------------
AUTOSCALE_HORIZON = 1800.0
AUTOSCALE_REPLICAS = 3
AUTOSCALE_SLO_SECONDS = 6.0
HOT_MEAN_RPS = 0.9
COLD_MEAN_RPS = 0.45
PERIOD_SECONDS = 600.0
DEPTH = 0.8
INITIAL_PCTS = {"hot": 17, "cold": 16}
INTERVAL_SECONDS = 30.0
COOLDOWN_SECONDS = 120.0
#: (kind, mtbf seconds, duration, factor): the four control-plane classes.
CONTROL_PLANE_FAULTS = (
    ("resize_stuck", 100.0, 150.0, 1.0),
    ("cache_load_failure", 300.0, 0.0, 1.0),
    ("sensor_dropout", 300.0, 75.0, 1.0),
    ("telemetry_corruption", 250.0, 60.0, 8.0),
)

# -- cluster_pack ----------------------------------------------------------------
#: One 50-function contest's packing time swings ~17x between seeds
#: (0.9 s to 16 s measured), so no single contest gives a steady
#: figure.  An episode instead packs a batch of small contests from the
#: same demand generator on the contest fleet's mix at two fifths
#: scale; the batch's total work is steady from seed to seed.
CONTESTS = 320
CONTEST_FUNCTIONS = 10
CONTEST_INVENTORY = ((A100_80GB, 80), (A100_40GB, 60), (H100_80GB, 40),
                     (V100_32GB, 20))
#: Contests per timed step (the host-speed reference is taken between
#: steps).
CONTESTS_PER_STEP = 20
#: A drawn contest whose estimated need exceeds this share of the fleet
#: is redrawn, so fleet capacity never decides a rejection: that is the
#: regime of the 50-function contest (~300 of 500 GPUs), and only there
#: are "rejections match" and "optimised <= greedy GPUs" invariants.
#: The estimate (whole A100s at the oracle's 0.8 utilisation ceiling)
#: has stayed above 1/1.2 of greedy's GPU count on every contest that
#: fits; about 6% of draws are redrawn.
CONTEST_NEED_SHARE = 0.75

def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream...) — no two workload
    seeds share a stream, unlike ``seed + k`` offsets."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def int_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one finished episode delivered, read back through public APIs.

    ``payload`` is the deterministic part the digest covers; ``counters``
    are per-layer counts; ``checks`` maps each correctness check to
    whether it held.
    """

    #: Operations attempted and completed: requests offered and
    #: terminated, or function demands packed by both packers.
    attempted: int
    ops: int
    #: Offered and in-SLO load: requests, or requests per second at the
    #: forecast rates on ``cluster_pack``.
    offered: float
    slo_ok: float
    failed_fraction: float
    latency_p50: float
    latency_p99: float
    gpus_used: float
    gpu_seconds_per_ok: float
    payload: object
    checks: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest(self.payload)


@dataclass
class Episode:
    steps: list[Callable[[], None]]
    outcome: Callable[[], Outcome]
    #: Host seconds per named sub-call of the steps (cluster packers).
    timers: dict = field(default_factory=dict)


class LatencyTap:
    """Records every completion latency, then forwards it.

    Sits between the program and its own accumulator (``inner``), so the
    telemetry layer still does its usual work while the benchmark keeps
    the exact latency list for percentiles and the payload digest.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.latencies: list[float] = []

    def add(self, latency: float) -> None:
        self.latencies.append(latency)
        if self.inner is not None:
            self.inner.add(latency)

    def on_completion(self, latency: float, in_slo: bool) -> None:
        self.latencies.append(latency)


def _serving_outcome(latencies: list[float], offered: int, completed: int,
                     shed: int, failed: int, slo_ok: int,
                     gpu_seconds: float, extra_payload: dict,
                     counters: dict) -> Outcome:
    lost = offered - completed - shed - failed
    lat = np.asarray(latencies, dtype=np.float64)
    p50, p99 = (np.quantile(lat, [0.5, 0.99]).tolist() if lat.size
                else (math.nan, math.nan))
    payload = {
        "offered": offered, "completed": completed, "shed": shed,
        "failed": failed, "slo_ok": slo_ok,
        "latencies": hashlib.sha256(lat.tobytes()).hexdigest(),
        **extra_payload,
    }
    checks = {
        "offered == completed + shed + failed":
            offered == completed + shed + failed,
        "zero lost": lost == 0,
        "one latency per completion": lat.size == completed,
    }
    return Outcome(
        attempted=offered, ops=completed + shed + failed, offered=offered,
        slo_ok=slo_ok,
        failed_fraction=(shed + failed + lost) / offered if offered else 0.0,
        latency_p50=p50, latency_p99=p99, gpus_used=1.0,
        gpu_seconds_per_ok=gpu_seconds / slo_ok if slo_ok else math.inf,
        payload=payload, checks=checks, counters=counters)


def _engine_counters(env, device) -> dict:
    return {"events": env.events_processed,
            "alloc_calls": device.alloc_calls,
            "alloc_group_recomputes": device.alloc_group_recomputes}


def _router_counters(reports: list[dict]) -> dict:
    keys = ("offered", "attempts", "retries", "hedges", "hedge_wins")
    return {k: sum(r[k] for r in reports) for k in keys}


def _plan(classes, horizon: float, seed: int, tag: int) -> FaultPlan:
    plans = [FaultPlan.exponential(kind, mtbf, horizon,
                                   seed=int_seed(seed, tag, i),
                                   duration=duration, factor=factor)
             for i, (kind, mtbf, duration, factor) in enumerate(classes)]
    return plans[0].merge(*plans[1:])


# -- serve_scale ---------------------------------------------------------------

def build_serve_scale(seed: int,
                      per_client: int = SCALE_REQUESTS_PER_CLIENT) -> Episode:
    """112 open-loop Poisson clients, one per MPS server; no router."""
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB, cross_check=False)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))
    tap = LatencyTap(StreamingLatencyStats())
    clients = []
    for i in range(N_PARTITIONS):
        daemon = manager.create_instance("1g.10gb").enable_mps()
        for j in range(SERVERS_PER_PARTITION):
            k = i * SERVERS_PER_PARTITION + j
            server = InferenceServer(env, daemon.client(f"srv{k}"), llm,
                                     max_batch_size=1, keep_completed=False,
                                     kernel_cache=True)
            clients.append(OpenLoopClient(
                env, server, rate_rps=SCALE_RATE_RPS / N_SERVERS,
                n_requests=per_client, n_tokens=N_TOKENS,
                rng=rng_for(seed, 1, k), streaming=True, stats=tap))

    def run():
        env.run(until=env.all_of([c.done for c in clients]))

    def outcome():
        offered = sum(c.n_submitted for c in clients)
        completed = sum(c.n_completed for c in clients)
        slo_ok = sum(1 for x in tap.latencies if x <= SERVING_SLO_SECONDS)
        return _serving_outcome(
            tap.latencies, offered, completed, 0, 0, slo_ok, env.now,
            {"sim_seconds": env.now}, _engine_counters(env, gpu))

    return Episode([run], outcome)


# -- serve_chaos ---------------------------------------------------------------

def build_serve_chaos(seed: int, n_requests: int = CHAOS_REQUESTS) -> Episode:
    """ServingFleet + ResilientRouter under the data-plane fault plan."""
    env = Environment()
    plan = _plan(DATA_PLANE_FAULTS, n_requests / CHAOS_RATE_RPS, seed, 2)
    fleet = ServingFleet(
        env, mode="mig-mps", n_partitions=N_PARTITIONS,
        servers_per_partition=SERVERS_PER_PARTITION,
        policy=SLOPolicy(deadline_seconds=SERVING_SLO_SECONDS),
        seed=int_seed(seed, 3))
    tap = LatencyTap()
    fleet.stats.on_completion = tap.on_completion
    chaos = ChaosController(env, fleet, plan)
    client = OpenLoopClient(env, fleet.router, rate_rps=CHAOS_RATE_RPS,
                            n_requests=n_requests, n_tokens=N_TOKENS,
                            rng=rng_for(seed, 4), streaming=True)

    def run():
        env.run(until=client.done)

    def outcome():
        r = fleet.report(env.now)
        counters = {**_engine_counters(env, fleet.device),
                    **_router_counters([r]),
                    "faults_applied": len(chaos.applied)}
        out = _serving_outcome(
            tap.latencies, r["offered"], r["completed"], r["shed"],
            r["failed"], r["slo_ok"], env.now,
            {"sim_seconds": env.now, "faults": chaos.applied}, counters)
        out.checks["faults applied"] = len(chaos.applied) > 0
        return out

    return Episode([run], outcome)


# -- autoscale_chaos -------------------------------------------------------------

def build_autoscale_chaos(seed: int,
                          horizon: float = AUTOSCALE_HORIZON) -> Episode:
    """FleetAutoscaler over two diurnal functions under control-plane faults."""
    env = Environment()
    functions = [FleetFunction(name, AUTOSCALE_REPLICAS,
                               AUTOSCALE_SLO_SECONDS, pct, n_tokens=N_TOKENS)
                 for name, pct in INITIAL_PCTS.items()]
    fleet = AutoscaledServingFleet(env, functions, seed=int_seed(seed, 5),
                                   weight_cache=True)
    tap = LatencyTap()
    for group in fleet.groups.values():
        group.stats.on_completion = tap.on_completion
    autoscaler = FleetAutoscaler(fleet, interval_seconds=INTERVAL_SECONDS,
                                 cooldown_seconds=COOLDOWN_SECONDS)
    autoscaler.start()
    chaos = ChaosController(env, fleet,
                            _plan(CONTROL_PLANE_FAULTS, horizon, seed, 6),
                            horizon=horizon)
    clients = [
        OpenLoopClient(env, fleet.groups[name].router, n_tokens=N_TOKENS,
                       streaming=True,
                       arrivals=iter_diurnal_trace(
                           rate, horizon, period=PERIOD_SECONDS, depth=DEPTH,
                           seed=int_seed(seed, 7, i), phase=phase))
        for i, (name, rate, phase) in enumerate(
            (("hot", HOT_MEAN_RPS, 0.0), ("cold", COLD_MEAN_RPS, math.pi)))]

    def run():
        env.run(until=env.all_of([c.done for c in clients]))
        autoscaler.stop()

    def outcome():
        reports = list(fleet.report(env.now).values())
        total = {k: sum(r[k] for r in reports)
                 for k in ("offered", "completed", "shed", "failed", "slo_ok")}
        ctrl = autoscaler.summary()
        counters = {**_engine_counters(env, fleet.device),
                    **_router_counters(reports),
                    "faults_applied": len(chaos.applied),
                    **{k: ctrl[k] for k in (
                        "ticks", "resize_attempts", "resize_aborts",
                        "resize_rollbacks", "degraded_fraction",
                        "replica_restarts", "weight_cache_hits",
                        "reconfiguration_downtime")}}
        out = _serving_outcome(
            tap.latencies, total["offered"], total["completed"],
            total["shed"], total["failed"], total["slo_ok"],
            fleet.provisioned_gpu_seconds(),
            {"sim_seconds": env.now, "faults": chaos.applied,
             "controller": ctrl}, counters)
        out.checks["resize_rollbacks == resize_aborts"] = (
            ctrl["resize_rollbacks"] == ctrl["resize_aborts"])
        return out

    return Episode([run], outcome)


# -- cluster_pack ----------------------------------------------------------------

def contest_demands(seed: int, contest: int,
                    n_functions: int = CONTEST_FUNCTIONS) -> list:
    """One contest's demands: the cluster bench's generator, re-seeded,
    redrawn until the contest fits the fleet (see
    :data:`CONTEST_NEED_SHARE`).

    The last two are engineered infeasible (an SLO under every device's
    serial floor; weights no slice holds) so the typed rejections run.
    """
    fleet = sum(count for _, count in CONTEST_INVENTORY)
    for draw in itertools.count():
        demands = _draw_contest(seed, contest, draw, n_functions)
        need = sum(d.rate_rps * d.curve(A100_80GB.sms) / 0.8
                   for d in demands[:-2])
        if need <= CONTEST_NEED_SHARE * fleet:
            return demands


def _draw_contest(seed: int, contest: int, draw: int,
                  n_functions: int) -> list:
    demands = []
    for i in range(n_functions - 2):
        rng = rng_for(seed, 8, contest, draw, i)
        work = float(rng.uniform(0.5, 10.0))
        serial = float(rng.uniform(0.01, 0.08))
        saturation = int(rng.integers(8, 97))
        slo = (serial + work / saturation) * float(rng.uniform(1.15, 4.0))
        demands.append(FunctionDemand(
            name=f"fn{i:03d}", slo_seconds=slo,
            rate_rps=float(rng.lognormal(mean=3.0, sigma=1.1)),
            curve=LatencyCurve(work=work, serial=serial,
                               saturation=saturation),
            model_bytes=float(rng.uniform(0.5, 30.0)) * GB))
    demands.append(FunctionDemand(
        name=f"fn{n_functions - 2:03d}", slo_seconds=0.1, rate_rps=2.0,
        curve=LatencyCurve(work=1.0, serial=0.2, saturation=50),
        model_bytes=4.0 * GB))
    demands.append(FunctionDemand(
        name=f"fn{n_functions - 1:03d}", slo_seconds=5.0, rate_rps=1.0,
        curve=LatencyCurve(work=2.0, serial=0.05, saturation=60),
        model_bytes=200.0 * GB))
    return demands


def _weighted_quantile(values, weights, q: float) -> float:
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=np.float64)[order]
    cum = np.add.accumulate(np.asarray(weights, dtype=np.float64)[order])
    return float(v[min(np.searchsorted(cum, q * cum[-1]), v.size - 1)])


def _placement_checks(greedy, optimized) -> dict:
    checks = {}
    for label, placement in (("greedy", greedy), ("optimized", optimized)):
        try:
            placement.validate()
            checks[f"{label} validate()"] = True
        except AssertionError:
            checks[f"{label} validate()"] = False
        checks[f"{label} weighted MPS cap sums <= 100"] = all(
            v["weighted_sum"] <= 100 for v in placement.mps_caps().values())
    checks["optimized gpus <= greedy gpus"] = (
        optimized.gpus_used <= greedy.gpus_used)
    checks["rejections match"] = (sorted(greedy.rejected)
                                  == sorted(optimized.rejected))
    return checks


def build_cluster_pack(seed: int, contests: int = CONTESTS) -> Episode:
    """A batch of seeded contests, each packed by both packers."""
    inventory = list(CONTEST_INVENTORY)
    batch = [(contest_demands(seed, c),
              SizingOracle([spec for spec, _ in inventory]))
             for c in range(contests)]
    results = []
    timers = {"greedy_s": 0.0, "optimize_s": 0.0}

    def run(chunk):
        for demands, oracle in chunk:
            t0 = time.perf_counter()
            greedy = greedy_pack(demands, inventory, oracle)
            t1 = time.perf_counter()
            optimized = optimize_pack(demands, inventory, oracle)
            t2 = time.perf_counter()
            timers["greedy_s"] += t1 - t0
            timers["optimize_s"] += t2 - t1
            results.append((greedy, optimized))

    def outcome():
        checks: dict = {}
        gpus = greedy_gpus = offered = served = rejected = 0.0
        lat, weight = [], []
        payload = []
        for greedy, optimized in results:
            for name, ok in _placement_checks(greedy, optimized).items():
                checks[name] = checks.get(name, True) and ok
            score = optimized.score()
            gpus += score["gpus_used"]
            greedy_gpus += greedy.gpus_used
            offered += score["offered_rps"]
            served += score["served_in_slo_rps"]
            rejected += len(score["rejected"])
            for name, demand in optimized.demands.items():
                if name in optimized.rejected:
                    continue
                segments = optimized.segments_of(name)
                capacity = optimized.capacity_of(name)
                share = min(demand.rate_rps, capacity) / capacity
                for _, seg in segments:
                    lat.append(seg.latency_seconds)
                    weight.append(seg.capacity_rps * share)
            payload.append([greedy.payload(), optimized.payload()])
        n = len(results)
        return Outcome(
            attempted=n * CONTEST_FUNCTIONS, ops=n * CONTEST_FUNCTIONS,
            offered=offered, slo_ok=served,
            failed_fraction=rejected / (n * CONTEST_FUNCTIONS),
            latency_p50=_weighted_quantile(lat, weight, 0.5),
            latency_p99=_weighted_quantile(lat, weight, 0.99),
            gpus_used=gpus / n, gpu_seconds_per_ok=gpus / served,
            payload=payload, checks=checks,
            counters={"greedy_gpus": greedy_gpus / n})

    steps = [functools.partial(run, batch[i:i + CONTESTS_PER_STEP])
             for i in range(0, len(batch), CONTESTS_PER_STEP)]
    return Episode(steps, outcome, timers)


BUILDERS = {
    "serve_scale": build_serve_scale,
    "serve_chaos": build_serve_chaos,
    "autoscale_chaos": build_autoscale_chaos,
    "cluster_pack": build_cluster_pack,
}

#: Per-episode sizes the self-test uses instead of the defaults.
TINY = {
    "serve_scale": {"per_client": 1},
    "serve_chaos": {"n_requests": 120},
    "autoscale_chaos": {"horizon": 300.0},
    "cluster_pack": {"contests": 2},
}
