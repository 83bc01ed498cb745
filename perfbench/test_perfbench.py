"""Self-test of the benchmark at tiny sizes (the figures mean nothing).

    python3 -m pytest perfbench

Checks that every workload prints exactly the metrics BENCHMARK.json
names, with its units, that its correctness checks pass and can fail,
and that the tracer's self times add up.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import scenarios  # noqa: E402
from tracer import LAYERS, LayerTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == scenarios.WORKLOADS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer in LAYERS + ("other",):
        for suffix in ("self_s", "share", "calls"):
            assert f"{layer}.{suffix}" in per_layer


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_tiny(spec, workload):
    results = [run.run_workload(spec, workload, seed=3, seconds=0.5,
                                trace=trace, tiny=True) for trace in (0, 1)]
    for result, key in zip(results, ("end_to_end", "per_layer")):
        assert result["correct"], result["checks"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}
        assert all(math.isfinite(m["value"])
                   for m in result["metrics"].values())
    untraced, traced = results
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert traced["digest"] == untraced["digest"]
    assert traced["checks"]["traced digest == untraced digest"]
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.95
    assert traced["metrics"]["trace.overhead"]["value"] > 0


def test_seed_changes_inputs_only():
    a = scenarios.build_serve_chaos(1, n_requests=60)
    b = scenarios.build_serve_chaos(1, n_requests=60)
    c = scenarios.build_serve_chaos(2, n_requests=60)
    for episode in (a, b, c):
        for step in episode.steps:
            step()
    assert a.outcome().digest == b.outcome().digest
    assert a.outcome().digest != c.outcome().digest


def test_serving_checks_catch_lost_requests():
    out = scenarios._serving_outcome([1.0, 2.0], offered=3, completed=2,
                                     shed=0, failed=0, slo_ok=2,
                                     gpu_seconds=10.0, extra_payload={},
                                     counters={})
    assert not out.checks["zero lost"]
    assert not out.checks["offered == completed + shed + failed"]


def test_cluster_checks_catch_bad_placement():
    inventory = list(scenarios.CONTEST_INVENTORY)
    demands = scenarios.contest_demands(3, 0)
    oracle = scenarios.SizingOracle([spec for spec, _ in inventory])
    greedy = scenarios.greedy_pack(demands, inventory, oracle)
    optimized = scenarios.optimize_pack(demands, inventory, oracle)
    assert all(scenarios._placement_checks(greedy, optimized).values())
    # A function both placed and rejected breaks validate().
    placed = next(seg.function for gpu in optimized.gpus
                  for seg in gpu.segments)
    optimized.rejected[placed] = "injected"
    checks = scenarios._placement_checks(greedy, optimized)
    assert not checks["optimized validate()"]
    assert not checks["rejections match"]


def test_tracer_self_times_add_up():
    from repro.sim.core import Environment

    def proc(env):
        for _ in range(50):
            yield env.timeout(1.0)

    env = Environment()
    env.process(proc(env))
    tracer = LayerTracer(span_cap=10)
    with tracer:
        env.run()
    assert env.now == 50.0
    core = tracer.names.index("sim.core")
    assert tracer.calls[core] >= 1 and tracer.self_s[core] > 0
    assert sum(tracer.self_s) == pytest.approx(tracer.wall, rel=1e-6)
    assert len(tracer.span_id) == 10 < tracer.n_spans


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
