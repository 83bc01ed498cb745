"""Tests for the host->device transfer engine (cold-start contention)."""

import pytest

from repro.gpu import TransferEngine
from repro.sim import Environment


def test_single_transfer_exact():
    env = Environment()
    engine = TransferEngine(env)
    done = engine.copy(5.0)
    env.run(until=done)
    assert env.now == pytest.approx(5.0)
    assert engine.transfers_completed == 1


def test_concurrent_transfers_share_the_path():
    """Two simultaneous 5 s loads each take 10 s (equal split)."""
    env = Environment()
    engine = TransferEngine(env)
    a = engine.copy(5.0)
    b = engine.copy(5.0)
    env.run(until=env.all_of([a, b]))
    assert env.now == pytest.approx(10.0)


def test_four_way_cold_start_storm():
    """Four concurrent 5 s model loads complete in 20 s, not 5 s —
    exactly why warm pools stagger replica startup."""
    env = Environment()
    engine = TransferEngine(env)
    dones = [engine.copy(5.0) for _ in range(4)]
    env.run(until=env.all_of(dones))
    assert env.now == pytest.approx(20.0)
    assert engine.in_flight == 0


def test_staggered_transfers_overlap_fairly():
    env = Environment()
    engine = TransferEngine(env)
    first = engine.copy(10.0)
    finish = {}
    first.callbacks.append(lambda ev: finish.__setitem__("a", env.now))

    def late(env):
        yield env.timeout(5.0)  # first has 5 s of work left
        second = engine.copy(2.5)
        yield second
        finish["b"] = env.now

    env.process(late(env))
    env.run()
    # From t=5 both at half speed: b (2.5 s work) finishes at t=10;
    # a has 2.5 s left, runs alone -> t=12.5.
    assert finish["b"] == pytest.approx(10.0)
    assert finish["a"] == pytest.approx(12.5)


def test_zero_size_transfer_completes_immediately():
    env = Environment()
    engine = TransferEngine(env)
    done = engine.copy(0.0)
    assert done.triggered


def test_negative_rejected():
    env = Environment()
    engine = TransferEngine(env)
    with pytest.raises(ValueError):
        engine.copy(-1.0)


def test_node_model_loads_contend(monkeypatch):
    """Through the FaaS stack: 2 workers cold-loading simultaneously."""
    from repro.faas import (ColdStartModel, Config, DataFlowKernel,
                            HighThroughputExecutor, LocalProvider, gpu_app)
    from repro.gpu import A100_80GB

    no_cold = ColdStartModel(function_init_seconds=0.0,
                             gpu_context_seconds=0.0)
    ex = HighThroughputExecutor(
        label="gpu", available_accelerators=["0", "0"],
        gpu_percentage=[50, 50], cold_start=no_cold,
        provider=LocalProvider(cores=8, gpu_specs=[A100_80GB]))
    dfk = DataFlowKernel(Config(executors=[ex]))

    @gpu_app(dfk=dfk)
    def load(ctx):
        yield from ctx.load_model(f"model-{ctx.worker.name}", 1e9, 4.0)
        return ctx.now

    times = dfk.wait([load(), load()])
    # Both 4 s loads share the path: each finishes at t=8.
    assert times == pytest.approx([8.0, 8.0])


def test_equal_split_reports_the_uniform_share():
    """The split returns its share, so the pool drains with one scalar."""
    env = Environment()
    engine = TransferEngine(env)
    a = engine.copy(5.0)
    engine.copy(3.0)
    assert engine.pool._ur == 0.5
    env.run(until=a)
    assert env.now == 8.0   # 3 s each at half speed, then 2 s alone
