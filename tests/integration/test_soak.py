"""Soak tests: long steady-state runs stay bounded and linear."""

import time

import pytest

from repro.bench import run_llm_multiplexing
from repro.gpu import A100_80GB, MpsControlDaemon, SimulatedGPU
from repro.sim import Environment
from repro.workloads import (
    LLAMA2_7B,
    InferenceRuntime,
    InferenceServer,
    LlamaInference,
    OpenLoopClient,
)

FP16 = InferenceRuntime(dtype_bytes=2)


def test_fig4_scales_linearly_in_completions():
    """5x the work => ~5x the simulated time, same per-item latency
    (no drift, no superlinear event blowup)."""
    small = run_llm_multiplexing("mps", 4, n_completions=40)
    large = run_llm_multiplexing("mps", 4, n_completions=200)
    assert large.total_seconds == pytest.approx(
        5 * small.total_seconds, rel=0.05)
    assert large.mean_latency == pytest.approx(small.mean_latency,
                                               rel=0.02)


def test_long_serving_run_holds_state_bounded():
    """An hour of simulated serving leaves no residue in the device."""
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    llm = LlamaInference(LLAMA2_7B, FP16)
    server = InferenceServer(env, daemon.client("s"), llm,
                             max_batch_size=4, batch_timeout=0.05)
    client = OpenLoopClient(env, server, rate_rps=0.4, n_requests=1000,
                            n_tokens=20)
    wall0 = time.monotonic()
    env.run(until=client.done)
    wall = time.monotonic() - wall0
    assert len(server.completed) == 1000
    assert gpu.resident_count == 0  # nothing resident
    assert len(server._queue.items) == 0
    # 0 <= utilization <= 1 after tens of thousands of reallocations.
    assert 0.0 <= gpu.sm_utilization() <= 1.0 + 1e-9
    # And the whole hour of simulated serving costs modest wall time.
    assert wall < 30.0


def test_event_counts_stay_proportional():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    llm = LlamaInference(LLAMA2_7B, FP16)
    client = daemon.client("c")

    def decode(env, tokens):
        for _ in range(tokens):
            yield client.launch(llm.decode_kernel())
            yield env.timeout(llm.host_seconds_per_token)

    env.run(until=env.process(decode(env, 200)))
    events_200 = env.events_processed
    env2 = Environment()
    gpu2 = SimulatedGPU(env2, A100_80GB)
    daemon2 = MpsControlDaemon(gpu2)
    daemon2.start()
    client2 = daemon2.client("c")

    def decode2(env, tokens):
        for _ in range(tokens):
            yield client2.launch(llm.decode_kernel())
            yield env.timeout(llm.host_seconds_per_token)

    env2.run(until=env2.process(decode2(env2, 400)))
    # Twice the tokens, about twice the events (fluid model, not
    # time-stepped).
    assert env2.events_processed == pytest.approx(2 * events_200, rel=0.05)