"""The ``--stats`` collector counts uniform-memo hits as cached work."""

from repro.gpu import A100_80GB, Kernel, MpsControlDaemon, SimulatedGPU
from repro.sim import Environment
from repro.sim.stats import collecting


def test_uniform_hits_are_counted_and_cached():
    with collecting() as stats:
        env = Environment()
        gpu = SimulatedGPU(env, A100_80GB)
        daemon = MpsControlDaemon(gpu)
        daemon.start()
        kernel = Kernel(flops=5e9, bytes_moved=1e8, max_sms=108)

        def stream(client):
            for _ in range(5):
                yield client.launch(kernel)

        for i in range(4):
            env.process(stream(daemon.client(
                f"c{i}", active_thread_percentage=25)))
        env.run()
    assert stats.alloc_uniform_hits == gpu.alloc_uniform_hits > 0
    cached = (stats.alloc_group_reuses + stats.alloc_fast_path
              + stats.alloc_uniform_hits)
    reuse = cached / (stats.alloc_group_recomputes + cached)
    line = stats.summary_line()
    assert f"uniform_hits={stats.alloc_uniform_hits:,} " in line
    assert f"alloc_reuse={reuse:.0%} " in line
    assert reuse > 0.5
