"""Fluid wakeups below the clock's resolution still make progress."""

import math

from repro.sim import Environment, FluidPool, FluidTask


def test_residue_below_one_clock_tick_drains():
    # Late in a run one ulp of the clock spans more than a fast task's
    # leftover residue: its completion horizon (work / rate) rounds
    # away to ``now``.  The pool must still finish the task rather than
    # re-arm a zero-length wakeup forever.
    env = Environment()
    t0 = 6.122027250912528
    env.run(until=t0)
    rate = 6380833.333333333

    def allocate(tasks):
        for t in tasks:
            t.rate = rate

    pool = FluidPool(env, allocate)
    task = FluidTask(env, work=1.0)
    task.work = 1.7520420669825398e-09  # just above the 1e-9 threshold
    assert t0 + task.work / rate == t0
    pool.add(task)
    for _ in range(100):
        if task.done.triggered:
            break
        env.step()
    assert task.done.triggered
    assert env.now == math.nextafter(t0, math.inf)
