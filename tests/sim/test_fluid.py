"""Unit tests for the fluid task pool."""

import random

import pytest

from repro.sim import Environment, FluidPool, FluidTask, SimulationError
from repro.sim.fluid import _VEC_MIN


def equal_share_allocator(capacity):
    """Divide ``capacity`` units/s equally among resident tasks."""

    def allocate(tasks):
        share = capacity / len(tasks)
        for t in tasks:
            t.rate = share

    return allocate


def test_single_task_duration():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    task = FluidTask(env, work=50.0)
    pool.add(task)
    env.run(until=task.done)
    assert env.now == pytest.approx(5.0)


def test_two_tasks_share_equally():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    a = FluidTask(env, work=50.0)
    b = FluidTask(env, work=50.0)
    pool.add(a)
    pool.add(b)
    env.run()
    # Each progresses at 5 units/s throughout.
    assert env.now == pytest.approx(10.0)


def test_late_arrival_slows_first_task():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    a = FluidTask(env, work=100.0)
    pool.add(a)
    finish_times = {}
    a.done.callbacks.append(lambda ev: finish_times.__setitem__("a", env.now))

    def late(env):
        yield env.timeout(5.0)  # a has drained 50 units alone
        b = FluidTask(env, work=25.0)
        pool.add(b)
        yield b.done
        finish_times["b"] = env.now

    env.process(late(env))
    env.run()
    # From t=5: both at 5 units/s. b (25 units) finishes at t=10;
    # a has 50-25=25 left, then runs alone at 10/s -> t=12.5.
    assert finish_times["b"] == pytest.approx(10.0)
    assert finish_times["a"] == pytest.approx(12.5)


def test_early_finisher_speeds_up_survivor():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    short = FluidTask(env, work=10.0)
    long = FluidTask(env, work=100.0)
    pool.add(short)
    pool.add(long)
    env.run(until=long.done)
    # Shared until t=2 (short drains 10 at 5/s; long drains 10),
    # then long runs alone: 90 left at 10/s -> t=11.
    assert env.now == pytest.approx(11.0)


def test_cancel_returns_remaining_work():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    task = FluidTask(env, work=100.0)
    pool.add(task)
    env.run(until=3.0)
    remaining = pool.cancel(task)
    assert remaining == pytest.approx(70.0)
    assert len(pool) == 0


def test_cancel_non_resident_rejected():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1.0))
    task = FluidTask(env, work=1.0)
    with pytest.raises(SimulationError):
        pool.cancel(task)


def test_double_add_rejected():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1.0))
    task = FluidTask(env, work=1.0)
    pool.add(task)
    with pytest.raises(SimulationError):
        pool.add(task)


def test_zero_work_task_completes_immediately():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1.0))
    task = FluidTask(env, work=0.0)
    pool.add(task)
    assert task.done.triggered


def test_negative_work_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        FluidTask(env, work=-1.0)


def test_starved_task_waits_for_poke():
    env = Environment()
    capacity = {"value": 0.0}

    def allocate(tasks):
        for t in tasks:
            t.rate = capacity["value"] / len(tasks)

    pool = FluidPool(env, allocate)
    task = FluidTask(env, work=10.0)
    pool.add(task)
    env.run(until=5.0)
    assert not task.done.triggered

    capacity["value"] = 10.0
    pool.poke()
    env.run(until=task.done)
    assert env.now == pytest.approx(6.0)


def test_work_conservation():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(7.0))
    total = 0.0
    for w in (5.0, 13.0, 2.5, 40.0):
        pool.add(FluidTask(env, work=w))
        total += w
    env.run()
    assert pool.work_drained == pytest.approx(total)


def test_progress_property():
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    task = FluidTask(env, work=100.0)
    pool.add(task)
    env.run(until=4.0)
    pool.poke()  # force progress accounting
    assert task.progress == pytest.approx(0.4)


class CountingAllocator:
    """Equal-share allocator that records every invocation."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.calls = 0

    def __call__(self, tasks):
        self.calls += 1
        share = self.capacity / len(tasks)
        for t in tasks:
            t.rate = share


def test_poke_on_empty_pool_skips_allocator():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    pool.poke()
    pool.poke()
    assert alloc.calls == 0


def test_zero_work_add_skips_allocator():
    # An instant-finish task never becomes resident, so the allocator
    # must not run for it (empty -> empty membership).
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    task = FluidTask(env, work=0.0)
    pool.add(task)
    assert task.done.triggered
    assert alloc.calls == 0
    assert len(pool) == 0


def test_zero_work_add_does_not_disturb_resident_tasks():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    resident = FluidTask(env, work=50.0)
    pool.add(resident)
    calls_before = alloc.calls
    flash = FluidTask(env, work=0.0)
    pool.add(flash)
    assert flash.done.triggered
    assert alloc.calls == calls_before  # membership unchanged: no realloc
    env.run(until=resident.done)
    assert env.now == pytest.approx(5.0)


def test_instant_finish_task_succeeds_exactly_once():
    # Regression: an instant-finish task used to stay resident and be
    # finished a second time by the next advance (double succeed).
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(10.0))
    flash = FluidTask(env, work=0.0)
    slow = FluidTask(env, work=20.0)
    pool.add(flash)
    pool.add(slow)
    env.run(until=slow.done)  # would raise SimulationError before the fix
    assert env.now == pytest.approx(2.0)


def test_unchanged_membership_skips_reallocation():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    pool.add(FluidTask(env, work=30.0))
    pool.add(FluidTask(env, work=30.0))
    calls_after_adds = alloc.calls
    env.run(until=2.0)
    # No membership change between t=0 and t=2: the wakeup machinery may
    # advance the pool but must not re-invoke the allocator.
    assert alloc.calls == calls_after_adds
    env.run()
    assert pool.work_drained == pytest.approx(60.0)


def test_poke_forces_reallocation_when_capacity_changes():
    env = Environment()
    alloc = CountingAllocator(10.0)
    pool = FluidPool(env, alloc)
    task = FluidTask(env, work=100.0)
    pool.add(task)
    env.run(until=5.0)
    alloc.capacity = 20.0
    pool.poke()  # same membership, but poke signals external change
    env.run(until=task.done)
    # 50 units drained by t=5, the rest at 20/s -> t=7.5.
    assert env.now == pytest.approx(7.5)


def test_allocator_negative_rate_rejected():
    env = Environment()

    def bad(tasks):
        for t in tasks:
            t.rate = -1.0

    pool = FluidPool(env, bad)
    with pytest.raises(SimulationError):
        pool.add(FluidTask(env, work=1.0))


def test_work_conservation_at_scale_with_tiny_tasks():
    """Compensated accumulation: many tiny drains into a large total.

    A naive running sum loses increments once the total outgrows them;
    the pool's Kahan accumulator keeps conservation tight however many
    tasks drain (the regression this guards appeared first in
    million-request trace-serving runs).
    """
    env = Environment()
    pool = FluidPool(env, equal_share_allocator(1e9))

    def churn(env):
        # One huge task to grow the total, then a stream of tiny ones.
        big = FluidTask(env, work=1e9)
        pool.add(big)
        yield big.done
        for _ in range(20_000):
            t = FluidTask(env, work=1e-3)
            pool.add(t)
            yield t.done

    env.run(until=env.process(churn(env)))
    expected = 1e9 + 20_000 * 1e-3
    assert pool.work_drained == pytest.approx(expected, rel=1e-12)


def test_on_change_hook_sees_every_mutation():
    env = Environment()
    seen = []
    pool = FluidPool(env, equal_share_allocator(10.0),
                     on_change=lambda t, added: seen.append((t.tid, added)))
    a = FluidTask(env, work=5.0)
    b = FluidTask(env, work=50.0)
    pool.add(a)
    pool.add(b)
    env.run(until=a.done)          # a drains -> removal via _advance
    pool.cancel(b)                 # explicit eviction
    assert seen == [(a.tid, True), (b.tid, True),
                    (a.tid, False), (b.tid, False)]


# -- uniform-rate allocator contract ------------------------------------------

class SwitchableAllocator:
    """Equal share of a mutable capacity, reported three ways.

    ``mode`` picks what the allocator returns: ``"tasks"`` sets per-task
    rates only (returns ``None``), ``"uniform"`` also returns the share,
    ``"switch"`` alternates between the two on every call.
    """

    def __init__(self, capacity, mode):
        self.capacity = capacity
        self.mode = mode
        self.calls = 0

    def __call__(self, tasks):
        self.calls += 1
        share = self.capacity / len(tasks)
        for t in tasks:
            t.rate = share
        if self.mode == "uniform" or (self.mode == "switch"
                                      and self.calls % 2):
            return share
        return None


def _contract_run(mode, n_tasks, burst, seed):
    """Staggered arrivals with cancels and capacity pokes.

    Returns every completion time, every cancelled task's remaining
    work, the number of tasks left and the pool's ``work_drained``.
    """
    rng = random.Random(seed)
    env = Environment()
    alloc = SwitchableAllocator(10.0, mode)
    pool = FluidPool(env, alloc)
    times = {}
    cancelled = {}
    tasks = []

    def arrivals(env):
        for i in range(n_tasks):
            if i % burst == 0:
                yield env.timeout(rng.uniform(0.0, 0.3))
            task = FluidTask(env, work=rng.uniform(0.5, 40.0))
            task.done.callbacks.append(
                lambda ev, i=i: times.__setitem__(i, env.now))
            tasks.append(task)
            pool.add(task)

    def disturb(env):
        for k in range(6):
            yield env.timeout(rng.uniform(0.1, 2.0))
            live = [t for t in tasks if t._pool is pool]
            if live and k % 2 == 0:
                victim = live[rng.randrange(len(live))]
                cancelled[tasks.index(victim)] = pool.cancel(victim)
            else:
                alloc.capacity = rng.uniform(5.0, 20.0)
                pool.poke()

    env.process(arrivals(env))
    env.process(disturb(env))
    # Bounded: every schedule drains well before this (total work over
    # the smallest capacity), so a broken pool fails instead of hanging.
    env.run(until=10_000.0)
    return times, cancelled, len(pool), pool.work_drained


@pytest.mark.parametrize("mode", ["uniform", "switch"])
@pytest.mark.parametrize("n_tasks,burst", [(12, 1), (150, 75)],
                         ids=["scalar", "vector"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_return_is_bit_identical(mode, n_tasks, burst, seed):
    """Returning the uniform rate changes nothing observable.

    ``(150, 75)`` keeps more than ``_VEC_MIN`` tasks resident, so the
    vector drain and horizon paths run; ``switch`` alternates uniform
    and per-task mode on every allocator call, so each mode starts
    from the other's state (including the stale per-task rate mirror).
    """
    if burst > 1:
        assert burst >= _VEC_MIN
    reference = _contract_run("tasks", n_tasks, burst, seed)
    assert _contract_run(mode, n_tasks, burst, seed) == reference


def test_uniform_path_ignores_stale_per_task_rates():
    """After a per-task run, a uniform return must drive the drain."""
    env = Environment()
    alloc = SwitchableAllocator(10.0, "tasks")
    pool = FluidPool(env, alloc)
    task = FluidTask(env, work=100.0)
    pool.add(task)                 # per-task mode: 10/s
    env.run(until=5.0)             # 50 units left
    alloc.capacity = 25.0
    alloc.mode = "uniform"
    pool.poke()                    # uniform mode: 25/s
    assert pool._ur == 25.0
    env.run(until=task.done)
    assert env.now == 7.0
    assert pool.work_drained == 100.0


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_negative_uniform_rate_rejected(bad):
    env = Environment()

    def allocate(tasks):
        for t in tasks:
            t.rate = bad
        return bad

    pool = FluidPool(env, allocate)
    with pytest.raises(SimulationError):
        pool.add(FluidTask(env, work=1.0))


def test_zero_uniform_rate_arms_no_wakeup():
    env = Environment()
    alloc = SwitchableAllocator(0.0, "uniform")
    pool = FluidPool(env, alloc)
    task = FluidTask(env, work=10.0)
    pool.add(task)
    assert env.peek() == float("inf")   # nothing scheduled
    env.run()
    assert not task.done.triggered and task.work == 10.0
    alloc.capacity = 5.0
    pool.poke()
    env.run(until=task.done)
    assert env.now == 2.0
