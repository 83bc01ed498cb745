"""Rate-based ("fluid") task pool.

Models a set of concurrently-resident tasks whose progress rates depend on
how a shared resource is divided among them *right now*.  Whenever the set
of resident tasks changes, an allocator callback recomputes every task's
rate and the pool reschedules the next completion.

This is the standard fluid-flow approximation used in network and GPU
sharing simulators: between membership changes, rates are constant, so the
next completion time is exact and the event count stays proportional to
the number of tasks, not to the simulated duration.

The GPU device model layers a roofline allocator on top: a kernel's rate
is ``min(compute_rate(SMs), memory_rate(bandwidth share))``, and the
bandwidth share is recomputed by water-filling on every membership change
(see :mod:`repro.gpu.device`).

Storage layout
--------------
Resident work/threshold live in dense parallel lists indexed by a
per-task *slot* (swap-remove on eviction keeps them dense), with
``FluidTask.work`` as a property over the slot so allocators and
observers see exactly the attribute-era interface.  ``FluidTask.rate``
stays a plain attribute — allocators write it once per task per
membership change, so routing those writes through a descriptor would
tax every allocator invocation — and the pool snapshots rates into the
dense slot list right after each allocator run (rates only change
inside allocator invocations, so the snapshot stays valid between
membership changes).  An allocator that returns one uniform rate
spares the snapshot: the hot loops then read that scalar instead
(see :class:`FluidPool`).  The two
per-event hot loops — draining progress in :meth:`FluidPool._advance`
and scanning for the earliest completion in
:meth:`FluidPool._schedule_wakeup` — are *adaptive*: below
``_VEC_MIN`` resident tasks they run the original scalar loops over the
slot lists (numpy's per-call dispatch overhead exceeds the loop cost
for small pools), at or above it they run vectorized numpy kernels.
The per-task float math is identical in both regimes (same elementwise
operations, and the wakeup horizon is an order-free ``min``), so which
regime ran is unobservable in any deterministic payload; only the
``work_drained`` *total* differs in accumulation order on the vector
path (pairwise ``np.add.reduce``), and that total is tolerance-checked
by the conservation tests, never part of a bit-exact payload.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.core import Environment, Event, SimulationError
from repro.sim.numerics import KahanSum

__all__ = ["FluidTask", "FluidPool"]

#: Relative tolerance for treating remaining work as drained.
_EPS = 1e-9

#: Pool size at which the hot loops switch to numpy kernels.
_VEC_MIN = 64

_task_ids = itertools.count()


class FluidTask:
    """A unit of divisible work progressing at a pool-assigned rate."""

    __slots__ = ("_work", "total_work", "rate", "done", "meta", "tid",
                 "_pool", "_thresh", "_slot", "_aseq")

    def __init__(self, env: Environment, work: float, meta: Any = None):
        if work < 0:
            raise ValueError(f"negative work {work!r}")
        self.total_work = float(work)
        # Drain threshold, hoisted out of the advance loop (total_work
        # is fixed at construction, so this is the same float the loop
        # used to recompute per task per event).
        self._thresh = _EPS * max(self.total_work, 1.0)
        #: Remaining work, in abstract units (slot-resident while pooled).
        self._work = float(work)
        #: Current progress rate (units/second); set by the pool allocator.
        #: Deliberately a plain attribute, not a slot property: allocator
        #: hot loops write it for every resident task on every membership
        #: change, and the pool re-snapshots its dense rate list after
        #: each allocator run instead.
        self.rate = 0.0
        #: Fires (with this task) when the work drains.
        self.done: Event = env.event(name="fluid-done")
        self.meta = meta
        self.tid = next(_task_ids)
        self._pool: Optional["FluidPool"] = None
        self._slot = -1
        self._aseq = -1

    @property
    def work(self) -> float:
        """Remaining work.  Reads the pool slot while resident."""
        pool = self._pool
        if pool is None:
            return self._work
        return pool._w[self._slot]

    @work.setter
    def work(self, value: float) -> None:
        pool = self._pool
        if pool is None:
            self._work = value
        else:
            pool._w[self._slot] = value
            if pool._w_sync:
                pool._w_arr[self._slot] = value

    @property
    def progress(self) -> float:
        """Fraction of work completed, in [0, 1]."""
        if self.total_work == 0:
            return 1.0
        return 1.0 - self.work / self.total_work

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FluidTask #{self.tid} work={self.work:.4g}/{self.total_work:.4g}"
            f" rate={self.rate:.4g}>"
        )


def _aseq_key(task: FluidTask) -> int:
    return task._aseq


class FluidPool:
    """A pool of fluid tasks sharing a resource via an allocator callback.

    Parameters
    ----------
    env:
        Simulation environment.
    allocator:
        Called with the list of resident tasks (sorted by admission order)
        whenever membership changes; must set ``task.rate`` on each.  Rates
        must be non-negative and may be zero (a starved task simply does
        not progress).  It returns either ``None`` or a *uniform* rate
        ``r`` meaning "every resident task runs at ``r``" (it still sets
        each ``task.rate`` to ``r``).  With a uniform rate the pool skips
        its per-task rate snapshot, drains every task with the scalar
        ``r`` (the same float operation per task) and arms the next
        wakeup at ``min(work) / r``, which is exactly the minimum of the
        per-task quotients: correctly rounded division by a positive
        constant is monotone.  A negative (or NaN) return raises
        :class:`SimulationError`; a zero rate arms no wakeup.
    on_change:
        Optional ``fn(task, added)`` invoked synchronously at every
        membership mutation (admission: ``added=True``; completion or
        cancellation: ``added=False``), always *before* the allocator
        runs for that change.  Incremental allocators use it to maintain
        residency indexes without re-deriving them from the task list on
        every call.
    """

    def __init__(self, env: Environment,
                 allocator: Callable[[list[FluidTask]], None],
                 name: str = "fluid-pool",
                 on_change: Optional[Callable[[FluidTask, bool], None]] = None):
        self.env = env
        self.allocator = allocator
        self.name = name
        self.on_change = on_change
        # Resident tasks keyed by tid.  Python dicts preserve insertion
        # order, so iteration is admission order (the allocator contract)
        # while removal is O(1) — the old list-based pool paid an O(n)
        # ``list.remove`` per completion/cancellation.
        self._tasks: dict[int, FluidTask] = {}
        # Dense parallel slot lists (see module docstring): _slot_task[i]
        # is the task in slot i; _w/_r/_th hold its remaining work, rate,
        # and drain threshold.  Eviction swap-removes the last slot into
        # the hole, so [0:n) is always dense.  _r is a snapshot of the
        # tasks' ``rate`` attributes, rebuilt once per allocator run
        # (rates never change between membership changes).
        self._w: list[float] = []
        self._r: list[float] = []
        self._th: list[float] = []
        self._slot_task: list[FluidTask] = []
        # Lazily-synced ndarray mirrors of the slot lists for the
        # vector regime.  The lists stay canonical; each mirror carries
        # a sync flag — True means its [0:n) prefix matches the list
        # and is kept current by O(1) element writes in add/_evict_slot
        # (and in-place updates in the vector _advance), False means it
        # is bulk-refreshed from the list on next vector use.  This
        # turns the former per-event ``np.asarray(list)`` rebuilds into
        # occasional bulk copies plus cheap incremental maintenance.
        self._w_arr = np.empty(0)
        self._r_arr = np.empty(0)
        self._th_arr = np.empty(0)
        self._w_sync = False
        self._r_sync = False
        self._th_sync = False
        # Admission sequence: slot order is scrambled by swap-removes,
        # so batch completions are re-sorted by this before being
        # finalised (completions were and are observable in admission
        # order through on_change and done-callback ordering).
        self._aseq = 0
        self._last_update = env.now
        # Generation counter: each reallocation invalidates the wakeups
        # scheduled by earlier generations (cheaper than heap removal).
        self._gen = 0
        # External capacity changes (poke) bump the epoch; together with
        # the membership revision it decides whether cached rates are
        # still valid, letting _reallocate skip the allocator entirely.
        # The revision counter replaces a per-call tuple of resident
        # tids: tids are unique and admission-monotonic, so "no
        # mutation since the last allocation" is exactly "same resident
        # sequence" — at O(1) instead of O(#tasks) per event.
        self._epoch = 0
        self._members_rev = 0
        self._alloc_rev = -1
        self._alloc_epoch = 0
        self._wakeup_pending = False
        # The last allocator run's uniform rate, or None when it set
        # per-task rates only.  While it is set, _r is a stale mirror.
        self._ur: Optional[float] = None
        # Compensated: at 1M+ tasks the naive running sum drifts enough
        # to fail the conservation checks (see repro.sim.numerics).
        self._work_drained = KahanSum()

    @property
    def work_drained(self) -> float:
        """Total work drained through this pool (conservation checks)."""
        return self._work_drained.value

    # -- public API ---------------------------------------------------------
    @property
    def tasks(self) -> tuple[FluidTask, ...]:
        return tuple(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def add(self, task: FluidTask) -> FluidTask:
        """Admit a task; returns it (its ``done`` event fires on drain)."""
        if task._pool is not None:
            raise SimulationError("task already resident in a pool")
        self._advance()
        if task._work <= task._thresh:
            # Drains instantly: complete without ever becoming resident
            # (residency would double-fire ``done`` on the next advance).
            task._work = 0.0
            self._finish(task)
            return task
        slot = task._slot = len(self._slot_task)
        task.rate = 0.0  # not progressing until the allocator assigns one
        self._w.append(task._work)
        self._r.append(0.0)
        self._th.append(task._thresh)
        self._slot_task.append(task)
        # Extend any in-sync mirror in place; on capacity exhaustion
        # just mark it stale (the next vector use regrows + refreshes).
        if self._w_sync:
            if self._w_arr.size > slot:
                self._w_arr[slot] = task._work
            else:
                self._w_sync = False
        if self._r_sync:
            if self._r_arr.size > slot:
                self._r_arr[slot] = 0.0
            else:
                self._r_sync = False
        if self._th_sync:
            if self._th_arr.size > slot:
                self._th_arr[slot] = task._thresh
            else:
                self._th_sync = False
        task._aseq = self._aseq
        self._aseq += 1
        task._pool = self
        self._tasks[task.tid] = task
        self._members_rev += 1
        if self.on_change is not None:
            self.on_change(task, True)
        self._reallocate()
        return task

    def cancel(self, task: FluidTask) -> float:
        """Evict a task before completion; returns remaining work."""
        if task._pool is not self:
            raise SimulationError("task not resident in this pool")
        self._advance()
        if task._pool is not self:
            # The pending progress drained it: _advance already finished
            # it (done fired, membership updated) — nothing left to evict.
            return 0.0
        self._evict_slot(task)
        del self._tasks[task.tid]
        self._members_rev += 1
        if self.on_change is not None:
            self.on_change(task, False)
        task._pool = None
        task.rate = 0.0
        self._reallocate()
        return task._work

    def poke(self) -> None:
        """Force a reallocation (e.g. after an external capacity change)."""
        # Bumped even when empty: allocators may keep results across an
        # empty spell and use the epoch to tell they are stale.
        self._epoch += 1
        if not self._tasks:
            # Empty-to-empty: capacity changes cannot affect anyone, and
            # _advance has nothing to drain.  Skip the allocator round
            # trip entirely (a previously hot path for group churn).
            self._last_update = self.env.now
            return
        self._advance()
        self._reallocate()

    def utilization_snapshot(self) -> float:
        """Sum of current rates — callers normalise by device capacity."""
        return sum(t.rate for t in self._tasks.values())

    # -- internals ------------------------------------------------------------
    def _w_view(self) -> np.ndarray:
        """The [0:n) work prefix as an ndarray, refreshed if stale."""
        n = len(self._slot_task)
        arr = self._w_arr
        if arr.size < n:
            arr = self._w_arr = np.empty(max(16, 2 * n))
            self._w_sync = False
        if not self._w_sync:
            arr[:n] = self._w
            self._w_sync = True
        return arr[:n]

    def _r_view(self) -> np.ndarray:
        n = len(self._slot_task)
        arr = self._r_arr
        if arr.size < n:
            arr = self._r_arr = np.empty(max(16, 2 * n))
            self._r_sync = False
        if not self._r_sync:
            arr[:n] = self._r
            self._r_sync = True
        return arr[:n]

    def _th_view(self) -> np.ndarray:
        n = len(self._slot_task)
        arr = self._th_arr
        if arr.size < n:
            arr = self._th_arr = np.empty(max(16, 2 * n))
            self._th_sync = False
        if not self._th_sync:
            arr[:n] = self._th
            self._th_sync = True
        return arr[:n]

    def _evict_slot(self, task: FluidTask) -> None:
        """Swap-remove ``task``'s slot, writing its work back to the task."""
        i = task._slot
        task._work = self._w[i]
        last = len(self._slot_task) - 1
        if i != last:
            self._w[i] = self._w[last]
            self._r[i] = self._r[last]
            self._th[i] = self._th[last]
            moved = self._slot_task[last]
            self._slot_task[i] = moved
            moved._slot = i
            # Mirror the swap into any in-sync array prefix.
            if self._w_sync:
                self._w_arr[i] = self._w_arr[last]
            if self._r_sync:
                self._r_arr[i] = self._r_arr[last]
            if self._th_sync:
                self._th_arr[i] = self._th_arr[last]
        self._w.pop()
        self._r.pop()
        self._th.pop()
        self._slot_task.pop()
        task._slot = -1

    def _advance(self) -> None:
        """Apply progress at current rates from the last update until now."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        n = len(self._slot_task)
        if dt <= 0 or n == 0:
            return
        w = self._w
        r = self._r
        th = self._th
        ur = self._ur
        finished: Optional[list[FluidTask]] = None
        if ur is not None and n < _VEC_MIN:
            # Uniform rate: the loop below with ``r[i] == ur`` hoisted.
            drained_total = 0.0
            if ur > 0:
                step = ur * dt
                for i in range(n):
                    work = w[i]
                    drained = step
                    if drained > work:
                        drained = work
                    work -= drained
                    drained_total += drained
                    if work <= th[i]:
                        work = 0.0
                        if finished is None:
                            finished = []
                        finished.append(self._slot_task[i])
                    w[i] = work
            self._work_drained.add(drained_total)
            self._w_sync = False  # list mutated behind the mirror
        elif n < _VEC_MIN:
            drained_total = 0.0
            for i in range(n):
                rate = r[i]
                if rate <= 0:
                    continue
                work = w[i]
                drained = rate * dt
                if drained > work:
                    drained = work
                work -= drained
                drained_total += drained
                if work <= th[i]:
                    work = 0.0
                    if finished is None:
                        finished = []
                    finished.append(self._slot_task[i])
                w[i] = work
            self._work_drained.add(drained_total)
            self._w_sync = False  # list mutated behind the mirror
        else:
            wa = self._w_view()
            # drained = min(r*dt, w); w -= drained: the same elementwise
            # float operations as the scalar loop above, so every
            # per-task work value is bit-identical either way.
            if ur is None:
                drained = self._r_view() * dt
                np.minimum(drained, wa, out=drained)
            else:
                drained = np.minimum(wa, ur * dt)
            wa -= drained  # in place: the work mirror stays in sync
            # Sequential left-to-right sum (np.add.reduce is pairwise,
            # which would drift from the scalar loop's running total;
            # the zero entries of starved tasks are exact no-ops).
            self._work_drained.add(float(np.add.accumulate(drained)[-1]))
            done_idx = np.flatnonzero(wa <= self._th_view())
            w[:] = wa.tolist()
            if done_idx.size:
                finished = [self._slot_task[i] for i in done_idx]
                for i in done_idx.tolist():
                    w[i] = 0.0
                    wa[i] = 0.0
        if finished is not None:
            if len(finished) > 1:
                finished.sort(key=_aseq_key)  # admission order, as before
            on_change = self.on_change
            for task in finished:
                self._evict_slot(task)
                task._work = 0.0
                del self._tasks[task.tid]
                self._members_rev += 1
                if on_change is not None:
                    on_change(task, False)
                self._finish(task)

    def _finish(self, task: FluidTask) -> None:
        task._pool = None
        task.rate = 0.0
        task._slot = -1
        task.done.succeed(task)

    def _reallocate(self) -> None:
        if not self._tasks:
            self._gen += 1  # invalidate any stale wakeup
            self._alloc_rev = -1
            self._wakeup_pending = False
            return
        if (self._members_rev == self._alloc_rev
                and self._epoch == self._alloc_epoch):
            # Same resident set under the same external capacity: the
            # allocator would reproduce the rates every task already
            # carries, so skip it (and the water-filling behind it).
            if self._wakeup_pending:
                return  # the scheduled completion wakeup is still exact
            self._schedule_wakeup()
            return
        ur = self.allocator(list(self._tasks.values()))
        if ur is None:
            # Snapshot the freshly assigned rates into slot order.  Rates
            # only change inside allocator invocations (verified contract:
            # every writer in the tree is an allocator callback), so this
            # one O(n) gather replaces a descriptor write per rate set.
            self._r = [t.rate for t in self._slot_task]
            self._r_sync = False
        elif not ur >= 0.0:
            raise SimulationError(
                f"{self.name}: allocator returned uniform rate {ur!r}")
        self._ur = ur
        self._alloc_rev = self._members_rev
        self._alloc_epoch = self._epoch
        self._schedule_wakeup()

    def _schedule_wakeup(self) -> None:
        """Arm the wakeup for the earliest completion at current rates."""
        self._gen += 1
        self._wakeup_pending = False
        n = len(self._slot_task)
        if n == 0:
            return
        # The scan doubles as rate validation (the former separate
        # O(#tasks) pass over the allocator's output).
        horizon = math.inf
        ur = self._ur
        if ur is not None:
            if ur > 0.0:
                # Dividing by a positive constant is monotone, so this
                # is the smallest per-task quotient, bit for bit.
                horizon = min(self._w) / ur
        elif n < _VEC_MIN:
            w = self._w
            r = self._r
            rmin = min(r)
            if rmin > 0.0:
                # Every rate is positive: the horizon is the smallest
                # work/rate quotient.  ``min`` over a C-level ``map``
                # compares the same divisions the explicit scan would,
                # so the chosen float is identical.
                horizon = min(map(operator.truediv, w, r))
            elif rmin < 0.0:
                bad = next(t for t, rate in zip(self._slot_task, r)
                           if rate < 0)
                raise SimulationError(
                    f"allocator produced negative rate for {bad!r}"
                )
            else:
                for i in range(n):
                    rate = r[i]
                    if rate > 0:
                        h = w[i] / rate
                        if h < horizon:
                            horizon = h
        else:
            ra = self._r_view()
            if float(ra.min()) < 0.0:
                bad = self._slot_task[int(np.flatnonzero(ra < 0.0)[0])]
                raise SimulationError(
                    f"allocator produced negative rate for {bad!r}"
                )
            pos = ra > 0.0
            if pos.any():
                # min over the same per-task work/rate quotients the
                # scalar scan compares — order-free, same float.
                horizon = float(np.min(self._w_view()[pos] / ra[pos]))
        if horizon is math.inf or horizon == math.inf:
            return  # every task starved; an external poke must revive them
        now = self.env.now
        if now + horizon <= now:
            # The clock cannot represent the horizon (a fast task's
            # residue just above its threshold, late in the run): a
            # wakeup at ``now`` drains nothing and re-arms itself
            # forever.  Wake one clock tick later, which drains it.
            horizon = math.nextafter(now, math.inf) - now
        gen = self._gen
        # Pooled: nothing retains the wakeup once it fires (the closure
        # below captures only the generation counter).
        wakeup = self.env.timeout_pooled(max(horizon, 0.0))
        self._wakeup_pending = True

        def _on_wakeup(_ev: Event) -> None:
            if gen != self._gen:
                return  # superseded by a later reallocation
            self._wakeup_pending = False
            self._advance()
            self._reallocate()

        wakeup.callbacks.append(_on_wakeup)
