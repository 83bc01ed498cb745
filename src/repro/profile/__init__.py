"""Deterministic event-loop profiler (:mod:`repro.profile`).

Answers "where do the events — and the wall seconds — go?" for any
simulation without perturbing it: callbacks run in exactly the order the
engine would run them anyway; the profiler only wraps each invocation
with a timer and attributes it to the *callback site* (the function's
``__code__`` identity, i.e. file:line:qualname).  Event counts, per-site
sim-time attribution, and the queue-depth histogram are therefore fully
deterministic for a given (seed, config); only the wall-second columns
vary run to run.

When no profiler is attached the engine's one event loop pays a single
local ``is None`` check per event, so profiling is zero-cost disabled —
enforced by the overhead gate in the bench suite.

Usage::

    from repro.profile import profiling

    with profiling() as prof:          # hooks every new Environment
        run_simulation()
    print(prof.report_json())

or explicitly for one environment::

    prof = EventLoopProfiler()
    prof.attach(env)
    env.run()
    report = prof.report()
"""

from repro.profile.loopprof import (
    EventLoopProfiler,
    profiling,
    site_name,
)

__all__ = ["EventLoopProfiler", "profiling", "site_name"]
