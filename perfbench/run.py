"""The repository benchmark: four scenario workloads, measured outside-in.

    python3 perfbench/run.py --workload serve_scale --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each workload runs in fresh interpreters (see
``child.py``): a few that only set up, for the ``setup_s`` median, then
one that measures.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer metrics.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Host times are in reference seconds (see ``child.py``); the raw figures
are printed on the line before.
``--workload all`` runs every workload both ways and prints each
result with a table of metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_scale", "serve_chaos", "autoscale_chaos", "cluster_pack")
#: Set-up-only interpreters per measured run; with the measuring one
#: they give the ``setup_s`` median.
SETUP_SAMPLES = 6
#: Every run must finish well inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {ROOT}/src/repro is missing")
    with open(path) as f:
        return json.load(f)


def run_child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # One single-threaded process per workload.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: "
                         f"{' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process printed nothing: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: int, tiny: bool = False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        base.append("--tiny")
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_child(base + ["--setup-only"], deadline))
    else:
        base += ["--spans", os.path.join(
            HERE, "out", f"spans-{workload}-seed{seed}.tsv")]
    result = run_child(base, deadline)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(
            [s["s"] for s in setups] + [result["setup_s"]])
        result["raw"]["setup_s"] = statistics.median(
            [s["raw_s"] for s in setups] + [result["raw"]["setup_s"]])
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"missing {sorted(set(names) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(names))}")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    return result


def report(workload: str, result: dict, table: bool) -> None:
    for name, ok in result["checks"].items():
        print(f"[{workload}] check {name}: {'ok' if ok else 'FAILED'}")
    print(f"[{workload}] payload digest {result['digest']} "
          f"({result['episodes']} episodes)")
    raw = result["raw"]
    print(f"[{workload}] raw host figures: ops_per_s {raw['ops_per_s']:.6g}, "
          f"setup_s {raw['setup_s']:.4g}, reference kernel "
          f"{raw['reference_s'] * 1e3:.3g} ms")
    if table:
        for name, m in result["metrics"].items():
            print(f"[{workload}] {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; the figures mean nothing")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        seconds = (spec["run_seconds"] if args.seconds is None
                   else args.seconds)
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, seconds,
                                  args.trace, args.tiny)
            report(args.workload, result, table=False)
            return 0
        correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(spec, workload, args.seed, seconds,
                                      trace, args.tiny)
                report(workload, result, table=True)
                correct = correct and result["correct"]
        return 0 if correct else 1
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
