"""Benchmark of curvedtwobody: certificate latency and throughput,
integrator rates, set-up time and memory, and a traced per-layer run.

Run from the repository root (needs only the standard library and, for
one check of reference-default, sympy):

    python3 bench/run_bench.py --workload reference-default --seed 1 \
        --seconds 20 --trace 0

``--workload all`` (the default) runs every workload in this process.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run and writes its spans to
``bench/out/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; it is also written to ``bench/out``.  The exit
code is 0 when every check passed, 1 when one failed, and 2 when the
package cannot be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("reference-default", "random-sweep", "orbits")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    if trace:
        metrics, errors, spans, overhead = tracing.traced_run(
            name, seed, os.path.join(OUT_DIR, f"sweep-{os.getpid()}"))
        with open(os.path.join(OUT_DIR, f"trace-{name}-{seed}.json"), "w") as fh:
            json.dump({"workload": name, "seed": seed, "overhead": overhead,
                       "spans": spans}, fh)
        print(f"{name}: traced replay minus untraced certify "
              f"{overhead['overhead_s']:+.3f} s ({100 * overhead['overhead_share']:+.1f}% "
              f"of {overhead['untraced_certify_s']:.3f} s); {overhead['spans']} spans "
              f"at their measured cost come to {overhead['span_cost_estimate_s']:.4f} s")
        attempted = overhead["sets"]
        failed = 0
        raw = {}
    else:
        run = workloads.RUNNERS[name](seed, seconds)
        rss = peak_rss_mb()
        run.run_deferred()
        metrics = {**workloads.metrics(run), "peak_rss_mb": (rss, "MB")}
        raw = workloads.metrics(run, "raw")
        with open(os.path.join(OUT_DIR, f"timings-{name}-{seed}.json"), "w") as fh:
            json.dump(run.log, fh)
        errors, attempted, failed = run.errors, run.attempted, run.failed
        extra = f", {run.left_out} sets left out" if name == "random-sweep" else ""
        print(f"{name}: {run.rounds} round(s), attempted {attempted}, "
              f"failed {failed}{extra}")
    for err in errors:
        print(f"{name}: CHECK FAILED: {err}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        wall = f"  (wall {raw[key][0]:.6g})" if key in raw else ""
        print(f"  {key} = {value:.6g} {unit}{wall}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One CPU for the whole run: the two CPUs of the sandbox this was built
    # in ran the same code at speeds up to 40% apart, and a process moved
    # between them measures the mix.  The cold-import children inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    try:
        import curvedtwobody.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import curvedtwobody from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    line = json.dumps(result, sort_keys=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
