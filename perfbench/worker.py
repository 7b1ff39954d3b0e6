"""One workload run in a process of its own.

Sets the workload up, then runs whole rounds of its operations, one at a
time, until the given seconds have passed, timing each operation's call
alone and checking its result afterwards. An operation that raises, or whose
result its check rejects, counts as failed and its time is left out of the
latencies. Prints one JSON object as its last line. run.py starts this; see README.md for the options.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_PROBES = 3
IMPORT_CLI = ("import time; t = time.perf_counter(); import esgames.cli; "
              "print(time.perf_counter() - t)")


def _run_rounds(make_round, ops, seed, seconds, tracer):
    stats = {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}
    latencies, round_times, by_kind = [], [], {}
    deadline = perf_counter() + seconds
    rnd = 0
    while True:
        if tracer is not None:
            tracer.round = rnd
        spent = 0.0
        for op in ops:
            stats["attempted"] += 1
            timed = nullcontext() if tracer is None else tracer.span("op")
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            try:
                with timed:
                    res = op.run()
            except Exception as err:  # counted as a failed operation
                stats["failed"] += 1
                stats["problems"].append(f"{op.kind}: {type(err).__name__}: {err}")
                continue
            finally:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            try:
                bad = op.check(res)
            except Exception as err:  # output the check cannot read
                bad = f"check raised {type(err).__name__}: {err}"
            if bad:
                stats["failed"] += 1
                stats["wrong"] += 1
                stats["problems"].append(f"{op.kind}: {bad}")
                continue
            latencies.append(dt)
            by_kind.setdefault(op.kind, []).append(dt)
            spent += dt
        round_times.append(spent)
        rnd += 1
        if perf_counter() >= deadline:
            break
        ops = make_round(seed, rnd)
    stats["rounds"] = rnd
    stats["problems"] = stats["problems"][:10]
    stats["run_s"] = sum(round_times) / len(round_times)
    if len(latencies) > 1:
        # the 90th percentile by linear interpolation between closest ranks
        stats["op_p50_ms"] = statistics.median(latencies) * 1000
        stats["op_p90_ms"] = statistics.quantiles(
            latencies, n=10, method="inclusive")[-1] * 1000
    else:
        stats["op_p50_ms"] = stats["op_p90_ms"] = 0.0
    stats["kind_p50_ms"] = {k: statistics.median(v) * 1000
                            for k, v in sorted(by_kind.items())}
    return stats


def _import_times(env):
    out = []
    for _ in range(IMPORT_PROBES):
        p = subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
        out.append(float(p.stdout))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()

    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, [workloads])
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        make_round = workloads.make(args.workload, args.seed, workdir, tracer)
        ops = make_round(args.seed, 0)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = _run_rounds(make_round, ops, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["setup_s"] = setup_s
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, out["rounds"])
        imports = tracer.import_times or _import_times(os.environ)
        out["layers"]["cli.import_s"] = {"value": statistics.median(imports),
                                         "unit": "s"}
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
