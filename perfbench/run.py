"""Benchmark of esgames: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the engine is imported from its src/.
Untraced (--trace 0), prints the end-to-end metrics; traced (--trace 1), the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the same result, with the
seed, run length and Python version, is written under perfbench/results/.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("bounded-tests", "compose", "cli")
SETUPS = 3              # set-ups per untraced run; setup_s is their median
WORKER_SLACK_S = 150    # a worker may outlive its measuring time by this much


def _worker(args, seconds, trace, setup_only=False, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    cmd += ["--t0", repr(time.monotonic())]
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                       timeout=seconds + WORKER_SLACK_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {p.returncode}")
    return json.loads(lines[-1])


def _host_ref_ms():
    """Median time of a fixed pure-Python loop, to tell a change in the
    host's speed apart from a change in the engine."""
    out = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        out.append((time.perf_counter() - t0) * 1000)
    return statistics.median(out)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "esgames", "__init__.py")):
        print(f"error: no esgames sources under {ROOT}/src", file=sys.stderr)
        return 2
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    host_ref_ms = [_host_ref_ms()]
    try:
        if args.trace == 0:
            setups = [_worker(args, 0, 0, setup_only=True)["setup_s"]
                      for _ in range(SETUPS - 1)]
            runs = [_worker(args, args.seconds, 0)]
            setups.append(runs[0]["setup_s"])
            r = runs[0]
            metrics = {"setup_s": _metric(statistics.median(setups), "s"),
                       "run_s": _metric(r["run_s"], "s"),
                       "op_p50_ms": _metric(r["op_p50_ms"], "ms"),
                       "op_p90_ms": _metric(r["op_p90_ms"], "ms"),
                       "peak_rss_mb": _metric(r["peak_rss_mb"], "MB")}
        else:
            # the untraced half gives the base the tracing overhead is read from
            half = args.seconds / 2
            runs = [_worker(args, half, 0),
                    _worker(args, half, 1,
                            spans=os.path.join(results, f"spans-{tag}.csv.gz"))]
            metrics = dict(runs[1]["layers"])
            metrics["trace.overhead_s"] = _metric(
                runs[1]["run_s"] - runs[0]["run_s"], "s")
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    host_ref_ms.append(_host_ref_ms())

    result = {"correct": all(r["wrong"] == 0 for r in runs),
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  python=platform.python_version(),
                  rounds=[r["rounds"] for r in runs],
                  host_ref_ms=host_ref_ms,
                  kind_p50_ms=runs[0]["kind_p50_ms"],
                  problems=[p for r in runs for p in r["problems"]])
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    with open(os.path.join(results, f"{tag}-{stamp}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for p in record["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
