"""The spread of a set of runs.

    python3 perfbench/summary.py RESULTS_DIR

For each workload with untraced result files in RESULTS_DIR (as run.py
writes them), prints the number of runs, the attempted and failed operations,
and for each end-to-end metric the median over the runs and the quartile
spread. The tables in README.md were made with it.
"""

import glob
import json
import os
import statistics
import sys


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles statistics.quantiles(values, n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs = {}
    for path in sorted(glob.glob(os.path.join(argv[0], "*-trace0-*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs.setdefault(rec["workload"], []).append(rec)
    for wl, recs in sorted(runs.items()):
        print(f"{wl}: {len(recs)} runs, attempted "
              f"{min(r['attempted'] for r in recs)}-{max(r['attempted'] for r in recs)}, "
              f"failed {sum(r['failed'] for r in recs)}")
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            spread = f"{quartile_spread(vals):.3f}" if len(vals) > 1 else "-"
            print(f"  {name:12} median {statistics.median(vals):10.4g}  spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
