"""One round of every workload, through the command the benchmark runs."""

import json
import os
import subprocess
import sys

import pytest

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"),
          encoding="utf-8") as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run(workload, trace, seed=3):
    # --seconds 0 stops after the first whole round
    p = subprocess.run([sys.executable, RUN, "--workload", workload,
                        "--seed", str(seed), "--seconds", "0",
                        "--trace", str(trace)],
                       capture_output=True, text=True, timeout=600, check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_a_round_without_failures(workload):
    got = run(workload, 0)
    assert got["correct"] is True
    assert got["failed"] == 0 and got["attempted"] > 0
    assert set(got["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] for k, v in got["metrics"].items())
    assert all(m["value"] > 0 for m in got["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    one, two = run("compose", 1), run("compose", 1)
    assert one["failed"] == 0 and one["correct"] is True
    assert set(one["metrics"]) == PER_LAYER
    assert {m[0] for m in LAYER_METRICS} <= PER_LAYER
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in one["metrics"].items())
    counts = {k: v["value"] for k, v in one["metrics"].items()
              if v["unit"] in ("count", "ratio")}
    assert counts == {k: two["metrics"][k]["value"] for k in counts}
    assert counts["interaction.interact.calls"] > 0
    assert counts["testing.traces_of.calls"] > 0
    assert one["metrics"]["structures.find_isomorphism.self_s"]["value"] > 0


def test_a_tree_without_the_engine_is_refused(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.dirname(HERE)):
        if name.endswith(".py"):
            (bench / name).write_text(
                open(os.path.join(os.path.dirname(HERE), name)).read())
    p = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                        "compose", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
