import json
import statistics

import pytest

import summary
from summary import quartile_spread


def test_quartile_spread():
    xs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == pytest.approx((q3 - q1) / q2)
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_p90_interpolates_between_closest_ranks():
    # the worker's op_p90_ms, on hand-checked samples
    p90 = statistics.quantiles([5, 1, 4, 2, 3], n=10, method="inclusive")[-1]
    assert p90 == pytest.approx(4.6)
    p90 = statistics.quantiles(range(1, 101), n=10, method="inclusive")[-1]
    assert p90 == pytest.approx(90.1)


def test_summary_of_a_set_of_runs(tmp_path, capsys):
    for seed, run_s in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
        rec = {"workload": "compose", "attempted": 10, "failed": 0,
               "metrics": {"run_s": {"value": run_s, "unit": "s"}}}
        (tmp_path / f"compose-seed{seed}-trace0-x.json").write_text(json.dumps(rec))
    (tmp_path / "compose-seed9-trace1-x.json").write_text("not read")
    assert summary.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "compose: 5 runs, attempted 10-10, failed 0" in out
    assert "median          3  spread 1.000" in out
