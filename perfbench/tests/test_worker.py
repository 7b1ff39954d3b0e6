from worker import _run_rounds
from workloads import Op


def test_rejected_and_raising_operations_count_as_failed():
    def boom():
        raise ValueError("no")

    def make_round(seed, rnd):
        return [Op("good", lambda: 1, lambda r: None),
                Op("wrong", lambda: 2, lambda r: "want 1"),
                Op("raises", boom, lambda r: None)]

    got = _run_rounds(make_round, make_round(0, 0), 0, 0, None)
    assert (got["rounds"], got["attempted"], got["failed"], got["wrong"]) \
        == (1, 3, 2, 1)
    # only the operation that passed its check has a latency
    assert set(got["kind_p50_ms"]) == {"good"}
    assert len(got["problems"]) == 2
