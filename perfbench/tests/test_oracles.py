import oracles

F = frozenset


def example():
    # a < b, and b conflicts with c
    below = {"a": {"a"}, "b": {"a", "b"}, "c": {"c"}}
    return ["a", "b", "c"], below, [{"a", "b"}, {"a", "c"}]


def test_configurations_by_hand():
    assert oracles.configurations(*example()) == {
        F(), F("a"), F("c"), F("ab"), F("ac")}


def test_traces_are_labelled_linear_extensions():
    events, below, maxcons = example()
    configs = oracles.configurations(events, below, maxcons)
    label = {"a": "x", "b": "y", "c": "z"}
    assert oracles.traces(configs, below, label) == {
        (), ("x",), ("z",), ("x", "y"), ("x", "z"), ("z", "x")}
    assert sorted(oracles.linear_extensions("ab", below)) == [("a", "b")]


def test_plus_maximal_by_hand():
    events, below, maxcons = example()
    configs = oracles.configurations(events, below, maxcons)
    pol = {"a": "-", "b": "+", "c": "-"}
    assert oracles.plus_maximal(configs, events, below, pol) == {
        F(), F("c"), F("ab"), F("ac")}


def test_closed_forms_agree_with_brute_force():
    for n in range(4):
        evs = list(range(n))
        below = {e: {e} for e in evs}
        configs = oracles.configurations(evs, below, [set(evs)])
        assert len(configs) == oracles.concurrent_configs(n)
    for n in range(4):
        evs = [(s, i) for i in range(n) for s in "xy"]
        below = {e: {e} for e in evs}
        maxcons = [set()]
        for i in range(n):
            maxcons = [m | {(s, i)} for m in maxcons for s in "xy"]
        configs = oracles.configurations(evs, below, maxcons)
        assert len(configs) == oracles.conflict_configs(n)


def test_closed_form_values():
    assert oracles.copycat_square_concurrent(3) == 64
    assert oracles.copycat_square_chain(4) == 13


def test_climber_stopping_prefixes():
    got = oracles.climber_stopping([2, 3])
    assert got == [F([(0, 1), (0, 2)]), F([(1, 1), (1, 2)]),
                   F([(1, 1), (1, 2), (1, 3)])]


def test_isomorphism_check():
    events, below, maxcons = example()
    one = {"events": events, "below": below, "maxcons": maxcons,
           "label": {"a": 1, "b": 2, "c": 3}}
    ren = {"a": "A", "b": "B", "c": "C"}
    two = {"events": list(ren.values()),
           "below": {ren[e]: {ren[d] for d in ds} for e, ds in below.items()},
           "maxcons": [{ren[e] for e in m} for m in maxcons],
           "label": {ren[e]: v for e, v in one["label"].items()}}
    assert oracles.is_isomorphism(ren, one, two)
    assert not oracles.is_isomorphism(None, one, two)
    assert not oracles.is_isomorphism({"a": "A", "b": "C", "c": "B"}, one, two)
    wrong_label = dict(two, label={"A": 1, "B": 2, "C": 4})
    assert not oracles.is_isomorphism(ren, one, wrong_label)
    two_conflicts = dict(two, maxcons=[{"A", "B"}, {"C"}])
    assert not oracles.is_isomorphism(ren, one, two_conflicts)
