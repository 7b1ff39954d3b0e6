"""Polarity layer: dual, parallel, races, determinism, Scott order, copycat."""

import pytest

from esgames.errors import BadArgument, PolarityMismatch
from esgames.fileformat import parse, print_workspace
from esgames.games import (
    EMPTY,
    MINUS,
    NEUTRAL,
    PLUS,
    Polarised,
    copycat,
    dual,
    game,
    is_deterministic,
    is_plus_maximal,
    is_race_free,
    neutralise,
    parallel,
    plus_maximal_configs,
    scott_leq,
    slice_config,
)
from esgames.strategies import copycat_strategy
from esgames.structures import event_structure


def fs(*xs):
    return frozenset(xs)


def two_buttons():
    # two concurrent Player moves
    return game(event_structure(["b1", "b2"]), {"b1": PLUS, "b2": PLUS},
                name="two-buttons")


def alternating_chain(n):
    names = [f"e{i}" for i in range(1, n + 1)]
    pol = {nm: (PLUS if i % 2 else MINUS) for i, nm in enumerate(names, start=1)}
    return game(event_structure(names, causes=list(zip(names, names[1:]))), pol)


def test_polarity_must_cover_events():
    es = event_structure(["a", "b"])
    with pytest.raises(PolarityMismatch):
        Polarised(es, {"a": PLUS})
    with pytest.raises(PolarityMismatch):
        Polarised(es, {"a": PLUS, "b": "?"})
    with pytest.raises(PolarityMismatch):
        game(es, {"a": PLUS, "b": NEUTRAL})


def test_equal_games_built_apart_hash_alike():
    def built():
        return game(event_structure(["a", "b", "c"], [("a", "b")],
                                    [("b", "c")]),
                    {"a": MINUS, "b": PLUS, "c": PLUS})

    text = ("game G {\n  event a -;\n  event b +;\n  event c +;\n"
            "  cause a < b;\n  conflict b ~ c;\n}\n")
    parsed = parse(text).get("G").obj
    reparsed = parse(print_workspace(parse(text))).get("G").obj
    first, second = built(), built()
    assert first.es is not second.es
    games = (first, second, parsed, reparsed)
    for g in games:
        assert g == first and hash(g) == hash(first)
    assert {first: "kept"}[reparsed] == "kept"


def test_dual_is_an_involution():
    g = two_buttons()
    d = dual(g)
    assert d.pol == {"b1": MINUS, "b2": MINUS}
    assert dual(d).pol == g.pol
    assert dual(d) == g


def test_neutralise():
    g = two_buttons()
    assert set(neutralise(g).pol.values()) == {NEUTRAL}


def test_parallel_tags_components():
    one = game(event_structure(["p"]), {"p": PLUS})
    two = parallel(one, one)
    assert two.events == fs((1, "p"), (2, "p"))
    assert two.es.concurrent_pairs() == fs(((1, "p"), (2, "p")))
    assert slice_config(fs((1, "p")), 1) == fs("p")


def test_parallel_keeps_order_and_conflict_componentwise():
    cpair = game(event_structure(["a", "b"], conflicts=[("a", "b")]),
                 {"a": PLUS, "b": PLUS})
    chain = game(event_structure(["x", "y"], causes=[("x", "y")]),
                 {"x": MINUS, "y": PLUS})
    both = parallel(cpair, chain)
    assert len(both.events) == 4
    assert not both.es.is_consistent({(1, "a"), (1, "b")})
    assert both.es.is_consistent({(1, "a"), (2, "x"), (2, "y")})
    assert both.es.leq((2, "x"), (2, "y"))
    assert not both.es.leq((1, "a"), (2, "x"))
    assert set(both.maxcons) == {
        fs((1, "a"), (2, "x"), (2, "y")),
        fs((1, "b"), (2, "x"), (2, "y"))}


def test_parallel_empty_unit_up_to_retagging():
    g = two_buttons()
    tagged = parallel(EMPTY, g)
    assert tagged.events == fs((2, "b1"), (2, "b2"))
    assert tagged.pol[(2, "b1")] == PLUS


def test_parallel_is_not_flattened():
    one = game(event_structure(["p"]), {"p": PLUS})
    nested = parallel(one, parallel(one, one))
    flat = parallel(one, one, one)
    assert nested.events != flat.events
    assert (2, (1, "p")) in nested.events


def test_dual_parallel_commute():
    a = two_buttons()
    b = alternating_chain(2)
    assert dual(parallel(a, b)) == parallel(dual(a), dual(b))


def test_race_free_two_buttons():
    ok, wit = is_race_free(two_buttons())
    assert ok and wit is None


def test_race_minimal_witness():
    g = game(event_structure(["p", "m"], conflicts=[("p", "m")]),
             {"p": PLUS, "m": MINUS})
    ok, (x, y, z) = is_race_free(g)
    assert not ok
    assert x == fs() and {y, z} == {fs("p"), fs("m")}


def test_race_free_alternating_chain():
    ok, _ = is_race_free(alternating_chain(5))
    assert ok


def test_race_free_monotone_under_down_closed_restriction():
    g = alternating_chain(5)
    sub = g.restrict(g.es.down_closure({"e3"}))
    assert is_race_free(sub)[0]


def test_deterministic_examples():
    ok, _ = is_deterministic(EMPTY)
    assert ok
    # two conflicting Player moves: the canonical nondeterministic choice
    s = Polarised(event_structure(["s1", "s2"], conflicts=[("s1", "s2")]),
                  {"s1": PLUS, "s2": PLUS})
    ok, (x, y, z) = is_deterministic(s)
    assert not ok and x == fs() and {y, z} == {fs("s1"), fs("s2")}


def test_copycat_deterministic_iff_race_free():
    cc = copycat(two_buttons())
    assert is_deterministic(cc)[0]
    racy = game(event_structure(["p", "m"], conflicts=[("p", "m")]),
                {"p": PLUS, "m": MINUS})
    assert not is_race_free(racy)[0]
    cc2 = copycat(racy)
    assert not is_deterministic(cc2)[0]


def test_scott_leq():
    g = two_buttons()
    assert scott_leq(g, fs(), fs("b1"))
    assert not scott_leq(g, fs("b1"), fs("b2"))
    opp = game(event_structure(["m"]), {"m": MINUS})
    assert scott_leq(opp, fs("m"), fs())
    assert not scott_leq(dual(opp), fs("m"), fs())


def test_plus_maximal():
    g = alternating_chain(2)  # e1:+ then e2:-
    assert not is_plus_maximal(g, fs())
    assert is_plus_maximal(g, fs("e1"))
    assert is_plus_maximal(g, fs("e1", "e2"))
    assert plus_maximal_configs(g) == [fs("e1"), fs("e1", "e2")]


def test_copycat_one_player_move():
    a = game(event_structure(["p"]), {"p": PLUS})
    cc = copycat(a)
    assert cc.pol == {(1, "p"): MINUS, (2, "p"): PLUS}
    assert cc.es.leq((1, "p"), (2, "p"))
    assert cc.configurations() == [fs(), fs((1, "p")), fs((1, "p"), (2, "p"))]
    ccmap = copycat_strategy(a).sigma
    assert ccmap.src == cc.es
    assert ccmap.mapping == {(1, "p"): (1, "p"), (2, "p"): (3, "p")}
    assert ccmap.dst.events == fs((1, "p"), (3, "p"))


def test_copycat_two_buttons_has_no_cross_component_edges():
    cc = copycat(two_buttons())
    assert len(cc.events) == 4
    assert cc.es.immediate_pairs() == fs(
        ((1, "b1"), (2, "b1")), ((1, "b2"), (2, "b2")))


def test_copycat_prunes_the_nested_sets_of_a_player_conflict():
    # with p ~ q, the component pair ({p}, {q}) closes to {(1, p)}, which
    # lies inside {(1, p), (2, p)}: only the two sets inside no other stay
    a = game(event_structure(["p", "q"], conflicts=[("p", "q")]),
             {"p": PLUS, "q": PLUS})
    cc = copycat(a)
    assert cc.es.maxcons == (fs((1, "p"), (2, "p")), fs((1, "q"), (2, "q")))
    assert cc.es == event_structure(
        [(1, "p"), (1, "q"), (2, "p"), (2, "q")],
        causes=[((1, "p"), (2, "p")), ((1, "q"), (2, "q"))],
        conflicts=[((1, "p"), (1, "q"))])


def test_copycat_empty():
    cc = copycat(EMPTY)
    assert cc.events == fs()
    assert copycat_strategy(EMPTY).sigma.mapping == {}


def test_copycat_configurations_match_scott_order():
    for g in (two_buttons(), alternating_chain(3),
              game(event_structure(["a", "b"], conflicts=[("a", "b")]),
                   {"a": PLUS, "b": MINUS})):
        cc = copycat(g)
        got = set(cc.configurations())
        want = set()
        for x in g.configurations():
            for y in g.configurations():
                if scott_leq(g, y, x):
                    want.add(frozenset({(1, e) for e in x} | {(2, e) for e in y}))
        assert got == want


def test_parallel_of_nothing_is_refused():
    with pytest.raises(BadArgument):
        parallel()
