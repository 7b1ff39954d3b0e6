"""Traces, may/must verdicts, preorders, and separating-test synthesis."""

import gc
import random
import weakref
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgames import fixtures as fx
from esgames import testing
from esgames.errors import (BadArgument, GameMismatch, NotAConfiguration,
                            NotAGap, PolarityMismatch, SizeBoundExceeded)
from esgames.games import EMPTY, MINUS, NEUTRAL, PLUS, Polarised, game
from esgames.interaction import compose_stopping, interact_stopping
from esgames.limits import DEFAULT_LIMITS, EngineLimits
from esgames.randgen import random_game, random_in_game_strategy, random_stopping
from esgames.strategies import (
    StoppingStrategy,
    bare_strategy,
    copycat_strategy,
    in_game_strategy,
    saturate_stopping,
    stop_of,
)
from esgames.fileformat import Definition, Workspace, print_workspace
from esgames.structures import EventStructure, event_structure, find_isomorphism
from esgames.testing import (
    TICK,
    Verdict,
    enumerate_tests,
    find_gap,
    finite_traces,
    may_pass,
    may_preorder,
    must_pass,
    must_preorder,
    stopping_traces,
    success_game,
    synthesize_may_test,
    synthesize_must_test,
    traces_of,
)


def fs(*xs):
    return frozenset(xs)


def idle_on(g):
    stopping = {fs()} if not any(p == MINUS for p in g.pol.values()) else None
    assert stopping is not None
    return StoppingStrategy(fx.idle(g), stopping)


# ---- traces ----------------------------------------------------------------


def test_traces_respect_source_order():
    t2 = fx.tick2_probe()
    full = fs("u1", "u2", "tick")
    got = traces_of(t2, full)
    assert got == {
        ((1, "b1"), (1, "b2"), (3, TICK)),
        ((1, "b2"), (1, "b1"), (3, TICK)),
        ((1, "b2"), (3, TICK), (1, "b1")),
    }


def test_traces_of_refuses_a_set_that_is_not_a_configuration():
    # t3 waits for t2: {t3} is not down-closed
    relay = fx.relay_b2_to_c()
    with pytest.raises(NotAConfiguration) as e:
        traces_of(relay, {"t3"})
    assert e.value.data == {"member": fs("t3")}
    for sigma, x in ((relay, {"nope"}), (fx.double_press_c(), {"x1", "x2"})):
        with pytest.raises(NotAConfiguration):
            traces_of(sigma, x)
    assert traces_of(relay, {"t2", "t3"}) == {((1, "b2"), (3, "c"))}


def test_finite_traces_of_internal_choice():
    assert finite_traces(fx.press_either()) == {
        (), ((3, "b1"),), ((3, "b2"),),
    }


def test_stopping_traces_drop_partial_plays():
    st = saturate_stopping(fx.press_either())
    assert stopping_traces(st) == {((3, "b1"),), ((3, "b2"),)}


def test_copycat_traces_answer_after_ask():
    cc = copycat_strategy(fx.one_shot())
    assert finite_traces(cc) == {(), ((1, "p"),), ((1, "p"), (3, "p"))}


def test_branching_strategy_shares_traces_with_plain_one():
    assert finite_traces(fx.two_by_two_id()) == finite_traces(
        fx.two_by_two_branching())
    a = saturate_stopping(fx.two_by_two_id())
    b = saturate_stopping(fx.two_by_two_branching())
    assert stopping_traces(a) == stopping_traces(b)


def concurrent_moves(n):
    """The saturated strategy playing n concurrent Player moves."""
    moves = [f"m{i}" for i in range(n)]
    g = game(event_structure(moves), dict.fromkeys(moves, PLUS))
    src = Polarised(event_structure(moves), dict.fromkeys(moves, PLUS))
    return saturate_stopping(in_game_strategy(src, g, {m: m for m in moves}))


def test_holding_preorders_list_no_linearisation(monkeypatch):
    # each configuration of 9 concurrent moves covers itself
    calls = []
    listing = testing._linearisations
    monkeypatch.setattr(testing, "_linearisations",
                        lambda *args: calls.append(args) or listing(*args))
    s = concurrent_moves(9)
    assert may_preorder(s.strat, s.strat) == (True, None)
    assert must_preorder(s, s) == (True, None)
    assert calls == []


def crossed_waits():
    """Over Opponent o1, o2 and Player p1, p2, all concurrent: s1 plays p1
    after o2 and p2 after o1; s2 plays either copy of that with one wait
    more, p1 after o1 too or p2 after o2 too. Neither copy's order is
    contained in s1's, yet together they have every trace of it."""
    moves = ["o1", "o2", "p1", "p2"]
    pol = {"o1": MINUS, "o2": MINUS, "p1": PLUS, "p2": PLUS}
    g = game(event_structure(moves), pol)
    src1 = Polarised(event_structure(moves, [("o2", "p1"), ("o1", "p2")]),
                     pol)
    s1 = in_game_strategy(src1, g, {m: m for m in moves})
    events = ["o1", "o2", "p1a", "p2a", "p1b", "p2b"]
    causes = [("o2", "p1a"), ("o1", "p2a"), ("o1", "p1a"),   # copy a
              ("o2", "p1b"), ("o1", "p2b"), ("o2", "p2b")]   # copy b
    conflicts = [(f"p{i}a", f"p{j}b") for i in (1, 2) for j in (1, 2)]
    src2 = Polarised(event_structure(events, causes, conflicts),
                     {e: pol[e[:2]] for e in events})
    s2 = in_game_strategy(src2, g, {e: e[:2] for e in events})
    return saturate_stopping(s1), saturate_stopping(s2)


def test_trace_cap_is_checked_while_traces_are_generated():
    # the one stopping configuration has 9! = 362 880 traces; the preorder
    # covers it by its own order and lists none of them
    s = concurrent_moves(9)
    small = EngineLimits(max_configs=1000)
    assert must_preorder(s, s, small) == (True, None)
    with pytest.raises(SizeBoundExceeded) as e:
        traces_of(s.strat, max(s.stopping, key=len), small)
    assert e.value.data == {"cap": 1000}


def test_preorders_list_the_traces_of_a_configuration_no_order_covers(
        monkeypatch):
    # s1's full configuration has six traces, all of them s2's, but neither
    # of s2's full configurations orders its moves inside s1's
    s1, s2 = crossed_waits()
    calls = []
    listing = testing._linearisations
    monkeypatch.setattr(testing, "_linearisations",
                        lambda *args: calls.append(args[1]) or listing(*args))
    assert must_preorder(s1, s2) == (True, None)
    assert calls == [max(s1.stopping, key=len)]


def test_the_traces_a_preorder_lists_are_capped():
    # s1's full stopping configuration has six traces, all listed
    s1, s2 = crossed_waits()
    with pytest.raises(SizeBoundExceeded) as e:
        must_preorder(s1, s2, EngineLimits(max_configs=5))
    assert e.value.data == {"cap": 5}
    assert must_preorder(s1, s2, EngineLimits(max_configs=6)) == (True, None)


def game_named_by_tuples():
    """A workspace holding one game whose events print flattened."""
    ws = Workspace()
    events = [(1, ("a", frozenset({"b"}))), (2, "c")]
    ws.add(Definition("game", "g", game(event_structure(events),
                                        dict.fromkeys(events, PLUS))))
    return ws


def reachable_cycles_left_by(call):
    """The objects the cycle collector finds unreachable after call(), run
    with the collector off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_engine_calls_leave_no_reference_cycles():
    # a cycle keeps all it holds alive until the collector runs; the inputs
    # are built first, and only the calls are watched
    s1, s2 = crossed_waits()
    es, ws = event_structure("abc", [("a", "b")]), game_named_by_tuples()
    calls = {
        "listing preorder": lambda: must_preorder(s1, s2),
        "cliques": lambda: event_structure("abcd", conflicts=["ab", "cd"]),
        "isomorphism": lambda: find_isomorphism(es, es),
        "print": lambda: print_workspace(ws),
    }
    left = {name: reachable_cycles_left_by(call)
            for name, call in calls.items()}
    assert left == dict.fromkeys(calls, 0)


def test_trace_cap_counts_distinct_traces_across_configurations():
    # 1 + 3 + 6 + 6 = 16 distinct traces over the configurations of 3 moves
    s = concurrent_moves(3)
    assert len(finite_traces(s.strat, EngineLimits(max_configs=16))) == 16
    with pytest.raises(SizeBoundExceeded) as e:
        finite_traces(s.strat, EngineLimits(max_configs=15))
    assert e.value.data == {"cap": 15}


# ---- verdicts --------------------------------------------------------------


def test_verdict_is_truthy_on_pass():
    assert Verdict(True)
    assert not Verdict(False, (fs(), fs()))


def test_limits_and_verdicts_are_immutable_values():
    assert EngineLimits() == DEFAULT_LIMITS
    assert hash(EngineLimits()) == hash(DEFAULT_LIMITS)
    assert (repr(EngineLimits(max_configs=3))
            == "EngineLimits(max_configs=3, max_primes=4096)")
    assert repr(Verdict(True)) == "Verdict(passed=True, witness=None)"
    with pytest.raises(AttributeError):
        DEFAULT_LIMITS.max_configs = 1
    with pytest.raises(AttributeError):
        Verdict(False).passed = True


def test_success_game_is_one_player_move():
    s = success_game()
    assert s.events == fs(TICK)
    assert s.pol[TICK] == PLUS


def test_may_needs_matching_test_game():
    sub = saturate_stopping(fx.press_c())
    with pytest.raises(GameMismatch):
        may_pass(sub, fx.tick2_probe())
    with pytest.raises(GameMismatch):
        may_pass(saturate_stopping(fx.press_b2()), fx.press_b2())


def test_subject_must_start_from_nothing():
    sub = saturate_stopping(fx.relay_b2_to_c())
    with pytest.raises(GameMismatch):
        may_pass(sub, fx.tick2_probe())


def test_second_button_probe_stopping():
    assert stop_of(fx.tick2_probe()).stopping == {
        fs(), fs("u1"), fs("u2", "tick"), fs("u1", "u2", "tick"),
    }


def test_may_and_must_verdicts_on_button_probes():
    t2 = fx.tick2_probe()
    b2 = saturate_stopping(fx.press_b2())
    either = saturate_stopping(fx.press_either())
    assert may_pass(b2, t2).witness == (fs("s"), fs("u2", "tick"))
    assert must_pass(b2, t2).passed
    assert may_pass(either, t2).passed
    v = must_pass(either, t2)
    assert not v.passed and v.witness == (fs("s1"), fs("u1"))


def test_doing_nothing_fails_the_probe_but_passes_free_success():
    nothing = idle_on(fx.buttons())
    v = must_pass(nothing, fx.tick2_probe())
    assert not v.passed and v.witness == (fs(), fs())
    assert may_pass(nothing, fx.free_probe()).witness == (fs(), fs("tick"))
    assert must_pass(nothing, fx.free_probe()).passed


def test_probe_that_offers_the_move_it_does_not_need():
    sub = StoppingStrategy(fx.receiver(), {fs(), fs("r")})
    v = may_pass(sub, fx.wait_free_probe())
    assert v.passed and v.witness == (fs(), fs("tick"))
    assert must_pass(sub, fx.wait_free_probe()).passed


def test_internal_race_in_the_test_detects_output():
    # the probe's internal step after c preempts success, so producing c is
    # exactly what makes the subject fail
    probe = fx.neutral_probe()
    assert stop_of(probe).stopping == {fs("tick"), fs("u"), fs("u", "tick")}
    assert must_pass(idle_on(fx.click()), probe).passed
    player = StoppingStrategy(fx.press_c(), {fs(), fs("s")})
    v = must_pass(player, probe)
    assert not v.passed and v.witness == (fs("s"), fs("u"))


def test_early_exit_window_on_the_ladder():
    probe = fx.ladder_probe()
    assert stop_of(probe).stopping == {
        fs(), fs("a", "b", "t1"), fs("a", "b", "c", "t1"),
        fs("a", "b", "c", "d"), fs("a", "b", "c", "d", "e", "t2"),
    }
    assert must_pass(stop_of(fx.ladder_one_stall()), probe).passed
    v = must_pass(stop_of(fx.ladder_two_stalls()), probe)
    assert not v.passed
    x, y = v.witness
    assert y == fs("a", "b", "c", "d")


def test_verdicts_agree_with_the_composition_route():
    cases = [
        (saturate_stopping(fx.press_either()), fx.tick2_probe()),
        (saturate_stopping(fx.press_b2()), fx.tick2_probe()),
        (stop_of(fx.ladder_two_stalls()), fx.ladder_probe()),
    ]
    for sub, t in cases:
        comp = compose_stopping(sub, stop_of(t))
        ticked = lambda y: any(comp.strat.assigned(e) == (3, TICK) for e in y)
        assert must_pass(sub, t).passed == all(map(ticked, comp.stopping))
        assert may_pass(sub, t).passed == any(
            ticked(y) for y in comp.strat.source.configurations())


# ---- preorders -------------------------------------------------------------


def test_may_preorder_on_button_strategies():
    ok, gap = may_preorder(fx.press_b2(), fx.press_either())
    assert ok and gap is None
    ok, gap = may_preorder(fx.press_either(), fx.press_b2())
    assert not ok and gap == (fs("s1"), ((3, "b1"),))


def test_must_preorder_needs_stopping_data():
    with pytest.raises(GameMismatch):
        must_preorder(fx.press_b2(), saturate_stopping(fx.press_either()))


def test_must_preorder_on_click_strategies():
    player = StoppingStrategy(fx.press_c(), {fs(), fs("s")})
    nothing = idle_on(fx.click())
    ok, gap = must_preorder(player, nothing)
    assert not ok and gap == (fs("s"), ((3, "c"),))
    ok, gap = must_preorder(nothing, player)
    assert ok and gap is None


def test_branching_pair_is_equivalent_both_ways():
    a = saturate_stopping(fx.two_by_two_id())
    b = saturate_stopping(fx.two_by_two_branching())
    assert must_preorder(a, b) == (True, None)
    assert must_preorder(b, a) == (True, None)
    assert may_preorder(a, b) == (True, None)
    assert find_gap("must", a, b) is None


@pytest.mark.parametrize("pairs", [2, 3, 4, 5])
def test_duplicate_branch_never_separates(pairs):
    a = saturate_stopping(fx.chain_climbers(pairs, True))
    b = saturate_stopping(fx.chain_climbers(pairs, False))
    assert must_preorder(a, b) == (True, None)
    assert must_preorder(b, a) == (True, None)


def test_find_gap_dispatch():
    gap = find_gap("may", fx.press_either(), fx.press_b2())
    assert gap == (fs("s1"), ((3, "b1"),))
    with pytest.raises(BadArgument) as e:
        find_gap("sometimes", fx.press_b2(), fx.press_b2())
    assert e.value.data == {"kind": "sometimes"}


# ---- synthesis -------------------------------------------------------------


def test_synthesized_may_test_separates_buttons():
    _, gap = may_preorder(fx.press_either(), fx.press_b2())
    t = synthesize_may_test(fx.press_b2(), gap)
    assert t.source.pol == {"b1": MINUS, "b2": MINUS, TICK: PLUS}
    assert t.source.es.immediate_pairs() == fs(("b1", TICK))
    assert may_pass(saturate_stopping(fx.press_either()), t).passed
    assert not may_pass(saturate_stopping(fx.press_b2()), t).passed


def test_synthesize_may_rejects_realized_traces():
    with pytest.raises(NotAGap):
        synthesize_may_test(fx.press_either(), (fs("s1"), ((3, "b1"),)))
    with pytest.raises(GameMismatch):
        synthesize_may_test(fx.relay_b2_to_c(), (fs(), ()))


def test_synthesized_must_test_regrows_the_race_probe():
    player = StoppingStrategy(fx.press_c(), {fs(), fs("s")})
    nothing = idle_on(fx.click())
    _, gap = must_preorder(player, nothing)
    t = synthesize_must_test(nothing, gap)
    assert t.source.pol == {"c": MINUS, ("n", "c"): NEUTRAL, ("v", "c"): PLUS}
    assert t.source.es.immediate_pairs() == fs(("c", ("n", "c")))
    # the internal step races the success move
    assert not any(("n", "c") in x and ("v", "c") in x
                   for x in t.source.configurations())
    assert must_pass(nothing, t).passed
    assert not must_pass(player, t).passed


def test_synthesized_must_test_separates_the_ladder_pair():
    one = stop_of(fx.ladder_one_stall())
    two = stop_of(fx.ladder_two_stalls())
    ok, gap = must_preorder(two, one)
    assert not ok and gap[1] == ((3, "a"), (3, "b"), (3, "c"), (3, "d"))
    t = synthesize_must_test(one, gap)
    assert must_pass(one, t).passed
    assert not must_pass(two, t).passed


def test_synthesize_must_rejects_realized_stopping_traces():
    player = StoppingStrategy(fx.press_c(), {fs(), fs("s")})
    with pytest.raises(NotAGap):
        synthesize_must_test(player, (fs("s"), ((3, "c"),)))
    with pytest.raises(GameMismatch):
        synthesize_must_test(fx.press_c(), (fs(), ()))


@pytest.mark.parametrize("lower, played", [(MINUS, "ab"), (PLUS, "a")])
def test_synthesis_refuses_a_gap_that_plays_a_move_before_its_cause(
        lower, played):
    # over a < b no strategy has the trace b a, so it is no gap, whether the
    # second subject plays both moves or a alone
    g = game(event_structure(["a", "b"], [("a", "b")]),
             {"a": lower, "b": PLUS})
    moves = list(played)
    src = Polarised(event_structure(moves, [("a", "b")] if "b" in moves
                                    else ()), {m: g.pol[m] for m in moves})
    s = in_game_strategy(src, g, {m: m for m in moves})
    gap = (fs(*moves), ((3, "b"), (3, "a")))
    for synthesize, subject in ((synthesize_may_test, s),
                                (synthesize_must_test, stop_of(s))):
        with pytest.raises(NotAGap) as e:
            synthesize(subject, gap)
        assert e.value.data == {"trace": gap[1]}


def test_synthesis_without_a_gap_is_a_bad_argument():
    # None is what find_gap answers when the preorder holds; it is refused
    # before the subject is looked at
    s = fx.press_b2()
    assert find_gap("may", s, s) is None
    for synthesize, subject in ((synthesize_may_test, s),
                                (synthesize_must_test, stop_of(s)),
                                (synthesize_must_test, s)):
        with pytest.raises(BadArgument) as e:
            synthesize(subject, None)
        assert e.value.data == {"gap": None}


def test_synthesis_lists_no_traces_of_the_second_subject():
    # s2 answers six concurrent Opponent moves: its 64 configurations fit
    # the cap, the 720 traces of the six would not, and synthesis reads the
    # configurations grouped by image instead of listing traces
    opp = [f"o{i}" for i in range(6)]
    g = game(event_structure(opp + ["q"]), dict.fromkeys(opp, MINUS) | {"q": PLUS})

    def playing(moves):
        src = Polarised(event_structure(moves), {m: g.pol[m] for m in moves})
        return in_game_strategy(src, g, {m: m for m in moves})

    s1, s2 = playing(opp + ["q"]), playing(opp)
    small = EngineLimits(max_configs=64)
    _, gap = may_preorder(s1, s2)
    t = synthesize_may_test(s2, gap, small)
    assert may_pass(s1, t).passed and not may_pass(s2, t).passed
    with pytest.raises(SizeBoundExceeded) as e:
        synthesize_may_test(s2, gap, EngineLimits(max_configs=63))
    assert e.value.data == {"cap": 63}
    m1, m2 = saturate_stopping(s1), saturate_stopping(s2)
    _, gap = must_preorder(m1, m2)
    t = synthesize_must_test(m2, gap, small)
    assert must_pass(m2, t).passed and not must_pass(m1, t).passed


def test_unreached_player_moves_get_guarded_success_copies():
    # a subject that stops after one lamp against one that lights both: the
    # extra lamp's success copy must wait for the lamp, otherwise the test
    # would blame the two-lamp subject as well
    g = fx.two_lamps()
    one = in_game_strategy(
        Polarised(event_structure(["x"]), {"x": PLUS}), g, {"x": "a"})
    both = in_game_strategy(
        Polarised(event_structure(["x", "y"]), {"x": PLUS, "y": PLUS}), g,
        {"x": "a", "y": "b"})
    s1 = StoppingStrategy(one, {fs("x")})
    s2 = StoppingStrategy(both, {fs("x", "y")})
    ok, gap = must_preorder(s1, s2)
    assert not ok
    t = synthesize_must_test(s2, gap)
    assert ("b", ("v", "b")) in t.source.es.immediate_pairs()
    assert must_pass(s2, t).passed
    assert not must_pass(s1, t).passed


def player_conflict_pair():
    """a0 -, a1 +, a2 + with a1 ~ a2; the first subject plays a2, the second
    a1, so the gap is (a2) and the saturation holds both a1 and a2."""
    g = game(event_structure(["a0", "a1", "a2"], conflicts=[("a1", "a2")]),
             {"a0": MINUS, "a1": PLUS, "a2": PLUS})

    def playing(move):
        src = Polarised(event_structure(["o", "p"]), {"o": MINUS, "p": PLUS})
        return in_game_strategy(src, g, {"o": "a0", "p": move})

    return playing("a2"), playing("a1")


def test_synthesis_keeps_the_game_conflicts_of_saturated_moves():
    s1, s2 = player_conflict_pair()
    ok, gap = may_preorder(s1, s2)
    assert not ok and gap[1] == ((3, "a2"),)
    t = synthesize_may_test(s2, gap)
    assert not t.source.es.is_consistent({"a1", "a2"})
    assert may_pass(s1, t).passed and not may_pass(s2, t).passed

    m1, m2 = saturate_stopping(s1), saturate_stopping(s2)
    ok, gap = must_preorder(m1, m2)
    assert not ok and gap[1] == ((3, "a2"),)
    t = synthesize_must_test(m2, gap)
    assert not t.source.es.is_consistent({"a1", "a2"})
    assert must_pass(m2, t).passed and not must_pass(m1, t).passed


def game_with_player_conflict(rng, max_events):
    """A random game with some conflict that touches a Player move."""
    while True:
        g = random_game(rng, max_events=max_events, min_events=2)
        if any(not g.es.is_consistent({a, b})
               for a in g.events for b in g.events
               if a != b and PLUS in (g.pol[a], g.pol[b])):
            return g


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_synthesis_separates_every_failing_pair_over_player_conflicts(seed):
    rng = random.Random(seed)
    g = game_with_player_conflict(rng, 3)
    for _ in range(4):
        s1 = random_in_game_strategy(rng, g)
        s2 = random_in_game_strategy(rng, g)
        ok, gap = may_preorder(s1, s2)
        if not ok:
            t = synthesize_may_test(s2, gap)
            assert may_pass(s1, t).passed and not may_pass(s2, t).passed
    g = game_with_player_conflict(rng, 2)
    for _ in range(4):
        m1 = random_stopping(rng, random_in_game_strategy(rng, g))
        m2 = random_stopping(rng, random_in_game_strategy(rng, g))
        ok, gap = must_preorder(m1, m2)
        if not ok:
            t = synthesize_must_test(m2, gap)
            assert must_pass(m2, t).passed and not must_pass(m1, t).passed


# ---- bounded enumeration ---------------------------------------------------


def test_enumerated_button_tests_are_the_expected_five():
    tests = enumerate_tests(fx.buttons(), max_events=3)
    assert len(tests) == 5
    sizes = sorted(len(t.source.events) for t in tests)
    assert sizes == [2, 3, 3, 3, 3]


def test_enumeration_contains_a_may_separator():
    tests = enumerate_tests(fx.buttons(), max_events=3)
    either = saturate_stopping(fx.press_either())
    b2 = saturate_stopping(fx.press_b2())
    assert any(may_pass(either, t).passed and not may_pass(b2, t).passed
               for t in tests)


def test_enumeration_finds_no_separator_for_equivalent_pair():
    tests = enumerate_tests(fx.buttons(), max_events=3)
    a = saturate_stopping(fx.two_by_two_id())
    # same behaviour over a different game would not even type-check; compare
    # press_b1 against a doubled variant of itself instead
    doubled = in_game_strategy(
        Polarised(event_structure(["s", "t"], conflicts=[("s", "t")]),
                  {"s": PLUS, "t": PLUS}),
        fx.buttons(), {"s": "b1", "t": "b1"})
    one = saturate_stopping(fx.press_b1())
    two = saturate_stopping(doubled)
    for t in tests:
        assert may_pass(one, t).passed == may_pass(two, t).passed
        assert must_pass(one, t).passed == must_pass(two, t).passed


def test_enumeration_with_internal_steps_finds_a_must_separator():
    tests = enumerate_tests(fx.click(), max_events=3, bare=True)
    player = StoppingStrategy(fx.press_c(), {fs(), fs("s")})
    nothing = idle_on(fx.click())
    seps = [t for t in tests
            if must_pass(nothing, t).passed and not must_pass(player, t).passed]
    assert len(seps) == 1
    (t,) = seps
    assert sum(p == NEUTRAL for p in t.source.pol.values()) == 1


def test_enumeration_covers_every_forced_move_exactly_once():
    for t in enumerate_tests(fx.buttons(), max_events=4):
        copies = [e for e in t.source.events if t.assigned(e)[0] == 1]
        assert sorted(t.assigned(e)[1] for e in copies) == ["b1", "b2"]


def test_equal_games_built_apart_share_their_tests():
    def buttons(name):
        return game(event_structure(["b1", "b2"]), {"b1": PLUS, "b2": PLUS},
                    name=name)

    one, two = buttons("left"), buttons("right")
    first = enumerate_tests(one, max_events=3)
    second = enumerate_tests(two, max_events=3)
    assert first == second and first is not second
    assert all(t.A == two for t in second)
    first.clear()
    assert len(enumerate_tests(one, max_events=3)) == 5


def test_enumeration_is_keyed_on_budget_and_kind():
    g = fx.click()
    plain = enumerate_tests(g, max_events=2)
    assert len(enumerate_tests(g, max_events=3)) > len(plain)
    assert len(enumerate_tests(g, max_events=2, bare=True)) > len(plain)
    assert enumerate_tests(g, max_events=2) == plain


def test_the_budget_is_a_count_on_a_cold_and_on_a_warm_table():
    g = game(event_structure(["budget"]), {"budget": MINUS})  # no other test's
    bad = [2.0, 1.0, -3, True, False, "2", None]

    def rejected():
        for b in bad:
            with pytest.raises(BadArgument) as err:
                enumerate_tests(g, b)
            assert err.value.data["max_events"] is b

    rejected()  # nothing is kept for g yet
    assert [len(enumerate_tests(g, n)) for n in (0, 1, 2)] == [1, 3, 7]
    rejected()  # 2.0 and True would hit the kept budgets 2 and 1


def test_tests_are_enumerated_over_games_only():
    # a neutral move is no move of a game: every candidate would fail
    # validation, which left the list empty
    g = Polarised(event_structure(["u", "a"]), {"u": NEUTRAL, "a": PLUS})
    with pytest.raises(PolarityMismatch) as err:
        enumerate_tests(g, 2)
    assert err.value.data == {"neutrals": frozenset({"u"})}


def counting_builds(monkeypatch):
    """Record the combo of every _skeletons call from now on: each
    enumeration that is built, not read from the table, makes them."""
    combos = []
    original = testing._skeletons

    def counted(g, combo):
        combos.append(combo)
        return original(g, combo)

    monkeypatch.setattr(testing, "_skeletons", counted)
    return combos


def one_move_games(prefix, count):
    """count one-move games, Opponent and Player in turn, over moves named
    after prefix so that no other test enumerates them."""
    return [game(event_structure([f"{prefix}{i}"]),
                 {f"{prefix}{i}": (MINUS, PLUS)[i % 2]})
            for i in range(count)]


def test_a_working_set_of_ten_enumerations_is_built_once(monkeypatch):
    # more enumerations than the eight an lru_cache(maxsize=8) kept, and
    # far fewer tests than the table holds
    games = one_move_games("ws", 10)
    built = counting_builds(monkeypatch)
    first = [enumerate_tests(g, 3, bare=bare)
             for g in games for bare in (False, True)]
    assert built
    built.clear()
    second = [enumerate_tests(g, 3, bare=bare)
              for g in games for bare in (False, True)]
    assert built == []
    assert all(a == b and a is not b for a, b in zip(first, second))


def test_the_least_recently_used_enumeration_goes_first(monkeypatch):
    monkeypatch.setattr(testing, "_kept", OrderedDict())
    a, b, c, d = one_move_games("lru", 4)
    na, nb, nc = (len(enumerate_tests(g, 2)) for g in (a, b, c))
    assert [k[0] for k in testing._kept] == [a, b, c]
    enumerate_tests(a, 2)  # a is now the most recently used
    # a and c are Opponent moves, b and d Player moves: d's tests fit
    # once b's and c's, the two least recently used, are dropped
    monkeypatch.setattr(testing, "_KEPT_TESTS", na + nb)
    assert len(enumerate_tests(d, 2)) == nb and nc == na
    assert [k[0] for k in testing._kept] == [a, d]
    monkeypatch.setattr(testing, "_KEPT_TESTS", 1)
    assert len(enumerate_tests(b, 2)) > 1  # over the bound alone, and kept
    assert [k[0] for k in testing._kept] == [b]
    built = counting_builds(monkeypatch)
    enumerate_tests(b, 2)
    assert built == []


def test_tests_of_one_combo_share_one_target_while_one_holds_it():
    g = game(event_structure(["shared"]), {"shared": PLUS})
    combo = (("g", "shared"), ("t", None))
    t1, t2 = testing._skeletons(g, combo)
    assert t1.target is t2.target
    assert t1.sigma.dst is t1.target.es and t2.sigma.dst is t2.target.es
    target = weakref.ref(t1.target)
    del t1, t2
    gc.collect()
    assert target() is None


def test_synthesis_refuses_a_trace_the_order_allows():
    # (b, a) is no trace of the chain a < b, yet the one configuration with
    # that image holds no Opponent move to reverse against
    g = game(event_structure(["a", "b"], causes=[("a", "b")]),
             {"a": PLUS, "b": PLUS})
    src = Polarised(event_structure(["sa", "sb"], causes=[("sa", "sb")]),
                    {"sa": PLUS, "sb": PLUS})
    s2 = in_game_strategy(src, g, {"sa": "a", "sb": "b"})
    with pytest.raises(NotAGap):
        synthesize_may_test(s2, (frozenset(), ((3, "b"), (3, "a"))))


def test_must_synthesis_separates_saturated_concurrent_moves():
    # all n concurrent Player moves against the variant missing one: the
    # synthesised test's target has a configuration per subset of the moves
    # and more, which validating the test must not visit one by one
    n = 5
    moves = [f"p{i}" for i in range(n)]
    g = game(event_structure(moves), {m: PLUS for m in moves})

    def saturated(k):
        src = Polarised(event_structure(moves[:k]), {m: PLUS for m in moves[:k]})
        return saturate_stopping(
            in_game_strategy(src, g, {m: m for m in moves[:k]}))

    s1, s2 = saturated(n), saturated(n - 1)
    ok, gap = must_preorder(s1, s2)
    assert not ok
    t = synthesize_must_test(s2, gap)
    assert must_pass(s2, t) and not must_pass(s1, t)


def test_must_synthesis_reverses_the_order_of_the_other_strategy():
    # S2 answers o with p, S1 plays both at once: the gap p o is one of S1's
    # stopping traces only, and the test puts p below o, against S2's order
    g = game(event_structure(["o", "p"]), {"o": MINUS, "p": PLUS})

    def stopping_at_both(causes):
        src = Polarised(event_structure(["so", "sp"], causes=causes),
                        {"so": MINUS, "sp": PLUS})
        st = in_game_strategy(src, g, {"so": "o", "sp": "p"})
        return StoppingStrategy(st, {fs("so", "sp")})

    s1, s2 = stopping_at_both([]), stopping_at_both([("so", "sp")])
    ok, gap = must_preorder(s1, s2)
    assert not ok and gap[1] == ((3, "p"), (3, "o"))
    t = synthesize_must_test(s2, gap)
    assert t.source.es.leq("p", "o")
    assert must_pass(s2, t) and not must_pass(s1, t)


@pytest.mark.parametrize("other", [("x", "b"), ("n", "a")])
def test_must_synthesis_over_moves_mixing_strings_and_tuples(other):
    # ("x", "b") cannot be ordered against "a" by plain comparison, and
    # ("n", "a") is what the shadow of "a" would be called
    g = game(event_structure(["a", other]), {"a": PLUS, other: PLUS})
    both = in_game_strategy(
        Polarised(event_structure(["p", "q"]), {"p": PLUS, "q": PLUS}), g,
        {"p": "a", "q": other})
    one = in_game_strategy(
        Polarised(event_structure(["p"]), {"p": PLUS}), g, {"p": "a"})
    s1, s2 = saturate_stopping(both), saturate_stopping(one)
    ok, gap = must_preorder(s1, s2)
    assert not ok
    t = synthesize_must_test(s2, gap)
    assert must_pass(s2, t).passed and not must_pass(s1, t).passed


def counting_configurations(monkeypatch):
    """Record the structure of every configuration walk from now on."""
    calls = []
    original = EventStructure.configuration_graph

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    monkeypatch.setattr(EventStructure, "configuration_graph", counted)
    return calls


@pytest.mark.parametrize("bare", [False, True])
def test_a_second_run_of_a_test_enumerates_nothing(monkeypatch, bare):
    rng = random.Random(5)
    g = fx.buttons()
    subjects = [random_stopping(rng, random_in_game_strategy(rng, g))
                for _ in range(2)]
    own = subjects[1].strat.source.es
    calls = counting_configurations(monkeypatch)
    for t in enumerate_tests(g, 3, bare=bare):
        for run in (may_pass, must_pass):
            run(subjects[0], t)
            calls.clear()
            run(subjects[1], t)
            assert all(es is own for es in calls)


def test_a_test_compares_a_game_object_once(monkeypatch):
    # two equal games built apart, down to their event structures
    g1, g2 = (game(event_structure(["a", "b"], [("a", "b")]),
                   {"a": MINUS, "b": PLUS}) for _ in range(2))
    rng = random.Random(5)
    subject = random_stopping(rng, random_in_game_strategy(rng, g2))
    test = enumerate_tests(g1, 2, bare=True)[-1]
    assert test.A == g2 and test.A.es is not g2.es
    compared = []
    original = EventStructure.__eq__

    def counted(self, other):
        if self is not other:
            compared.append(self)
        return original(self, other)

    monkeypatch.setattr(EventStructure, "__eq__", counted)
    must_pass(subject, test)
    assert compared
    compared.clear()
    must_pass(subject, test)
    assert compared == []


def test_subjects_over_equal_games_compare_the_game_once_each(monkeypatch):
    # how holding pairs run against a pool: two subjects over equal games
    # built apart take turns on every test of one enumeration
    g0, g1, g2 = (game(event_structure(["a", "b"], [("a", "b")]),
                       {"a": MINUS, "b": PLUS}) for _ in range(3))
    rng = random.Random(5)
    subjects = [random_stopping(rng, random_in_game_strategy(rng, g))
                for g in (g1, g2)]
    tests = enumerate_tests(g0, 3, bare=True)
    compared = []
    original = EventStructure.__eq__

    def counted(self, other):
        if self is not other:
            compared.append((self, other))
        return original(self, other)

    monkeypatch.setattr(EventStructure, "__eq__", counted)
    for t in tests:
        for sub in subjects:
            for run in (must_pass, may_pass):
                run(sub, t)
    assert [sum(1 for pair in compared if any(es is g.es for es in pair))
            for g in (g1, g2)] == [1, 1]


def test_a_run_checks_its_arguments_in_order():
    relay, press_c, probe = fx.relay_b2_to_c(), fx.press_c(), fx.tick2_probe()
    stopping_test = stop_of(probe)
    off_target = fx.press_b2()  # into the buttons, not the success game
    cases = [
        (relay, stopping_test, BadArgument,
         "a test is a bare strategy into the success game, not"
         " StoppingStrategy", {"test": stopping_test}),
        (relay, off_target, GameMismatch,
         "test subjects play in a single game", {"left": relay.A}),
        (press_c, off_target, GameMismatch,
         "a test must target the success game", {"right": off_target.B}),
        (press_c, probe, GameMismatch, "subject and test play different games",
         {"left": press_c.B, "right": probe.A}),
    ]
    for runner in (may_pass, must_pass):
        for subject, test, error, text, data in cases:
            with pytest.raises(error) as err:
                runner(subject, test)
            assert str(err.value) == text and err.value.data == data


def test_a_subject_that_met_one_game_refuses_another():
    subject, probe = fx.press_b2(), fx.tick2_probe()
    other = enumerate_tests(fx.click(), 2)[0]
    for runner in (may_pass, must_pass):
        verdict = runner(subject, probe)
        with pytest.raises(GameMismatch) as err:
            runner(subject, other)
        assert err.value.data == {"left": subject.B, "right": other.A}
        assert runner(subject, probe) == verdict


def test_a_test_into_a_success_game_built_apart_runs_alike():
    tick = game(event_structure([TICK]), {TICK: PLUS})
    assert tick == success_game() and tick is not success_game()
    subjects = [fx.press_b2(), fx.press_either(), saturate_stopping(fx.press_b2())]
    for t in enumerate_tests(fx.buttons(), 2, bare=True):
        apart = bare_strategy(t.source, t.A, t.N, tick, t.sigma.mapping)
        for sub in subjects:
            assert may_pass(sub, apart) == may_pass(sub, t)
            assert must_pass(sub, apart) == must_pass(sub, t)


def test_preorders_and_synthesis_refuse_what_is_not_over_their_game():
    with pytest.raises(GameMismatch) as err:
        may_preorder(fx.press_b2(), fx.press_c())
    assert err.value.data == {"left": (EMPTY, fx.buttons()),
                              "right": (EMPTY, fx.click())}
    with pytest.raises(NotAGap) as err:
        synthesize_may_test(fx.press_b2(), (fs(), ((3, "nope"),)))
    assert err.value.data == {"event": "nope"}


def test_both_runners_refuse_a_stopping_test_with_a_typed_error():
    test = stop_of(fx.tick2_probe())
    for runner in (may_pass, must_pass):
        with pytest.raises(BadArgument) as err:
            runner(fx.press_either(), test)
        assert err.value.data == {"test": test}


def test_a_stopping_strategy_over_a_bare_one_is_read_through_its_visible_part():
    # the interaction keeps the middle game's moves as neutral events; the
    # composition hides them. Both pass the same tests, so neither preorder
    # may find a gap, let alone one holding a hidden move
    a, b = stop_of(fx.press_b2()), stop_of(fx.relay_b2_to_c())
    ist, cst = interact_stopping(a, b), compose_stopping(a, b)
    assert not ist.strat.is_strategy and cst.visible is cst
    assert ist.visible is ist.visible
    assert ist.visible.strat is ist.strat.visible
    assert ist.visible.stopping == cst.stopping
    tests = enumerate_tests(ist.strat.B, 3, bare=True)
    assert len(tests) == 28
    for t in tests:
        # the witnesses too: a run pairs the visible configurations
        assert may_pass(ist, t) == may_pass(cst, t)
        assert must_pass(ist, t) == must_pass(cst, t)
    for preorder in (may_preorder, must_preorder):
        assert preorder(ist, cst) == preorder(cst, ist) == (True, None)
    assert stopping_traces(ist) == stopping_traces(cst) == {((3, "c"),)}
