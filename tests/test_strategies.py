"""Strategy validation, visible parts, stopping data, and 2-cells."""

import pytest

from esgames import fixtures as fx
from esgames.errors import (
    BadArgument,
    GameMismatch,
    InvalidStructure,
    MapNotTotal,
    MinusInnocenceViolation,
    NotAConfiguration,
    NotEpi,
    NotPlusReflecting,
    NotReceptive,
    NotRigid,
    PlusInnocenceViolation,
    PolarityMismatch,
    SizeBoundExceeded,
    StoppingNotPreserved,
    TriangleBroken,
)
from esgames.games import (
    EMPTY,
    MINUS,
    PLUS,
    Polarised,
    game,
    is_race_free,
    plus_maximal_configs,
    slice_config,
)
from esgames.limits import DEFAULT_LIMITS, EngineLimits
from esgames.strategies import (
    BareStrategy,
    StoppingStrategy,
    copycat_strategy,
    in_game_strategy,
    saturate_stopping,
    stop_of,
    strategy,
    two_cell_visible,
    validate_bare_strategy,
    validate_two_cell,
    visible_part,
)
from esgames.structures import EventStructure, event_structure
from esgames.testing import (
    TICK,
    finite_traces,
    may_pass,
    may_preorder,
    success_game,
    synthesize_may_test,
)


def fs(*xs):
    return frozenset(xs)


def test_relay_is_valid():
    st = fx.relay_b2_to_c()
    assert validate_bare_strategy(st) == []
    assert st.is_strategy


def test_empty_source_must_cover_opponent_moves():
    g = game(event_structure(["m"]), {"m": MINUS})
    src = Polarised(event_structure([]), {})
    cand = BareStrategy(src, EMPTY, EMPTY, g, {})
    diags = validate_bare_strategy(cand)
    assert any(isinstance(d, NotReceptive) for d in diags)
    with pytest.raises(InvalidStructure):
        in_game_strategy(src, g, {})


def test_plus_innocence_violation():
    # two Player moves ordered at the source but concurrent in the game
    g = fx.buttons()
    src = Polarised(event_structure(["s1", "s2"], causes=[("s1", "s2")]),
                    {"s1": PLUS, "s2": PLUS})
    cand = BareStrategy(src, EMPTY, EMPTY, g,
                        {"s1": (3, "b1"), "s2": (3, "b2")})
    diags = validate_bare_strategy(cand)
    assert any(isinstance(d, PlusInnocenceViolation) for d in diags)


def test_minus_innocence_violation():
    # delaying an Opponent move behind a Player move is not allowed
    g = game(event_structure(["p", "m"]), {"p": PLUS, "m": MINUS})
    src = Polarised(event_structure(["s", "t"], causes=[("s", "t")]),
                    {"s": PLUS, "t": MINUS})
    cand = BareStrategy(src, EMPTY, EMPTY, g, {"s": (3, "p"), "t": (3, "m")})
    diags = validate_bare_strategy(cand)
    assert any(isinstance(d, MinusInnocenceViolation) for d in diags)


def test_polarity_must_be_preserved():
    g = fx.click()
    src = Polarised(event_structure(["s"]), {"s": MINUS})
    cand = BareStrategy(src, EMPTY, EMPTY, g, {"s": (3, "c")})
    diags = validate_bare_strategy(cand)
    assert any(isinstance(d, PolarityMismatch) for d in diags)


def test_await_edges_are_unconstrained():
    # Opponent before Player at the source needs no game-side edge
    assert validate_bare_strategy(fx.relay_b2_to_c()) == []


def test_receptivity_needs_unique_lifting():
    # two source events for the same Opponent move, both available at once
    g = game(event_structure(["m"]), {"m": MINUS})
    src = Polarised(event_structure(["r1", "r2"], conflicts=[("r1", "r2")]),
                    {"r1": MINUS, "r2": MINUS})
    cand = BareStrategy(src, EMPTY, EMPTY, g, {"r1": (3, "m"), "r2": (3, "m")})
    diags = validate_bare_strategy(cand)
    assert any(isinstance(d, NotReceptive) and d.data.get("count") == 2
               for d in diags)


def test_bare_trio_is_valid():
    for bs in (fx.shot_now(), fx.shot_after_step(), fx.shot_or_stall()):
        assert validate_bare_strategy(bs) == []
    assert not fx.shot_after_step().is_strategy


def test_visible_part_of_pure_strategy_is_itself():
    st = fx.relay_b2_to_c()
    vis, p, down = visible_part(st)
    assert vis.source.events == st.source.events
    assert vis.sigma.mapping == st.sigma.mapping
    assert down(fs("t2", "t3")) == fs("t2", "t3")


def test_visible_part_hides_neutrals():
    vis, p, down = visible_part(fx.shot_after_step())
    assert vis.source.events == fs("s")
    assert down(fs("n", "s")) == fs("s")
    assert validate_bare_strategy(vis) == []

    vis3, _, down3 = visible_part(fx.shot_or_stall())
    assert vis3.source.events == fs("s")
    assert down3(fs("m")) == fs()


def test_stop_of_trio():
    assert stop_of(fx.shot_now()).stopping == fs(fs("s"))
    assert stop_of(fx.shot_after_step()).stopping == fs(fs("s"))
    # the stalling branch contributes the empty stopping configuration
    assert stop_of(fx.shot_or_stall()).stopping == fs(fs(), fs("s"))


def test_stop_of_ladder_pair():
    s1 = stop_of(fx.ladder_one_stall())
    images = {frozenset(slice_config(s1.strat.image(x), 3))
              for x in s1.stopping}
    assert images == {fs("a"), fs("a", "b"), fs("a", "b", "c"),
                      fs("a", "b", "c", "d", "e")}

    # the second stall adds the run that stops right after d
    s2 = stop_of(fx.ladder_two_stalls())
    images2 = {frozenset(slice_config(s2.strat.image(x), 3))
               for x in s2.stopping}
    assert images2 == images | {fs("a", "b", "c", "d")}


def test_stop_of_lamp_trio_images_agree():
    stops = [stop_of(bs) for bs in (fx.lamp_choice(), fx.lamp_choice_staged(),
                                    fx.lamp_choice_biased())]
    for st in stops:
        assert st.stopping == fs(fs("a"), fs("b"))
        assert st.strat.source.events == fs("a", "b")
        assert not st.strat.source.es.is_consistent({"a", "b"})


def test_stop_of_is_kept_per_limits_so_a_smaller_cap_still_raises():
    bs = fx.shot_or_stall()
    assert stop_of(bs) is stop_of(bs)
    with pytest.raises(SizeBoundExceeded) as e:
        stop_of(bs, EngineLimits(max_configs=1))
    assert e.value.data == {"cap": 1}


def test_saturate_stopping():
    assert saturate_stopping(fx.press_either()).stopping == fs(fs("s1"), fs("s2"))
    assert saturate_stopping(fx.idle(fx.click())).stopping == fs(fs())


def test_saturate_equals_stop_of_on_pure():
    st = fx.relay_b2_to_c()
    assert saturate_stopping(st).stopping == stop_of(st).stopping


def test_stopping_members_must_be_configurations():
    with pytest.raises(InvalidStructure) as exc:
        StoppingStrategy(fx.press_either(), {fs("s1", "s2")})
    assert any(isinstance(d, NotAConfiguration) for d in exc.value.diagnostics)


def test_copycat_strategy_stopping_is_diagonal():
    g = fx.buttons()
    cc = copycat_strategy(g)
    assert validate_bare_strategy(cc) == []
    assert is_race_free(g)[0]
    sat = saturate_stopping(cc)
    want = {frozenset({(1, e) for e in x} | {(2, e) for e in x})
            for x in g.configurations()}
    assert sat.stopping == frozenset(want)


def test_plus_maximal_configs_of_test_shape():
    t = Polarised(event_structure(["t1", "t2", "tk"], causes=[("t2", "tk")]),
                  {"t1": MINUS, "t2": MINUS, "tk": PLUS})
    assert set(plus_maximal_configs(t)) == {
        fs(), fs("t1"), fs("t2", "tk"), fs("t1", "t2", "tk")}


# ---- 2-cells ----------------------------------------------------------------------


def test_identity_two_cell_all_kinds():
    st = fx.relay_b2_to_c()
    ident = {e: e for e in st.source.events}
    for kind in ("plain", "plus_reflecting", "rigid_epi"):
        assert validate_two_cell(ident, st, st, kind) == []
    stv = saturate_stopping(st)
    assert validate_two_cell(ident, stv, stv, "stopping") == []


def test_triangle_must_commute():
    diags = validate_two_cell({"s": "s"}, fx.press_b1(), fx.press_b2())
    assert any(type(d).__name__ == "TriangleBroken" for d in diags)


def test_inclusion_stopping_two_cell():
    empty = fx.idle(fx.click())
    full = fx.press_c()
    inc = {}
    s_empty = StoppingStrategy(empty, {fs()})
    s_full = StoppingStrategy(full, {fs(), fs("s")})
    assert validate_two_cell(inc, s_empty, s_full, "stopping") == []

    # dropping the empty set from the target breaks preservation
    s_strict = StoppingStrategy(full, {fs("s")})
    diags = validate_two_cell(inc, s_empty, s_strict, "stopping")
    assert any(isinstance(d, StoppingNotPreserved) for d in diags)


def test_merge_is_rigid_epi():
    merge = {"x1": "s", "x2": "s"}
    assert validate_two_cell(merge, fx.double_press_c(), fx.press_c(),
                             "rigid_epi") == []
    # the reverse inclusion misses an event, so it is not epi
    inc = {"s": "x1"}
    diags = validate_two_cell(inc, fx.press_c(), fx.double_press_c(),
                              "rigid_epi")
    assert any(isinstance(d, NotEpi) for d in diags)


def test_plus_reflection_failure():
    # including the b2 presser into the either presser does not reflect s1
    inc = {"s": "s2"}
    assert validate_two_cell(inc, fx.press_b2(), fx.press_either()) == []
    diags = validate_two_cell(inc, fx.press_b2(), fx.press_either(),
                              "plus_reflecting")
    assert any(isinstance(d, NotPlusReflecting) for d in diags)


def test_two_cell_visible_functoriality():
    # merge the stalling branch away: map the three-event source onto the
    # two-event one, then compare visible restrictions
    f = {"m": "n", "n": "n", "s": "s"}
    src, dst = fx.shot_or_stall(), fx.shot_after_step()
    assert validate_two_cell(f, src, dst) == []
    fv = two_cell_visible(f, src, dst)
    assert fv.mapping == {"s": "s"}
    _, _, down_src = visible_part(src)
    _, _, down_dst = visible_part(dst)
    for x in src.source.configurations():
        img = frozenset(f[e] for e in x)
        assert fv.image(down_src(x)) == down_dst(img)


def test_receptivity_is_reported_one_opponent_move_at_a_time():
    # m1 is covered, the concurrent m2 never is: each diagnostic names the
    # image grown by the single Opponent move that fails to lift
    g = game(event_structure(["m1", "m2"]), {"m1": MINUS, "m2": MINUS})
    src = Polarised(event_structure(["r1"]), {"r1": MINUS})
    cand = BareStrategy(src, EMPTY, EMPTY, g, {"r1": (3, "m1")})
    diags = [d for d in validate_bare_strategy(cand)
             if isinstance(d, NotReceptive)]
    assert {(d.data["x"], d.data["y"]) for d in diags} == {
        (fs(), fs((3, "m2"))),
        (fs("r1"), fs((3, "m1"), (3, "m2"))),
    }
    for d in diags:
        assert d.data["count"] == 0
        assert cand.image(d.data["x"]) < d.data["y"]
        assert len(d.data["y"] - cand.image(d.data["x"])) == 1


def test_saturate_stopping_refuses_bare_strategies():
    with pytest.raises(BadArgument):
        saturate_stopping(fx.shot_after_step())


def test_two_cell_kind_and_stopping_endpoints_are_checked():
    f = {"s": "s2"}
    small, big = fx.press_b2(), fx.press_either()
    with pytest.raises(BadArgument):
        validate_two_cell(f, small, big, kind="lax")
    with pytest.raises(BadArgument):
        validate_two_cell(f, small, big, kind="stopping")
    with pytest.raises(BadArgument):
        validate_two_cell(f, saturate_stopping(small), big, kind="stopping")
    assert validate_two_cell(f, saturate_stopping(small),
                             saturate_stopping(big), kind="stopping") == []


def test_validation_enumerates_the_source_once(monkeypatch):
    calls = []
    original = EventStructure.configurations

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    # the fixtures are cached: build them before counting starts
    fixtures = (fx.shot_or_stall(), fx.relay_b2_to_c(), fx.lamp_choice())
    monkeypatch.setattr(EventStructure, "configurations", counted)
    for made in fixtures:
        bs = BareStrategy(made.source, made.A, made.N, made.B,
                          made.sigma.mapping)
        assert validate_bare_strategy(bs) == []
        stop_of(bs)
        bs.configurations_by_image()
        assert [es for es in calls if es is bs.source.es] == [bs.source.es]
        calls.clear()


def test_plus_reflection_enumerates_each_side_once(monkeypatch):
    small, big = fx.press_b2(), fx.press_either()
    calls = []
    original = EventStructure.configurations

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    monkeypatch.setattr(EventStructure, "configurations", counted)
    diags = validate_two_cell({"s": "s2"}, small, big, "plus_reflecting")
    assert any(isinstance(d, NotPlusReflecting) for d in diags)
    for side in (small, big):
        assert len([es for es in calls if es is side.source.es]) <= 1


def test_two_cells_read_the_kept_source_configurations(monkeypatch):
    calls = []
    original = EventStructure.configurations

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    # the fixtures are cached: build them, and their kept configurations,
    # before counting starts
    small, big = fx.press_b2(), fx.press_either()
    small.configurations(), big.configurations()
    monkeypatch.setattr(EventStructure, "configurations", counted)
    for kind in ("plain", "plus_reflecting", "rigid_epi"):
        validate_two_cell({"s": "s2"}, small, big, kind)
        assert [es for es in calls if es is small.source.es] == [], kind


def _fresh(made):
    """A copy of a cached fixture, with nothing derived on it yet."""
    return BareStrategy(made.source, made.A, made.N, made.B, made.sigma.mapping)


def test_stop_of_takes_the_visible_part_which_is_a_strategy_itself():
    s = _fresh(fx.press_either())
    assert s.visible is s
    assert stop_of(s).strat is s
    b = _fresh(fx.shot_or_stall())
    assert b.visible is not b and b.visible.is_strategy
    assert stop_of(b).strat is b.visible


def test_a_smaller_cap_on_a_later_read_raises_and_the_count_reads_the_kept():
    # either of two conflicting Opponent moves: three configurations, one
    # trace each, met by a test that succeeds at once, with two of its own
    g = game(event_structure(["m1", "m2"], conflicts=[("m1", "m2")]),
             {"m1": MINUS, "m2": MINUS})
    subject = in_game_strategy(
        Polarised(event_structure(["r1", "r2"], conflicts=[("r1", "r2")]),
                  {"r1": MINUS, "r2": MINUS}), g, {"r1": "m1", "r2": "m2"})
    test = strategy(Polarised(event_structure([TICK]), {TICK: PLUS}), g,
                    success_game(), {TICK: (3, TICK)})
    configs = subject.configurations()
    n = len(configs)
    by_image, st = subject.configurations_by_image(), stop_of(subject)
    traces, verdict = finite_traces(subject), may_pass(subject, test)
    assert n == len(traces) == 3 and verdict
    for read in (subject.configurations, subject.configurations_by_image,
                 lambda limits: stop_of(subject, limits),
                 lambda limits: finite_traces(subject, limits),
                 lambda limits: may_pass(subject, test, limits)):
        with pytest.raises(SizeBoundExceeded) as e:
            read(EngineLimits(max_configs=n - 1))
        assert e.value.data == {"cap": n - 1}
    at = EngineLimits(max_configs=n)
    assert subject.configurations(at) is configs
    assert subject.configurations_by_image(at) is by_image
    assert stop_of(subject, at) is st
    assert finite_traces(subject, at) == traces
    assert may_pass(subject, test, at) == verdict


def test_strategy_level_reads_do_not_enumerate_the_source_again(monkeypatch):
    calls = []
    original = EventStructure.configurations

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    # the fixtures are cached: build them before counting starts
    wider, probe = fx.press_either(), fx.tick2_probe()
    monkeypatch.setattr(EventStructure, "configurations", counted)
    subject = in_game_strategy(Polarised(event_structure(["s"]), {"s": PLUS}),
                               fx.buttons(), {"s": "b2"})
    assert [es for es in calls if es is subject.source.es] == [subject.source.es]
    calls.clear()
    stop_of(subject)
    subject.configurations_by_image()
    finite_traces(subject)
    holds, gap = may_preorder(wider, subject)
    assert not holds
    synthesize_may_test(subject, gap)
    saturate_stopping(subject)
    may_pass(subject, probe)
    assert [es for es in calls if es is subject.source.es] == []


def test_bare_strategy_needs_a_neutral_middle_and_a_total_assignment():
    g = fx.one_shot()
    src = Polarised(event_structure(["s"]), {"s": PLUS})
    diags = validate_bare_strategy(BareStrategy(src, EMPTY, g, g, {"s": (3, "p")}))
    assert [(type(d), d.data) for d in diags] == [(PolarityMismatch, {})]
    two = Polarised(event_structure(["s", "t"]), {"s": PLUS, "t": PLUS})
    diags = validate_bare_strategy(
        BareStrategy(two, EMPTY, EMPTY, g, {"s": (3, "p")}))
    assert [(type(d), d.data) for d in diags] == [(MapNotTotal, {"events": ("t",)})]


def test_two_cell_diagnostics_name_what_breaks():
    b2, c = fx.press_b2(), fx.press_c()
    assert [(type(d), d.data) for d in validate_two_cell({"s": "s"}, b2, c)] \
        == [(GameMismatch, {})]
    assert [(type(d), d.data)
            for d in validate_two_cell({}, b2, fx.press_either())] \
        == [(MapNotTotal, {"events": ("s",)})]
    # the Opponent move t1 sent onto the Player move t3
    relay = fx.relay_b2_to_c()
    diags = validate_two_cell({"t1": "t3", "t2": "t2", "t3": "t3"}, relay, relay)
    assert [(type(d), d.data) for d in diags
            if isinstance(d, (PolarityMismatch, TriangleBroken))] == [
        (PolarityMismatch, {"event": "t1"}), (TriangleBroken, {"event": "t1"})]


def test_a_two_cell_that_drops_a_cause_is_not_rigid():
    g = game(event_structure(["m", "p"]), {"m": MINUS, "p": PLUS})
    pol = {"m": MINUS, "s": PLUS}
    waits = in_game_strategy(
        Polarised(event_structure(["m", "s"], causes=[("m", "s")]), pol),
        g, {"m": "m", "s": "p"})
    eager = in_game_strategy(Polarised(event_structure(["m", "s"]), pol),
                             g, {"m": "m", "s": "p"})
    f = {"m": "m", "s": "s"}
    assert validate_two_cell(f, waits, eager) == []
    assert [(type(d), d.data)
            for d in validate_two_cell(f, waits, eager, kind="rigid_epi")] \
        == [(NotRigid, {})]
