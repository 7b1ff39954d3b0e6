"""Strategy validation, visible parts, stopping data, and 2-cells."""

import gc
import random
import weakref

import pytest

from esgames import fixtures as fx
from esgames import strategies
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
    NEUTRAL,
    PLUS,
    Polarised,
    game,
    is_race_free,
    parallel,
    plus_maximal_configs,
    slice_config,
)
from esgames.interaction import compose_stopping, interact_stopping
from esgames.limits import DEFAULT_LIMITS, EngineLimits
from esgames.randgen import random_bare
from esgames.rigid import lint_stopping, rigid_image, rigid_image_stopping
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
    must_pass,
    stopping_traces,
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
    vis = visible_part(st)
    assert vis.source.events == st.source.events
    assert vis.sigma.mapping == st.sigma.mapping
    assert fs("t2", "t3") & vis.source.events == fs("t2", "t3")


def test_visible_part_hides_neutrals():
    vis = visible_part(fx.shot_after_step())
    assert vis.source.events == fs("s")
    assert fs("n", "s") & vis.source.events == fs("s")
    assert validate_bare_strategy(vis) == []

    vis3 = visible_part(fx.shot_or_stall())
    assert vis3.source.events == fs("s")
    assert fs("m") & vis3.source.events == fs()


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
    vis_src = visible_part(src).source.events
    vis_dst = visible_part(dst).source.events
    for x in src.source.configurations():
        img = frozenset(f[e] for e in x)
        assert fv.image(x & vis_src) == img & vis_dst


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


def bare_and_stopping():
    return fx.press_b2(), stop_of(fx.relay_b2_to_c())


@pytest.mark.parametrize("call, text", [
    (lambda bs, st: interact_stopping(bs, st),
     "interact_stopping expects a stopping strategy, not BareStrategy"),
    (lambda bs, st: compose_stopping(bs, st),
     "compose_stopping expects a stopping strategy, not BareStrategy"),
    (lambda bs, st: rigid_image_stopping(bs),
     "rigid_image_stopping expects a stopping strategy, not BareStrategy"),
    (lambda bs, st: lint_stopping(bs),
     "lint_stopping expects a stopping strategy, not BareStrategy"),
    (lambda bs, st: stopping_traces(bs),
     "stopping_traces expects a stopping strategy, not BareStrategy"),
    (lambda bs, st: stop_of(st),
     "stop_of expects a bare strategy, not StoppingStrategy"),
    (lambda bs, st: saturate_stopping(st),
     "saturate_stopping expects a neutral-free strategy"),
    (lambda bs, st: rigid_image(st),
     "rigid_image expects a neutral-free strategy"),
], ids=["interact_stopping", "compose_stopping", "rigid_image_stopping",
        "lint_stopping", "stopping_traces", "stop_of", "saturate_stopping",
        "rigid_image"])
def test_a_strategy_of_the_wrong_kind_is_a_typed_error(call, text):
    with pytest.raises(BadArgument) as err:
        call(*bare_and_stopping())
    assert str(err.value) == text


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
    original = EventStructure.configuration_graph

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    # the fixtures are cached: build them before counting starts
    fixtures = (fx.shot_or_stall(), fx.relay_b2_to_c(), fx.lamp_choice())
    monkeypatch.setattr(EventStructure, "configuration_graph", counted)
    for made in fixtures:
        bs = BareStrategy(made.source, made.A, made.N, made.B,
                          made.sigma.mapping)
        assert validate_bare_strategy(bs) == []
        stop_of(bs)
        bs.configurations_by_image()
        assert [es for es in calls if es is bs.source.es] == [bs.source.es]
        calls.clear()


def test_validation_and_stop_of_find_each_extension_once(monkeypatch):
    calls = []
    original = EventStructure.extensions

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    # the fixtures are cached: build them before counting starts
    fixtures = (fx.shot_or_stall(), fx.relay_b2_to_c(), fx.lamp_choice(),
                fx.ladder_two_stalls())
    monkeypatch.setattr(EventStructure, "extensions", counted)
    counts, once_each = [], []
    for made in fixtures:
        bs = _fresh(made)
        assert validate_bare_strategy(bs) == []
        stop_of(bs)
        counts.append(len(calls))
        once_each.append(sorted(calls, key=bs.source.es.config_key)
                         == list(bs.configurations()))
        calls.clear()
    # one call per configuration: a second derivation would double these
    assert counts == [4, 6, 3, 17]
    assert all(once_each)


def test_plus_reflection_enumerates_each_side_once(monkeypatch):
    small, big = fx.press_b2(), fx.press_either()
    calls = []
    original = EventStructure.configuration_graph

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    monkeypatch.setattr(EventStructure, "configuration_graph", counted)
    diags = validate_two_cell({"s": "s2"}, small, big, "plus_reflecting")
    assert any(isinstance(d, NotPlusReflecting) for d in diags)
    for side in (small, big):
        assert len([es for es in calls if es is side.source.es]) <= 1


def test_two_cells_read_the_kept_source_configurations(monkeypatch):
    calls = []
    original = EventStructure.configuration_graph

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    # the fixtures are cached: build them, and their kept configurations,
    # before counting starts
    small, big = fx.press_b2(), fx.press_either()
    small.configurations(), big.configurations()
    monkeypatch.setattr(EventStructure, "configuration_graph", counted)
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


def test_a_test_s_ticking_runs_are_read_through_the_root():
    # a bare test's visible part is built with nothing derived on it
    vis = _fresh(fx.neutral_probe()).visible
    runs = vis.ticking_runs()
    assert [y for _, y, _ in runs] == [frozenset({"tick"}),
                                       frozenset({"u", "tick"})]
    assert vis.ticking_runs() is runs


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
    runs, m = test.ticking_runs(), len(test.configurations())
    assert n == len(traces) == 3 and verdict and m == 2
    for count, read in ((n, subject.configurations),
                        (n, subject.configurations_by_image),
                        (n, lambda limits: stop_of(subject, limits)),
                        (n, lambda limits: finite_traces(subject, limits)),
                        (n, lambda limits: may_pass(subject, test, limits)),
                        (n, lambda limits: must_pass(subject, test, limits)),
                        (m, test.ticking_runs)):
        with pytest.raises(SizeBoundExceeded) as e:
            read(EngineLimits(max_configs=count - 1))
        assert e.value.data == {"cap": count - 1}
    at = EngineLimits(max_configs=n)
    assert subject.configurations(at) is configs
    assert subject.configurations_by_image(at) is by_image
    assert stop_of(subject, at) is st
    assert finite_traces(subject, at) == traces
    assert may_pass(subject, test, at) == verdict
    assert test.ticking_runs(EngineLimits(max_configs=m)) is runs


def test_strategy_level_reads_do_not_enumerate_the_source_again(monkeypatch):
    calls = []
    original = EventStructure.configuration_graph

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    # the fixtures are cached: build them before counting starts
    wider, probe = fx.press_either(), fx.tick2_probe()
    monkeypatch.setattr(EventStructure, "configuration_graph", counted)
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


def test_a_smaller_cap_on_a_later_read_raises_without_enumerating(
        monkeypatch):
    calls = []
    original = EventStructure.configuration_graph

    def counted(self, limits=DEFAULT_LIMITS):
        calls.append(self)
        return original(self, limits)

    subject = in_game_strategy(
        Polarised(event_structure(["r1", "r2"]), {"r1": PLUS, "r2": PLUS}),
        fx.buttons(), {"r1": "b1", "r2": "b2"})
    n = len(subject.configurations())
    monkeypatch.setattr(EventStructure, "configuration_graph", counted)
    with pytest.raises(SizeBoundExceeded) as e:
        subject.configurations(EngineLimits(max_configs=n - 1))
    assert e.value.data == {"cap": n - 1}
    assert str(e.value) == f"more than {n - 1} configurations"
    assert calls == []


def test_bare_strategy_needs_a_neutral_middle_and_a_total_assignment():
    g = fx.one_shot()
    src = Polarised(event_structure(["s"]), {"s": PLUS})
    diags = validate_bare_strategy(BareStrategy(src, EMPTY, g, g, {"s": (3, "p")}))
    assert [(type(d), d.data) for d in diags] == [(PolarityMismatch, {})]
    two = Polarised(event_structure(["s", "t"]), {"s": PLUS, "t": PLUS})
    diags = validate_bare_strategy(
        BareStrategy(two, EMPTY, EMPTY, g, {"s": (3, "p")}))
    assert [(type(d), d.data) for d in diags] == [(MapNotTotal, {"events": ("t",)})]


def test_bare_strategy_endpoints_must_be_games():
    neutral = Polarised(event_structure(["u"]), {"u": NEUTRAL})
    src = Polarised(event_structure(["n"]), {"n": NEUTRAL})
    with pytest.raises(InvalidStructure) as exc:
        strategy(src, EMPTY, neutral, {"n": (3, "u")})
    assert [(type(d), d.data) for d in exc.value.diagnostics] == [
        (PolarityMismatch, {"neutrals": fs("u")})]
    diags = validate_bare_strategy(
        BareStrategy(src, neutral, EMPTY, EMPTY, {"n": (1, "u")}))
    assert [(type(d), str(d)) for d in diags] == [
        (PolarityMismatch, "A must be a game without neutral events")]


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


def test_strategies_over_equal_games_share_one_target_while_one_holds_it():
    def built(name):
        # a game no other test plays, built anew under each name
        g = game(event_structure(["shared"]), {"shared": PLUS}, name=name)
        src = Polarised(event_structure(["s"]), {"s": PLUS})
        return in_game_strategy(src, g, {"s": "shared"}, name=name)

    one, two = built("one"), built("two")
    assert one.B == two.B and one.B is not two.B
    assert one.target is two.target
    assert one.sigma.dst is one.target.es and two.sigma.dst is two.target.es
    target = weakref.ref(one.target)
    del one, two
    gc.collect()
    assert target() is None


def test_a_random_draw_builds_its_target_once(monkeypatch):
    # the draw holds dual(A) || N || B while it validates, so validation
    # reads the target the candidates were drawn over
    built = []

    def counting(*parts):
        built.append(parts)
        return parallel(*parts)

    monkeypatch.setattr(strategies, "parallel", counting)
    rng = random.Random(7)
    for i in range(20):
        # games no other test plays, each of another value
        moves = [f"fresh{i}", f"fresh{i}b"]
        g = game(event_structure(moves), {moves[0]: PLUS, moves[1]: MINUS})
        random_bare(rng, EMPTY, g)
    assert len(built) == 20
