"""Secured bijections, pullbacks, interaction, composition, stopping liftings."""

import sys

import pytest

from esgames import fixtures as fx
from esgames import games, strategies
from esgames.errors import (Cycle, EndpointMismatch, ImageMismatch,
                            MapNotTotal, MiddleGameMismatch, NotRaceFree,
                            SizeBoundExceeded)
from esgames.games import (
    EMPTY,
    MINUS,
    NEUTRAL,
    PLUS,
    Polarised,
    component,
    game,
    is_plus_maximal,
    neutralise,
    payload,
)
from esgames.interaction import (
    compose,
    compose_stopping,
    enumerate_secured_bijections,
    interact,
    interact_stopping,
    pair_configs,
    prime_pairs,
    prime_top,
    pullback,
    secured_bijection,
    transport_two_cell,
)
from esgames.limits import EngineLimits
from esgames.strategies import (
    copycat_strategy,
    saturate_stopping,
    stop_of,
    strategy,
    validate_bare_strategy,
    visible_part,
)
from esgames.structures import ESMap, event_structure, find_isomorphism


def fs(*xs):
    return frozenset(xs)


def tops(cfg):
    """Readable view of a prime configuration: the top pairs."""
    return {prime_top(p) for p in cfg}


# ---- secured bijections --------------------------------------------------------


def test_empty_bijection():
    g = fx.buttons()
    ident = ESMap(g.es, g.es, {e: e for e in g.events})
    th = secured_bijection(ident, ident, fs(), fs())
    assert th.pairs == fs()


def test_image_mismatch():
    g = fx.buttons()
    ident = ESMap(g.es, g.es, {e: e for e in g.events})
    with pytest.raises(ImageMismatch):
        secured_bijection(ident, ident, fs("b1"), fs("b2"))


def test_deadlock_cycle():
    resp = fx.responder().source.es     # r < s over req, ack
    dem = fx.demander().source.es       # x < y over ack, req
    d = fx.handshake().es
    f = ESMap(resp, d, {"r": "req", "s": "ack"})
    g = ESMap(dem, d, {"x": "ack", "y": "req"})
    with pytest.raises(Cycle):
        secured_bijection(f, g, fs("r", "s"), fs("x", "y"))


def test_single_pair_secured():
    sor = fx.press_either()
    rel = fx.relay_b2_to_c()
    b = fx.buttons().es
    f = ESMap(sor.source.es, b, {"s1": "b1", "s2": "b2"})
    g = ESMap(rel.source.es, b, {"t1": "b1", "t2": "b2", "t3": "b2"})
    th = secured_bijection(f, g, fs("s1"), fs("t1"))
    assert th.pairs == fs(("s1", "t1"))


# ---- pullback -------------------------------------------------------------------


def test_pullback_of_identities():
    g = fx.buttons()
    ident = ESMap(g.es, g.es, {e: e for e in g.events})
    p, pi1, pi2 = pullback(ident, ident)
    assert find_isomorphism(p, g.es) is not None
    for e in p.events:
        assert pi1.mapping[e] == pi2.mapping[e]


def test_pullback_of_deadlock_is_empty():
    resp = fx.responder().source.es
    dem = fx.demander().source.es
    d = fx.handshake().es
    f = ESMap(resp, d, {"r": "req", "s": "ack"})
    g = ESMap(dem, d, {"x": "ack", "y": "req"})
    p, _, _ = pullback(f, g)
    assert p.events == fs()
    assert enumerate_secured_bijections(f, g) == [fs()]


def test_pullback_primes_of_relay_against_chooser():
    sor = fx.press_either()
    rel = fx.relay_b2_to_c()
    b = fx.buttons().es
    f = ESMap(sor.source.es, b, {"s1": "b1", "s2": "b2"})
    g = ESMap(rel.source.es, b, {"t1": "b1", "t2": "b2", "t3": "b2"})
    # t3 maps into the c side really; restrict g to the common game image
    g = ESMap(rel.source.es.restrict({"t1", "t2"}), b,
              {"t1": "b1", "t2": "b2"})
    p, pi1, pi2 = pullback(f, g)
    assert len(p.events) == 2
    ps1 = next(e for e in p.events if prime_top(e) == ("s1", "t1"))
    ps2 = next(e for e in p.events if prime_top(e) == ("s2", "t2"))
    assert not p.is_consistent({ps1, ps2})
    assert pi1.mapping[ps1] == "s1" and pi2.mapping[ps1] == "t1"


# ---- interaction ---------------------------------------------------------------


def test_interact_relay_after_chooser():
    inter = interact(fx.press_either(), fx.relay_b2_to_c())
    assert len(inter.source.events) == 3
    by_top = {prime_top(p)[0]: p for p in inter.source.events}
    e1 = by_top[(1, "s1")]
    e2 = by_top[(1, "s2")]
    ec = by_top[(3, "c")]
    assert inter.source.pol[e1] == NEUTRAL
    assert inter.source.pol[e2] == NEUTRAL
    assert inter.source.pol[ec] == PLUS
    assert inter.source.es.leq(e2, ec)
    assert not inter.source.es.is_consistent({e1, e2})
    assert inter.assigned(e1) == (2, (2, "b1"))
    assert inter.assigned(ec) == (3, "c")
    # the construction yields a valid bare strategy
    assert validate_bare_strategy(inter) == []


def test_interact_relay_after_b2():
    inter = interact(fx.press_b2(), fx.relay_b2_to_c())
    assert len(inter.source.events) == 2
    kinds = sorted(component(inter.assigned(p)) for p in inter.source.events)
    assert kinds == [2, 3]
    pn = next(p for p in inter.source.events
              if component(inter.assigned(p)) == 2)
    pc = next(p for p in inter.source.events
              if component(inter.assigned(p)) == 3)
    assert inter.source.es.immediate_pairs() == fs((pn, pc))


def test_interact_requires_matching_middle():
    with pytest.raises(MiddleGameMismatch):
        interact(fx.press_c(), fx.relay_b2_to_c())


def test_compose_hides_the_synchronisations():
    for chooser in (fx.press_either(), fx.press_b2()):
        comp = compose(chooser, fx.relay_b2_to_c())
        assert comp.is_strategy
        assert len(comp.source.events) == 1
        (e,) = comp.source.events
        assert comp.assigned(e) == (3, "c")
        assert validate_bare_strategy(comp) == []


def test_compose_deadlock_is_empty_strategy():
    comp = compose(fx.responder(), fx.demander())
    assert comp.source.events == fs()
    inter = interact(fx.responder(), fx.demander())
    assert inter.source.events == fs()


def test_copycat_is_identity_for_composition():
    for st in (fx.press_either(), fx.press_b2(), fx.relay_b2_to_c()):
        ccb = copycat_strategy(st.B)
        left = compose(st, ccb)
        assert find_isomorphism(
            left.source.es, st.source.es,
            label1=left.sigma.mapping, label2=st.sigma.mapping) is not None
        cca = copycat_strategy(st.A)
        right = compose(cca, st)
        assert find_isomorphism(
            right.source.es, st.source.es,
            label1=right.sigma.mapping, label2=st.sigma.mapping) is not None


def test_composition_associative_on_fixtures():
    # relay the click on to a final move d
    gd = game(event_structure(["d"]), {"d": PLUS}, name="done")
    src = Polarised(event_structure(["r", "w"], causes=[("r", "w")]),
                    {"r": MINUS, "w": PLUS})
    relay2 = strategy(src, fx.click(), gd, {"r": (1, "c"), "w": (3, "d")},
                      name="relay-c-to-d")
    lhs = compose(compose(fx.press_either(), fx.relay_b2_to_c()), relay2)
    rhs = compose(fx.press_either(), compose(fx.relay_b2_to_c(), relay2))
    assert find_isomorphism(lhs.source.es, rhs.source.es,
                            label1=lhs.sigma.mapping,
                            label2=rhs.sigma.mapping) is not None


def test_hiding_commutes_with_interaction():
    # bare source: stall-or-shoot composed with a relay that reports the shot
    shot = fx.shot_or_stall()
    gp = fx.one_shot()
    gq = game(event_structure(["q"]), {"q": PLUS}, name="echo")
    src = Polarised(event_structure(["r", "w"], causes=[("r", "w")]),
                    {"r": MINUS, "w": PLUS})
    echo = strategy(src, gp, gq, {"r": (1, "p"), "w": (3, "q")}, name="echo")

    big = interact(shot, echo)
    lhs = visible_part(big)
    shot_vis = visible_part(shot)
    rhs = compose(shot_vis, echo)
    assert find_isomorphism(lhs.source.es, rhs.source.es,
                            label1=lhs.sigma.mapping,
                            label2=rhs.sigma.mapping) is not None


# ---- pair_configs ----------------------------------------------------------------


def test_pair_configs_worked_example():
    sor, rel = fx.press_either(), fx.relay_b2_to_c()
    got = pair_configs(sor, rel, fs("s2"), fs("t2", "t3"))
    assert got is not None
    inter_cfg, vis_cfg = got
    assert len(inter_cfg) == 2 and len(vis_cfg) == 1
    inter = interact(sor, rel)
    assert inter_cfg in set(inter.source.configurations())
    (ec,) = vis_cfg
    assert inter.assigned(ec) == (3, "c")

    assert pair_configs(sor, rel, fs("s1"), fs("t2", "t3")) is None
    empty = pair_configs(sor, rel, fs(), fs())
    assert empty == (fs(), fs())


def test_pair_configs_detects_deadlock():
    assert pair_configs(fx.responder(), fx.demander(),
                        fs("r", "s"), fs("x", "y")) is None


def test_every_interaction_config_is_a_pairing():
    sor, rel = fx.press_either(), fx.relay_b2_to_c()
    inter = interact(sor, rel)
    seen = set()
    for x in sor.source.configurations():
        for y in rel.source.configurations():
            got = pair_configs(sor, rel, x, y)
            if got is not None:
                seen.add(got[0])
    assert seen == set(inter.source.configurations())


def test_plus_maximal_pairings():
    sor, rel = fx.press_either(), fx.relay_b2_to_c()
    inter = interact(sor, rel)
    for x in sor.source.configurations():
        for y in rel.source.configurations():
            got = pair_configs(sor, rel, x, y)
            if got is None:
                continue
            both = (is_plus_maximal(sor.source, x)
                    and is_plus_maximal(rel.source, y))
            assert is_plus_maximal(inter.source, got[0]) == both


# ---- stopping liftings -------------------------------------------------------------


def test_compose_stopping_worked_examples():
    st_rel = saturate_stopping(fx.relay_b2_to_c())

    s_or = compose_stopping(saturate_stopping(fx.press_either()), st_rel)
    shapes = {frozenset(payload(s_or.strat.assigned(p)) for p in x)
              for x in s_or.stopping}
    assert shapes == {fs(), fs("c")}

    s_b2 = compose_stopping(saturate_stopping(fx.press_b2()), st_rel)
    shapes2 = {frozenset(payload(s_b2.strat.assigned(p)) for p in x)
               for x in s_b2.stopping}
    assert shapes2 == {fs("c")}


def test_interact_stopping_deadlock():
    s = saturate_stopping(fx.responder())
    t = saturate_stopping(fx.demander())
    assert interact_stopping(s, t).stopping == fs(fs())


def test_stopping_composition_needs_race_free_games():
    racy = game(event_structure(["p", "m"], conflicts=[("p", "m")]),
                {"p": PLUS, "m": MINUS}, name="racy")
    src = Polarised(event_structure(["u"]), {"u": MINUS})
    s = strategy(src, EMPTY, racy, {"u": (3, "m")}, name="into-racy")
    # receptive: only m must be covered; p is Player's and may be ignored
    t = copycat_strategy(racy)
    with pytest.raises(NotRaceFree):
        compose_stopping(saturate_stopping(s), saturate_stopping(t))


def test_st_commutes_with_composition_on_fixture():
    shot = fx.shot_or_stall()
    gp = fx.one_shot()
    gq = game(event_structure(["q"]), {"q": PLUS}, name="echo")
    src = Polarised(event_structure(["r", "w"], causes=[("r", "w")]),
                    {"r": MINUS, "w": PLUS})
    echo = strategy(src, gp, gq, {"r": (1, "p"), "w": (3, "q")}, name="echo")

    lhs = stop_of(interact(shot, echo))
    rhs = compose_stopping(stop_of(shot), saturate_stopping(echo))
    iso = find_isomorphism(lhs.strat.source.es, rhs.strat.source.es,
                           label1=lhs.strat.sigma.mapping,
                           label2=rhs.strat.sigma.mapping)
    assert iso is not None
    assert {frozenset(iso[e] for e in x) for x in lhs.stopping} == rhs.stopping


def test_two_cell_transport_pointwise():
    f = {"s": "s2"}                      # press_b2 into press_either
    g = {e: e for e in fx.relay_b2_to_c().source.events}
    small = interact(fx.press_b2(), fx.relay_b2_to_c())
    big = interact(fx.press_either(), fx.relay_b2_to_c())
    mapping, missing = transport_two_cell(f, g, small, big)
    assert missing == []
    for x in fx.press_b2().source.configurations():
        for y in fx.relay_b2_to_c().source.configurations():
            got = pair_configs(fx.press_b2(), fx.relay_b2_to_c(), x, y)
            if got is None:
                continue
            moved = pair_configs(fx.press_either(), fx.relay_b2_to_c(),
                                 frozenset(f[s] for s in x), y)
            assert moved is not None
            assert frozenset(mapping[p] for p in got[0]) == moved[0]


def test_pullback_needs_a_common_target():
    resp = fx.responder().source.es
    dem = fx.demander().source.es
    f = ESMap(resp, fx.handshake().es, {"r": "req", "s": "ack"})
    g = ESMap(dem, fx.buttons().es, {"x": "b1", "y": "b2"})
    with pytest.raises(EndpointMismatch):
        pullback(f, g)


def test_secured_bijection_entry_points_need_total_maps_into_one_target():
    g = event_structure(["a", "b"])
    ident = ESMap(g, g, {"a": "a", "b": "b"})
    partial = ESMap(g, g, {"a": "a"})
    other = ESMap(g, event_structure(["a", "b"]), {"a": "a", "b": "b"})
    elsewhere = ESMap(g, event_structure(["a", "b", "c"]),
                      {"a": "a", "b": "b"})
    entry_points = [lambda f, h: secured_bijection(f, h, fs("a"), fs("a")),
                    pullback, enumerate_secured_bijections]
    for run in entry_points:
        for f, h in ((ident, partial), (partial, ident)):
            with pytest.raises(MapNotTotal) as err:
                run(f, h)
            assert err.value.data["events"] == fs("b")
        with pytest.raises(EndpointMismatch):
            run(ident, elsewhere)
        # an equal target built apart is a common target
        assert run(ident, other) is not None
    off = ESMap(g, g, {"a": "a", "b": "b", "z": "a"})
    with pytest.raises(MapNotTotal) as err:
        pullback(ident, off)
    assert err.value.data == {"events": fs(), "unknown": fs("z")}


def test_pullback_counts_the_empty_bijection_against_its_cap():
    g = event_structure(["a"])
    ident = ESMap(g, g, {"a": "a"})
    with pytest.raises(SizeBoundExceeded) as err:
        pullback(ident, ident, EngineLimits(max_configs=0))
    assert err.value.data == {"cap": 0}


def test_the_stopping_liftings_check_races_under_the_callers_cap():
    # sigma plays nothing in B; tau answers either move of B. Their
    # interaction has one secured bijection, but B has four configurations,
    # and the race check reads them all
    b = game(event_structure(["p", "q"]), {"p": PLUS, "q": PLUS}, name="b")
    sigma = strategy(Polarised(event_structure([]), {}), EMPTY, b, {})
    src = Polarised(event_structure(["p", "q"]), {"p": MINUS, "q": MINUS})
    tau = strategy(src, b, EMPTY, {"p": (1, "p"), "q": (1, "q")})
    s, t = stop_of(sigma), stop_of(tau)
    for lift in (compose_stopping, interact_stopping):
        with pytest.raises(SizeBoundExceeded) as err:
            lift(s, t, EngineLimits(max_configs=1))
        assert err.value.data == {"cap": 1}
        assert lift(s, t, EngineLimits(max_configs=4)).stopping == fs(fs())


def test_interaction_builds_its_middle_alone_and_targets_on_first_read(
        monkeypatch):
    # the pullback reads the strategies' parts in place, and no strategy
    # builds its target dual(A) || N || B before something reads it
    sigma = fx.relay_b2_to_c()
    cc = copycat_strategy(sigma.B)
    real_parallel, real_target = games.parallel, strategies.shared_target
    built, targets = [], []

    def counted_parallel(*parts, **kw):
        built.append(parts)
        return real_parallel(*parts, **kw)

    def counted_target(*three):
        targets.append(three)
        return real_target(*three)

    for name, mod in list(sys.modules.items()):
        if name.startswith("esgames") and \
                getattr(mod, "parallel", None) is real_parallel:
            monkeypatch.setattr(mod, "parallel", counted_parallel)
    monkeypatch.setattr(strategies, "shared_target", counted_target)

    comp = compose(sigma, cc)
    square = interact(cc, cc)
    assert built == [(sigma.N, neutralise(sigma.B), cc.N),
                     (cc.N, neutralise(cc.B), cc.N)]
    assert targets == []
    assert comp.sigma.dst is comp.target.es
    assert square.target.es is square.sigma.dst
    assert targets == [(comp.A, comp.N, comp.B),
                       (square.A, square.N, square.B)]


def copycat_square(g):
    cc = copycat_strategy(g)
    return interact(cc, cc)


def assert_primes_of_are_the_configurations(inter):
    es = inter.source.es
    for th, x in inter.primes_of.items():
        assert es.is_configuration(x)
        assert frozenset().union(*map(prime_pairs, x)) == th
    assert set(inter.primes_of.values()) == set(es.configurations())
    assert len(inter.primes_of) == len(es.configurations())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_primes_of_a_copycat_square_on_concurrent_moves(n):
    # each move is absent or reached in one of three stages
    names = [f"c{i}" for i in range(n)]
    inter = copycat_square(game(event_structure(names),
                                {e: PLUS for e in names}))
    assert len(inter.primes_of) == 4 ** n
    assert_primes_of_are_the_configurations(inter)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_primes_of_a_copycat_square_on_a_chain(m):
    names = [f"k{i}" for i in range(m)]
    g = game(event_structure(names, causes=list(zip(names, names[1:]))),
             {e: (PLUS, MINUS)[i % 2] for i, e in enumerate(names)})
    inter = copycat_square(g)
    assert len(inter.primes_of) == 3 * m + 1
    assert_primes_of_are_the_configurations(inter)
