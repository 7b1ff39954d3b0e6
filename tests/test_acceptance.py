"""Acceptance checklist: twelve end-to-end checks, one test each.

Run with -v to get one pass/fail line per item. Every check works desk-scale
examples (games up to 8 events) through the public API only; the random items
are seeded and deterministic. README.md carries the same list with prose
descriptions.
"""

import random
from pathlib import Path

from esgames import fixtures as fx
from esgames.games import (MINUS, PLUS, Polarised, game, is_plus_maximal,
                           payload)
from esgames.interaction import (_padding, compose, compose_stopping,
                                 enumerate_secured_bijections, interact,
                                 pair_configs, prime_pairs, pullback)
from esgames.randgen import (random_bare, random_game, random_in_game_strategy,
                             random_stopping, random_strategy)
from esgames.rigid import rigid_image_stopping
from esgames.strategies import (StoppingStrategy, copycat_strategy,
                                saturate_stopping, stop_of, strategy)
from esgames.structures import ESMap, event_structure, find_isomorphism
from esgames.testing import (enumerate_tests, find_gap, finite_traces,
                             may_pass, may_preorder, must_pass, must_preorder,
                             stopping_traces, synthesize_may_test,
                             synthesize_must_test)

fs = frozenset


def strat_iso(a, b):
    """Whether a source isomorphism commutes with the target labelling; the
    one between two event-free sources is {}, so compare with None."""
    return find_isomorphism(a.source.es, b.source.es,
                            label1=a.sigma.mapping,
                            label2=b.sigma.mapping) is not None


def stopping_iso(a, b):
    iso = find_isomorphism(a.strat.source.es, b.strat.source.es,
                           label1=a.strat.sigma.mapping,
                           label2=b.strat.sigma.mapping)
    if iso is None:
        return False
    return {fs(iso[e] for e in x) for x in a.stopping} == set(b.stopping)


def stop_images(st):
    """Stopping configurations as sets of target payloads."""
    return {fs(payload(st.strat.assigned(e)) for e in x) for x in st.stopping}


def composable_fixture_pairs():
    return [(fx.press_either(), fx.relay_b2_to_c()),
            (fx.press_b1(), fx.relay_b2_to_c()),
            (fx.press_b2(), fx.relay_b2_to_c()),
            (fx.press_either(), fx.tick2_probe()),
            (fx.press_b2(), fx.free_probe()),
            (fx.responder(), fx.demander()),
            (fx.receiver(), fx.wait_free_probe()),
            (fx.double_press_c(), fx.neutral_probe()),
            (fx.relay_b2_to_c(), fx.neutral_probe()),
            (fx.ladder_one_stall(), fx.ladder_probe()),
            (fx.ladder_two_stalls(), fx.ladder_probe())]


def test_01_hidden_deadlock_same_composite_different_stopping():
    # composing away the middle hides the branch that never reaches c
    relay = fx.relay_b2_to_c()
    assert strat_iso(compose(fx.press_either(), relay),
                     compose(fx.press_b2(), relay))
    s_or = stop_of(interact(fx.press_either(), relay))
    s_b2 = stop_of(interact(fx.press_b2(), relay))
    assert stop_images(s_or) == {fs(), fs("c")}
    assert stop_images(s_b2) == {fs("c")}


def test_02_single_move_trio_split_by_stopping_data():
    now = stop_of(fx.shot_now())
    stepped = stop_of(fx.shot_after_step())
    stalling = stop_of(fx.shot_or_stall())
    assert stopping_iso(now, stepped)
    assert not stopping_iso(now, stalling)
    assert not stopping_iso(stepped, stalling)
    assert stop_images(stalling) == {fs(), fs("p")}


def test_03_stall_count_decides_the_ladder_probe():
    assert must_pass(fx.ladder_one_stall(), fx.ladder_probe()).passed
    assert not must_pass(fx.ladder_two_stalls(), fx.ladder_probe()).passed


def test_04_neutral_probe_verdicts_and_must_synthesis():
    quiet = StoppingStrategy(fx.idle(fx.click()), {fs()})
    playc = StoppingStrategy(fx.press_c(), {fs(), fs("s")})
    probe = fx.neutral_probe()
    assert must_pass(quiet, probe).passed
    assert not must_pass(playc, probe).passed

    gap = find_gap("must", playc, quiet)
    assert gap is not None
    assert [payload(t) for t in gap[1]] == ["c"]
    regen = synthesize_must_test(quiet, gap)
    assert must_pass(quiet, regen).passed
    assert not must_pass(playc, regen).passed


def test_05_copycat_is_identity_on_random_strategies():
    rng = random.Random(55)
    for i in range(50):
        a = random_game(rng, name=f"A{i}")
        b = random_game(rng, name=f"B{i}")
        sigma = random_strategy(rng, a, b)
        assert strat_iso(compose(sigma, copycat_strategy(b)), sigma), i
        assert strat_iso(compose(copycat_strategy(a), sigma), sigma), i
    # with no Player move in A and no Opponent move in B, the event-free
    # strategy is valid, and so are its composites with copycat
    a = game(event_structure(["a"]), {"a": MINUS}, name="A")
    b = game(event_structure(["b"]), {"b": PLUS}, name="B")
    empty = strategy(Polarised(event_structure([]), {}), a, b, {})
    assert strat_iso(compose(empty, copycat_strategy(b)), empty)
    assert strat_iso(compose(copycat_strategy(a), empty), empty)


def test_06_stopping_extraction_commutes_with_composition():
    rng = random.Random(66)
    for i in range(50):
        a = random_game(rng, max_events=3, name=f"A{i}")
        b = random_game(rng, max_events=3, name=f"B{i}")
        c = random_game(rng, max_events=3, name=f"C{i}")
        sigma = random_bare(rng, a, b)
        tau = random_bare(rng, b, c)
        lhs = stop_of(interact(sigma, tau))
        rhs = compose_stopping(stop_of(sigma), stop_of(tau))
        assert stopping_iso(lhs, rhs), i


def test_07_pairings_are_plus_maximal_exactly_when_both_sides_are():
    checked = 0
    for sg, tu in composable_fixture_pairs():
        inter = interact(sg, tu)
        pad = _padding(sg, tu)
        for x in sg.source.configurations():
            for y in tu.source.configurations():
                got = pair_configs(sg, tu, x, y, padding=pad)
                if got is None:
                    continue
                checked += 1
                both = (is_plus_maximal(sg.source, x)
                        and is_plus_maximal(tu.source, y))
                assert is_plus_maximal(inter.source, got[0]) == both, (x, y)
    assert checked >= 80


def test_08_preorders_match_testing_exactly_on_random_pairs():
    # may side: missing trace <-> a separating plain test
    rng = random.Random(88)
    pool = [random_game(rng, max_events=3, name=f"g{i}") for i in range(10)]
    plain = {}
    for i in range(100):
        g = pool[rng.randrange(len(pool))]
        s1 = random_in_game_strategy(rng, g)
        s2 = random_in_game_strategy(rng, g)
        ok, gap = may_preorder(s1, s2)
        if ok:
            tests = plain.setdefault(id(g), enumerate_tests(g, 4))
            for t in tests:
                assert not (may_pass(s1, t) and not may_pass(s2, t)), i
        else:
            t = synthesize_may_test(s2, gap)
            assert may_pass(s1, t) and not may_pass(s2, t), i

    # must side: missing stopping trace <-> a separating bare test
    rng = random.Random(89)
    pool = [random_game(rng, max_events=2, name=f"h{i}") for i in range(8)]
    bare = {}
    for i in range(100):
        g = pool[rng.randrange(len(pool))]
        s1 = random_stopping(rng, random_in_game_strategy(rng, g))
        s2 = random_stopping(rng, random_in_game_strategy(rng, g))
        ok, gap = must_preorder(s1, s2)
        if ok:
            tests = bare.setdefault(id(g), enumerate_tests(g, 4, bare=True))
            for t in tests:
                assert not (must_pass(s2, t) and not must_pass(s1, t)), i
        else:
            t = synthesize_must_test(s2, gap)
            assert must_pass(s2, t) and not must_pass(s1, t), i


def test_09_pullback_configurations_mirror_secured_bijections():
    for sg, tu in composable_fixture_pairs():
        left, right, lmap, rmap = _padding(sg, tu)
        f = ESMap(left.es, None, lmap)
        g = ESMap(right.es, None, rmap)
        p, _, _ = pullback(f, g)
        bijs = enumerate_secured_bijections(f, g)
        configs = set(p.configurations())
        assert len(bijs) == len(configs)
        seen = set()
        for th in bijs:
            x = fs(q for q in p.events if prime_pairs(q) <= th)
            assert x in configs
            # the pair sets of the primes recover the bijection, so the
            # correspondence is injective and preserves inclusion both ways
            union = fs().union(*(prime_pairs(q) for q in x)) if x else fs()
            assert union == th
            seen.add(x)
        assert len(seen) == len(bijs)

    left, right, lmap, rmap = _padding(fx.responder(), fx.demander())
    p, _, _ = pullback(ESMap(left.es, None, lmap), ESMap(right.es, None, rmap))
    assert p.events == fs()


def test_10_rigid_image_keeps_all_traces():
    rng = random.Random(110)
    for i in range(50):
        g = random_game(rng, max_events=4, name=f"A{i}")
        s = random_stopping(rng, random_in_game_strategy(rng, g))
        ri = rigid_image_stopping(s)
        assert finite_traces(s.strat) == finite_traces(ri.strat), i
        assert stopping_traces(s) == stopping_traces(ri), i


def test_11_branching_answers_are_must_equivalent_on_two_exchanges():
    a = saturate_stopping(fx.two_by_two_id())
    b = saturate_stopping(fx.two_by_two_branching())
    assert stopping_traces(a) == stopping_traces(b)
    assert must_preorder(a, b)[0] and must_preorder(b, a)[0]


def test_12_finite_chain_truncations_never_separate_the_climbers():
    # the duplicated longest climber adds no finite behaviour at any depth;
    # distinctions that need unbounded play are documented as out of scope
    for k in range(2, 6):
        s1 = saturate_stopping(fx.chain_climbers(k, False))
        s2 = saturate_stopping(fx.chain_climbers(k, True))
        assert stopping_traces(s1) == stopping_traces(s2), k
        assert must_preorder(s1, s2)[0] and must_preorder(s2, s1)[0], k
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "finite" in readme.read_text().lower()
