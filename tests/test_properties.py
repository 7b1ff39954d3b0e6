"""Law checks on seeded random structures.

Hypothesis drives the seeds; the generators in randgen turn a seed into
games and strategies deterministically, so every failure replays.
"""

import gc
import importlib
import inspect
import operator
import random
import weakref
from collections import Counter, OrderedDict
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from esgames import cli, strategies, testing
from esgames import fixtures as fx
from esgames.errors import (
    Cycle,
    CycleInCause,
    EsgError,
    ImageMismatch,
    InvalidStructure,
    NotAConfiguration,
    NotPlusReflecting,
    NotReceptive,
    SizeBoundExceeded,
)
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
    is_race_free,
    minus_subset,
    parallel,
    scott_leq,
    slice_config,
)
from esgames.interaction import (
    _padding,
    compose,
    compose_stopping,
    enumerate_secured_bijections,
    glue,
    interact,
    interact_stopping,
    pair_configs,
    prime_event,
    prime_top,
    secured_bijection,
)
from esgames.fileformat import Workspace, parse, print_workspace
from esgames.limits import DEFAULT_LIMITS, EngineLimits
from esgames.randgen import (
    _random_source,
    _target_shape,
    random_bare,
    random_game,
    random_in_game_strategy,
    random_stopping,
    random_strategy,
)
from esgames.rigid import rigid_image, rigid_image_stopping
from esgames.strategies import (
    BareStrategy,
    StoppingStrategy,
    bare_strategy,
    copycat_strategy,
    saturate_stopping,
    shared_target,
    stop_of,
    strategy_of,
    validate_bare_strategy,
    validate_two_cell,
    visible_part,
)
from esgames.structures import (
    ESMap,
    cfgkey,
    ekey,
    event_structure,
    find_isomorphism,
    inherited_conflicts,
    maximal_sets,
    sortedevents,
)
from esgames.testing import (
    TICK,
    Verdict,
    _acyclic,
    _candidates,
    _closures,
    _combos,
    _structure,
    _subsets,
    _without_common_successor,
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

ROOT = Path(__file__).resolve().parent.parent
seeds = st.integers(0, 10**9)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_configurations_are_downclosed_and_consistent(seed):
    g = random_game(random.Random(seed), 5, race_free=False)
    for x in g.es.configurations():
        assert g.es.is_configuration(x)
        for e in x:
            assert g.es.below(e) <= x


def maximal_conflict_free_sets(events, conflicts):
    """Brute force over every subset: the reference for maximal consistent sets."""
    free = [frozenset(c) for r in range(len(events) + 1)
            for c in combinations(events, r)
            if not any({a, b} <= set(c) for a, b in conflicts)]
    return {x for x in free if not any(x < y for y in free)}


@st.composite
def conflict_graphs(draw):
    events = [f"e{i}" for i in range(draw(st.integers(0, 10)))]
    pairs = list(combinations(events, 2))
    return events, [p for p in pairs if draw(st.booleans())]


@given(conflict_graphs())
@settings(max_examples=200, deadline=None)
def test_maximal_consistent_sets_of_binary_conflicts(graph):
    events, conflicts = graph
    es = event_structure(events, conflicts=conflicts)
    assert set(es.maxcons) == maximal_conflict_free_sets(events, conflicts)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_copycat_configurations_are_scott_pairs(seed):
    g = random_game(random.Random(seed), 4, race_free=False)
    cc, _ = copycat(g)
    got = {(frozenset(slice_config(w, 1)), frozenset(slice_config(w, 2)))
           for w in cc.es.configurations()}
    want = {(x, y)
            for x in g.es.configurations() for y in g.es.configurations()
            if scott_leq(g, y, x)}
    assert got == want


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_copycat_deterministic_exactly_on_race_free_games(seed):
    g = random_game(random.Random(seed), 4, race_free=False)
    cc, _ = copycat(g)
    assert is_deterministic(cc)[0] == is_race_free(g)[0]


def _fixture_games():
    """Every game a fixture builder without arguments builds or plays in."""
    found = []
    for name, fn in vars(fx).items():
        if (getattr(fn, "__module__", None) != fx.__name__
                or any(p.default is p.empty
                       for p in inspect.signature(fn).parameters.values())):
            continue
        made = fn()
        made = getattr(made, "strat", made)
        for g in ((made.A, made.B) if isinstance(made, BareStrategy)
                  else (made,)):
            if NEUTRAL not in g.pol.values() and g not in found:
                found.append(g)
    return found


def test_copycat_is_a_strategy_by_construction():
    # copycat_strategy builds without validating: validate here instead, on
    # racy games too
    games = [random_game(random.Random(seed), race_free=False)
             for seed in range(300)]
    games += _fixture_games() + [fx.chain_game(3)]
    assert sum(not is_race_free(g)[0] for g in games) > 0
    for g in games:
        assert validate_bare_strategy(copycat_strategy(g)) == [], g


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_stop_of_is_saturation_for_neutral_free_sources(seed):
    rng = random.Random(seed)
    s = random_strategy(rng, random_game(rng, 3), random_game(rng, 3))
    assert stop_of(s).stopping == saturate_stopping(s).stopping


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_visible_part_of_bare_strategy_validates(seed):
    rng = random.Random(seed)
    b = random_bare(rng, random_game(rng, 3), random_game(rng, 3))
    vis, proj, down = visible_part(b)
    assert vis.is_strategy
    for x in b.source.configurations():
        assert vis.source.es.is_configuration(down(x))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_every_trace_is_a_serialisation_that_respects_causes(seed):
    rng = random.Random(seed)
    s = random_in_game_strategy(rng, random_game(rng, 4, race_free=False))
    pos_of = lambda t: {e: i for i, e in enumerate(t)}
    for x in sorted(s.source.configurations(), key=len)[:12]:
        for alpha in traces_of(s, x):
            assert sorted(alpha, key=repr) == sorted(
                (s.assigned(e) for e in x), key=repr)
            pos = pos_of(alpha)
            for e in x:
                for c in s.source.es.strict_below(e) & x:
                    assert pos[s.assigned(c)] < pos[s.assigned(e)]


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_non_traces_disagree_on_an_await_edge(seed):
    # a game-respecting serialisation of a configuration's moves either is a
    # trace or puts some awaited Opponent move after the Player move that
    # awaited it
    rng = random.Random(seed)
    g = random_game(rng, 3, race_free=False)
    s = random_in_game_strategy(rng, g)
    for x in sorted(s.source.configurations(), key=len):
        if len(x) > 4:
            break
        ts = traces_of(s, x)
        for perm in permutations(sorted(x, key=repr)):
            pos = {e: i for i, e in enumerate(perm)}
            if any(pos[c] > pos[e]
                   for e in x for c in x
                   if s.assigned(c)[1] in g.es.strict_below(s.assigned(e)[1])):
                continue
            alpha = tuple(s.assigned(e) for e in perm)
            if alpha in ts:
                continue
            assert any(
                s.source.pol[c] == MINUS and s.source.pol[e] == PLUS
                and pos[c] > pos[e]
                for e in x for c in s.source.es.strict_below(e) & x)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_rigid_collapse_keeps_both_trace_sets(seed):
    rng = random.Random(seed)
    s = random_in_game_strategy(rng, random_game(rng, 4, race_free=False))
    stn = random_stopping(rng, s)
    ri = rigid_image_stopping(stn)
    assert finite_traces(stn.strat) == finite_traces(ri.strat)
    assert stopping_traces(stn) == stopping_traces(ri)


def test_stopping_two_cell_shifts_verdicts_one_way():
    # press_b2 includes into press-either as a 2-cell that keeps stopping
    # data; may verdicts carry forward along it, must verdicts backward
    f = {"s": "s2"}
    small = saturate_stopping(fx.press_b2())
    big = saturate_stopping(fx.press_either())
    assert validate_two_cell(f, small, big, kind="stopping") == []
    for t in enumerate_tests(fx.buttons(), max_events=3):
        if may_pass(small, t).passed:
            assert may_pass(big, t).passed
        if must_pass(big, t).passed:
            assert must_pass(small, t).passed


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_interaction_stopping_pairs_are_stopping_interactions(seed):
    # the two routes to a composed verdict agree: pair stopping data through
    # the interaction, or evaluate the visible composition directly
    from esgames.interaction import compose_stopping, pair_configs

    rng = random.Random(seed)
    a = random_game(rng, 3)
    b = random_game(rng, 3)
    s = random_strategy(rng, a, b)
    t = random_strategy(rng, b, random_game(rng, 2))
    sst = random_stopping(rng, s)
    tst = random_stopping(rng, t)
    comp = compose_stopping(sst, tst)
    paired = {got[1]
              for x in sst.sorted_stopping() for y in tst.sorted_stopping()
              if (got := pair_configs(s, t, x, y)) is not None}
    assert comp.stopping == paired


# ---- the matcher, pairing by image, and one-step receptivity against their
# exhaustive forms ---------------------------------------------------------------


def padded_pair_configs(sigma, tau, x, y, padding):
    """pair_configs the long way: a secured bijection between x and y padded
    into A || M || B || N || C, as the pullback of interact sees them."""
    left, right, lmap, rmap = padding
    xl = {(1, s) for s in x} | {u for u in tau.image(y) if u[0] in (2, 3)}
    yr = {u for u in sigma.image(x) if u[0] in (1, 2)} | {(3, t) for t in y}
    try:
        theta = secured_bijection(ESMap(left.es, None, lmap),
                                  ESMap(right.es, None, rmap), xl, yr)
    except (ImageMismatch, Cycle):
        return None
    inter = frozenset(prime_event(theta.below(p), p) for p in theta.pairs)
    vis = frozenset(e for e in inter if lmap[prime_top(e)[0]][0] in (1, 5))
    return inter, vis


@given(seeds)
@example(33)  # equal images on B whose gluing is cyclic, 12 pairs of them
@settings(max_examples=30, deadline=None)
def test_glue_is_the_padded_secured_bijection(seed):
    rng = random.Random(seed)
    a, b, c = (random_game(rng, 2, name=n) for n in "ABC")
    sigma = random_bare(rng, a, b, min_neutrals=1)
    tau = random_bare(rng, b, c, min_neutrals=1)
    assert a.events and sigma.N.events and tau.N.events and c.events
    padding = _padding(sigma, tau)
    for x in sigma.source.configurations():
        for y in tau.source.configurations():
            want = padded_pair_configs(sigma, tau, x, y, padding)
            below = glue(sigma, tau, x, y)
            assert (below is None) == (want is None), (x, y)
            if want is not None:
                assert frozenset(prime_event(b, p)
                                 for p, b in below.items()) == want[0]
            assert pair_configs(sigma, tau, x, y) == want


def padded_bare_pair(seed):
    """Two composable random bare strategies over games of up to 2 events,
    whose conflicts give the padded sides several maximal consistent sets."""
    rng = random.Random(seed)
    a, b, c = (random_game(rng, 2, name=n) for n in "ABC")
    return random_bare(rng, a, b), random_bare(rng, b, c)


def secured_bijections_exhaustively(left, right, lmap, rmap):
    """Every pair of configurations of the padded sides that secured_bijection
    accepts, as its pair set, mapped to its primes: each pair's down-closure
    as a prime event topped by that pair. A pair whose images differ raises
    ImageMismatch, so only equal images are tried."""
    f, g = ESMap(left.es, None, lmap), ESMap(right.es, None, rmap)
    by_image = {}
    for y in right.es.configurations():
        by_image.setdefault(frozenset(rmap[e] for e in y), []).append(y)
    primes_of = {}
    for x in left.es.configurations():
        for y in by_image.get(frozenset(lmap[e] for e in x), ()):
            try:
                theta = secured_bijection(f, g, x, y)
            except (ImageMismatch, Cycle):
                continue
            primes_of[theta.pairs] = frozenset(
                prime_event(theta.below(p), p) for p in theta.pairs)
    return primes_of


@given(seeds)
@example(10)  # conflicts on both padded sides
@example(25)  # three maximal consistent sets on the left
@settings(max_examples=30, deadline=None)
def test_pullback_enumeration_is_exhaustive_and_capped_exactly(seed):
    sigma, tau = padded_bare_pair(seed)
    left, right, lmap, rmap = padding = _padding(sigma, tau)
    primes_of = secured_bijections_exhaustively(*padding)
    bijections = set(primes_of)
    primes = frozenset().union(*primes_of.values())
    got = enumerate_secured_bijections(ESMap(left.es, None, lmap),
                                       ESMap(right.es, None, rmap))
    assert len(got) == len(bijections) and set(got) == bijections
    for cap, count in (("max_configs", len(bijections)),
                       ("max_primes", len(primes))):
        for k in {max(count - 1, 0), count}:
            limits = EngineLimits(**{cap: k})
            if count > k:
                with pytest.raises(SizeBoundExceeded) as err:
                    interact(sigma, tau, limits)
                assert err.value.data == {"cap": k}
            else:
                inter = interact(sigma, tau, limits)
                assert len(inter._bijections) == len(bijections)
                assert len(inter.source.events) == len(primes)


@given(seeds)
@example(10)
@example(25)
@settings(max_examples=30, deadline=None)
def test_interaction_primes_of_match_the_exhaustive_oracle(seed):
    # each bijection with its primes, pair sets and tops, as decoded from
    # the pullback's integer encoding
    sigma, tau = padded_bare_pair(seed)
    primes_of = secured_bijections_exhaustively(*_padding(sigma, tau))
    inter = interact(sigma, tau)
    assert inter.primes_of == primes_of
    assert inter.source.events == frozenset().union(*primes_of.values())


def test_padded_pairs_have_conflicts_on_both_sides():
    # the pairs above reach sides with several maximal consistent sets
    both = 0
    for seed in range(40):
        left, right, _, _ = _padding(*padded_bare_pair(seed))
        both += len(left.es.maxcons) > 1 and len(right.es.maxcons) > 1
    assert both >= 3


def all_pairs_verdict(kind, subject, test):
    """may_pass or must_pass trying every pair of configurations."""
    sub = subject if isinstance(subject, StoppingStrategy) else stop_of(subject)
    if kind == "may":
        t = test if test.is_strategy else visible_part(test)[0]
        ys = t.source.configurations()
        xs = sub.strat.source.configurations()
    else:
        t = stop_of(test).strat
        ys = stop_of(test).sorted_stopping()
        xs = sub.sorted_stopping()
    padding = _padding(sub.strat, t)
    for y in ys:
        if any(t.assigned(e) == (3, TICK) for e in y) != (kind == "may"):
            continue
        for x in xs:
            if padded_pair_configs(sub.strat, t, x, y, padding) is not None:
                return Verdict(kind == "may", (x, y))
    return Verdict(kind != "may")


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_test_runs_pair_by_image_as_all_pairs_do(seed):
    rng = random.Random(seed)
    g = random_game(rng, 2)
    for t in enumerate_tests(g, 3):
        for _ in range(2):
            s = random_in_game_strategy(rng, g)
            assert may_pass(s, t) == all_pairs_verdict("may", s, t)
    for t in enumerate_tests(g, 3, bare=True):
        s = random_stopping(rng, random_in_game_strategy(rng, g))
        assert must_pass(s, t) == all_pairs_verdict("must", s, t)


def kept_orders_against_glue(sigma, tau):
    """Check the kept orders' verdict against glue on every x of sigma and y
    of tau with one image on the middle game; returns the number of such
    pairs and of those refused for a cycle alone."""
    by_image = sigma.configurations_by_image()
    tried = cyclic = 0
    for y in tau.configurations():
        q = tau.order_on(1, y)
        for x, p in by_image.get(tau.image_on(1, y), ()):
            assert p == sigma.order_on(None, x)
            glued = glue(sigma, tau, x, y) is not None
            assert _acyclic(p, q) == glued, (x, y)
            tried += 1
            cyclic += not glued and p is not None and q is not None
    return tried, cyclic


def test_kept_orders_glue_as_glue_does_on_random_subjects_and_tests():
    tried = cyclic = 0
    for seed in range(20):
        rng = random.Random(seed)
        g = random_game(rng, 3, min_events=2)
        subjects = [random_in_game_strategy(rng, g) for _ in range(2)]
        subjects += [random_bare(rng, EMPTY, g) for _ in range(2)]
        for t in enumerate_tests(g, 3) + enumerate_tests(g, 3, bare=True):
            for s in subjects + [stop_of(s).strat for s in subjects[2:]]:
                a, c = kept_orders_against_glue(s, t)
                tried, cyclic = tried + a, cyclic + c
    # not vacuous: many pairs meet, and dozens are parted by a cycle alone
    assert tried >= 10000 and cyclic >= 50, (tried, cyclic)


def _fixture_strategies():
    """Every strategy a fixture builder without arguments builds."""
    found = []
    for name, fn in vars(fx).items():
        if (getattr(fn, "__module__", None) != fx.__name__
                or any(p.default is p.empty
                       for p in inspect.signature(fn).parameters.values())):
            continue
        made = fn()
        made = getattr(made, "strat", made)
        if isinstance(made, BareStrategy):
            found.append(made)
    return found


def test_kept_orders_glue_as_glue_does_on_the_fixtures():
    made = _fixture_strategies()
    pairs = [(s, t) for s in made for t in made if s.B == t.A]
    tried = cyclic = 0
    for s, t in pairs:
        a, c = kept_orders_against_glue(s, t)
        tried, cyclic = tried + a, cyclic + c
    assert len(pairs) >= 20 and tried >= 100 and cyclic >= 1, \
        (len(pairs), tried, cyclic)


def _unchecked_in_game(g, side, order, assign, pol):
    """A hand-built bare strategy playing g on side 1 (a test, into the
    success game) or 3 (a subject), left unvalidated."""
    src = Polarised(event_structure(sorted(assign), causes=order), pol)
    if side == 1:
        return BareStrategy(src, g, EMPTY, success_game(), assign)
    return BareStrategy(src, EMPTY, EMPTY, g, assign)


def test_a_configuration_playing_a_move_twice_never_glues():
    # s1 and s2 both play p, and so do u1 and u2
    g = fx.one_shot()
    sub = _unchecked_in_game(g, 3, [], {"s1": (3, "p"), "s2": (3, "p")},
                             {"s1": PLUS, "s2": PLUS})
    test = _unchecked_in_game(
        g, 1, [("u1", TICK), ("u2", TICK)],
        {"u1": (1, "p"), "u2": (1, "p"), TICK: (3, TICK)},
        {"u1": MINUS, "u2": MINUS, TICK: PLUS})
    assert sub.order_on(None, frozenset({"s1", "s2"})) is None
    assert test.order_on(1, frozenset({"u1", "u2"})) is None
    assert sub.order_on(None, frozenset({"s1"})) == ()
    assert kept_orders_against_glue(sub, test) == (13, 0)
    assert may_pass(sub, test) == Verdict(False)


def test_preorders_on_a_configuration_playing_a_move_twice_match_listing():
    # no order gives the traces of a configuration that plays p twice: they
    # are listed, against those of the configurations that play p twice too
    g = fx.one_shot()
    twice, ordered = (_unchecked_in_game(
        g, 3, order, {"s1": (3, "p"), "s2": (3, "p")},
        {"s1": PLUS, "s2": PLUS}) for order in ([], [("s1", "s2")]))
    once = _unchecked_in_game(g, 3, [], {"s": (3, "p")}, {"s": PLUS})
    assert may_preorder(twice, once) == (
        False, (frozenset({"s1", "s2"}), ((3, "p"), (3, "p"))))
    for a, b in combinations_with_replacement((twice, ordered, once), 2):
        assert_preorders_match_listing(a, b)
        assert_preorders_match_listing(stop_of(a), stop_of(b))


def test_kept_orders_find_a_cycle_through_four_moves():
    # the subject orders a < b and c < d, the test b < c and d < a: no two
    # moves are ordered both ways, yet the four close a cycle
    moves = ["a", "b", "c", "d"]
    g = game(event_structure(moves), dict.fromkeys(moves, PLUS))
    sub = _unchecked_in_game(g, 3, [("a", "b"), ("c", "d")],
                             {m: (3, m) for m in moves},
                             dict.fromkeys(moves, PLUS))
    test = _unchecked_in_game(g, 1, [("b", "c"), ("d", "a")],
                              {m: (1, m) for m in moves},
                              dict.fromkeys(moves, MINUS))
    x = y = frozenset(moves)
    p, q = sub.order_on(None, x), test.order_on(1, y)
    assert sorted(p) == [(2, 1), (8, 4)] and sorted(q) == [(1, 8), (4, 2)]
    assert not _acyclic(p, q) and glue(sub, test, x, y) is None
    # the empty configurations and these two are the only ones that meet
    assert kept_orders_against_glue(sub, test) == (2, 1)


def receptive_exhaustively(bs):
    """Receptivity as first stated: every Opponent extension y of an image,
    of any size, lifts to exactly one extension of the configuration."""
    configs = bs.source.configurations()
    by_image = {}
    for x in configs:
        by_image.setdefault(bs.image(x), []).append(x)
    targets = bs.target.configurations()
    return all(
        sum(1 for x2 in by_image.get(y, ()) if x <= x2) == 1
        for x in configs for y in targets
        if minus_subset(bs.target, bs.image(x), y))


def candidate_bare(rng, A, B, middle_events):
    """A bare strategy as randgen shapes it, often broken on purpose: an
    Opponent move dropped, or copied with or without a conflict."""
    middle = Polarised(event_structure(middle_events),
                       {m: NEUTRAL for m in middle_events})
    tpol, torder, tclashes = _target_shape(A, middle, B)
    events, causes, conflicts, pol, assign = _random_source(
        rng, tpol, torder, tclashes)
    opponent = [e for e in events if pol[e] == MINUS]
    if opponent and rng.random() < 0.5:
        m = rng.choice(opponent)
        if rng.random() < 0.5:
            events.remove(m)
            causes = [c for c in causes if m not in c]
            conflicts = [c for c in conflicts if m not in c]
        else:
            d = ("copy", m)
            events.append(d)
            pol[d], assign[d] = MINUS, assign[m]
            causes += [(c, d) for c, e in causes if e == m]
            if rng.random() < 0.7:
                conflicts.append((m, d))
    try:
        src = Polarised(event_structure(events, causes, conflicts),
                        {e: pol[e] for e in events})
    except InvalidStructure:
        return None
    return BareStrategy(src, A, middle, B, {e: assign[e] for e in events})


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_one_step_receptivity_is_the_exhaustive_clause(seed):
    rng = random.Random(seed)
    a, b = random_game(rng, 2), random_game(rng, 3)
    bs = candidate_bare(rng, a, b, ["n0"] if rng.random() < 0.5 else [])
    if bs is None:
        return
    diags = validate_bare_strategy(bs)
    others = [d for d in diags if not isinstance(d, NotReceptive)]
    assert (not diags) == (not others and receptive_exhaustively(bs))


def test_receptivity_candidates_are_both_valid_and_invalid():
    # the candidates above reach every outcome the oracle must agree on
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        a, b = random_game(rng, 2), random_game(rng, 3)
        bs = candidate_bare(rng, a, b, ["n0"] if rng.random() < 0.5 else [])
        if bs is None:
            continue
        diags = validate_bare_strategy(bs)
        if not diags:
            outcomes.add("valid")
        elif all(isinstance(d, NotReceptive) for d in diags):
            outcomes.add("not receptive")
        else:
            outcomes.add("otherwise invalid")
    assert outcomes == {"valid", "not receptive", "otherwise invalid"}


# ---- event ranks, skeleton conflicts, cause cycles ------------------------------


def mixed_events(rng, n):
    """n distinct events mixing strings, ints, tuples and prime-shaped ones."""
    pool = ["a", "b", "z", 0, 3, 12, (1, "a"), (3, "a"), ("x", 2), ("x", (1, 0)),
            ("pr", frozenset({((1, "a"), (3, 0))}), ((1, "a"), (3, 0))),
            ("pr", frozenset({((1, "a"), (3, 0)), ((2, 1), (3, 1))}),
             ((2, 1), (3, 1))),
            ("pr", frozenset({(0, "b")}), (0, "b"))]
    return rng.sample(pool, n)


def random_mixed_structure(rng):
    events = mixed_events(rng, rng.randint(0, 7))
    causes = [(a, b) for i, a in enumerate(events) for b in events[i + 1:]
              if rng.random() < 0.25]
    conflicts = [(a, b) for a, b in combinations(events, 2)
                 if rng.random() < 0.2]
    try:
        return event_structure(events, causes, conflicts)
    except InvalidStructure:
        return event_structure(events, causes)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_rank_orders_are_the_ekey_orders(seed):
    rng = random.Random(seed)
    es = random_mixed_structure(rng)
    subsets = [frozenset(c) for r in range(len(es.events) + 1)
               for c in combinations(es.events, r)]
    configs = [x for x in subsets
               if all(es.below(e) <= x for e in x)
               and any(x <= m for m in es.maxcons)]
    assert es.configurations() == sorted(configs, key=cfgkey)
    assert list(es.maxcons) == sorted(es.maxcons, key=cfgkey)
    assert es.ordered == tuple(sorted(es.events, key=ekey))
    members = set(configs)
    for x in configs:
        assert es.extensions(x) == [e for e in sorted(es.events - x, key=ekey)
                                    if x | {e} in members]
    src = Polarised(es, {e: PLUS for e in es.events})
    strat = BareStrategy(src, EMPTY, EMPTY, Polarised(es, src.pol),
                         {e: (3, e) for e in es.events})
    stopping = [x for x in configs if rng.random() < 0.5]
    assert StoppingStrategy(strat, stopping).sorted_stopping() \
        == tuple(sorted(stopping, key=cfgkey))


@given(seeds)
@example(5)  # a source with both a causal pair and a conflict
@settings(max_examples=60, deadline=None)
def test_stopping_strategy_accepts_exactly_the_configurations(seed):
    # candidates are all subsets of the source: on a source with causality or
    # conflict they include sets that are not down-closed or not consistent
    rng = random.Random(seed)
    a, b = (random_game(rng, max_events=3, name=nm) for nm in "AB")
    strat = random_strategy(rng, a, b)
    configs = set(strat.configurations())
    events = sorted(strat.source.events, key=ekey)
    candidates = [frozenset(c) for r in range(len(events) + 1)
                  for c in combinations(events, r)]
    for x in candidates:
        try:
            StoppingStrategy(strat, [x])
            accepted = True
        except InvalidStructure as err:
            accepted = False
            assert [(type(d), d.data["member"]) for d in err.diagnostics] \
                == [(NotAConfiguration, x)]
        assert accepted == (x in configs)
    picked = [x for x in candidates if rng.random() < 0.3]
    rejected = [x for x in picked if x not in configs]
    try:
        StoppingStrategy(strat, picked)
        diagnostics = []
    except InvalidStructure as err:
        diagnostics = err.diagnostics
    assert all(isinstance(d, NotAConfiguration) for d in diagnostics)
    assert sorted((d.data["member"] for d in diagnostics), key=cfgkey) \
        == sorted(rejected, key=cfgkey)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_kept_skeleton_conflicts_are_those_event_structure_accepts(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    edges = [p for p in combinations(range(n), 2) if rng.random() < 0.4]
    pairs = list(combinations(range(n), 2))
    kept = _without_common_successor(_closures(n, edges), pairs)
    for confl in _subsets(pairs):
        try:
            event_structure(range(n), edges, confl)
            accepted = True
        except InvalidStructure:
            accepted = False
        assert accepted == (set(confl) <= set(kept))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_cause_cycles_are_cycles_of_the_declared_causes(seed):
    rng = random.Random(seed)
    events = mixed_events(rng, rng.randint(2, 7))
    causes = [(a, b) for a, b in permutations(events, 2) if rng.random() < 0.3]
    causes.append((events[-1], events[0]))
    causes.append((events[0], events[-1]))
    try:
        event_structure(events, causes)
    except InvalidStructure as err:
        (diag,) = err.diagnostics
        assert isinstance(diag, CycleInCause)
        cycle = diag.data["cycle"]
        assert len(cycle) >= 3 and cycle[0] == cycle[-1]
        assert len(set(cycle)) == len(cycle) - 1
        assert all(edge in causes for edge in zip(cycle, cycle[1:]))
    else:
        raise AssertionError("a two-event cycle was accepted")


# ---- test enumeration up to isomorphism ---------------------------------------


def combo_shape(g, combo):
    """The polarities, assignment, middle and target of a test whose source
    events 0..n-1 take the (kind, move) entries of combo."""
    pol = dual(g).pol
    pols = {i: pol[a] if k == "g" else PLUS if k == "t" else NEUTRAL
            for i, (k, a) in enumerate(combo)}
    assign = {i: (1, a) if k == "g" else (2, i) if k == "n" else (3, TICK)
              for i, (k, a) in enumerate(combo)}
    neutrals = [i for i in range(len(combo)) if combo[i][0] == "n"]
    middle = Polarised(event_structure(neutrals),
                       {i: NEUTRAL for i in neutrals})
    return pols, assign, middle, shared_target(g, middle, success_game())


def exhaustive_tests(g, max_events, bare):
    """Every valid test over g in candidate order, relabellings included:
    each candidate built through event_structure and validated in full."""
    found = []
    for combo in _combos(g, max_events, bare):
        n = len(combo)
        pols, assign, middle, target = combo_shape(g, combo)
        for edges, _, free in _candidates(target, assign, pols):
            for confl in _subsets(free):
                src = Polarised(event_structure(range(n), edges, confl), pols)
                try:
                    found.append(bare_strategy(src, g, middle, success_game(),
                                               assign))
                except InvalidStructure:
                    pass
    return found


def iso_labels(t):
    """Each source event's assignment, with a middle event known by its kind
    only, as renaming the source renames the middle with it."""
    return {s: 2 if v[0] == 2 else v for s, v in t.sigma.mapping.items()}


def isomorphic_tests(t1, t2):
    return find_isomorphism(t1.source.es, t2.source.es,
                            iso_labels(t1), iso_labels(t2)) is not None


def label_key(t):
    """The multiset of t's labels, which isomorphic tests share."""
    return frozenset(Counter(iso_labels(t).values()).items())


def by_labels(tests):
    """The tests grouped by label_key, each group in order."""
    groups = {}
    for t in tests:
        groups.setdefault(label_key(t), []).append(t)
    return groups


def class_representatives(tests):
    """The first test of each isomorphism class, in order."""
    kept = set()
    for group in by_labels(tests).values():
        firsts = []
        for t in group:
            if not any(isomorphic_tests(t, k) for k in firsts):
                firsts.append(t)
        kept.update(map(id, firsts))
    return [t for t in tests if id(t) in kept]


def shape_of(t):
    return t.source, t.sigma.mapping, t.N


@given(seeds)
@settings(max_examples=8, deadline=None)
def test_enumeration_keeps_the_first_test_of_each_class(seed):
    g = random_game(random.Random(seed), 3)
    for max_events in (2, 3):
        for bare in (False, True):
            want = class_representatives(exhaustive_tests(g, max_events, bare))
            got = enumerate_tests(g, max_events, bare=bare)
            assert list(map(shape_of, got)) == list(map(shape_of, want))


@given(seeds)
@settings(max_examples=6, deadline=None)
def test_verdicts_agree_across_each_class(seed):
    rng = random.Random(seed)
    g = random_game(rng, 2)
    for bare, run in ((False, may_pass), (True, must_pass)):
        subjects = [random_stopping(rng, random_in_game_strategy(rng, g))
                    for _ in range(2)]
        kept = by_labels(enumerate_tests(g, 3, bare=bare))
        for key, group in by_labels(exhaustive_tests(g, 3, bare)).items():
            for t in group:
                (rep,) = [k for k in kept[key] if isomorphic_tests(t, k)]
                for s in subjects:
                    assert run(s, t).passed == run(s, rep).passed


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_skeletons_built_directly_are_those_event_structure_builds(seed):
    g = random_game(random.Random(seed), 2)
    for combo in _combos(g, 3, True):
        n = len(combo)
        pols, assign, _, target = combo_shape(g, combo)
        for edges, below, free in _candidates(target, assign, pols):
            for confl in _subsets(free):
                direct = _structure(n, below, inherited_conflicts(below, confl)[0])
                built = event_structure(range(n), edges, confl)
                assert direct.events == built.events
                assert all(direct.below(e) == built.below(e) for e in range(n))
                assert direct.maxcons == built.maxcons


def powerset(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def conflicting_player_moves():
    """Two Player moves in conflict: every test copies both as Opponent
    moves and must declare their conflict."""
    return game(event_structure(["p", "q"], conflicts=[("p", "q")]),
                {"p": PLUS, "q": PLUS})


def unpruned_tests(g, max_events, bare):
    """Every valid test over g with at most max_events source events, built
    without the enumeration's code: every multiset of labels, every set of
    cause edges over ordered pairs and every set of conflicts, each
    resulting structure validated once."""
    pol = dual(g).pol
    labels = [(1, a) for a in g.es.ordered] + [(3, TICK)]
    labels += [(2, None)] if bare else []
    found = []
    for n in range(max_events + 1):
        for combo in combinations_with_replacement(labels, n):
            assign = {i: (2, i) if v[0] == 2 else v for i, v in enumerate(combo)}
            pols = {i: pol[v[1]] if v[0] == 1 else PLUS if v[0] == 3
                    else NEUTRAL for i, v in enumerate(combo)}
            neutrals = [i for i, v in enumerate(combo) if v[0] == 2]
            middle = Polarised(event_structure(neutrals),
                               dict.fromkeys(neutrals, NEUTRAL))
            orders, built = {}, set()
            for edges in powerset(permutations(range(n), 2)):
                try:
                    es = event_structure(range(n), edges)
                except InvalidStructure:
                    continue
                orders.setdefault(es, edges)
            for edges in orders.values():
                for confl in powerset(combinations(range(n), 2)):
                    try:
                        es = event_structure(range(n), edges, confl)
                    except InvalidStructure:
                        continue
                    if es in built:
                        continue
                    built.add(es)
                    try:
                        found.append(bare_strategy(Polarised(es, pols), g,
                                                   middle, success_game(),
                                                   assign))
                    except InvalidStructure:
                        pass
    return found


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 5])
def test_enumeration_lists_every_valid_test_built_without_it(seed):
    # the oracle shares no pruning rule with enumerate_tests: each valid
    # test is isomorphic to exactly one listed test, and every listed test
    # is matched
    g = conflicting_player_moves() if seed is None else \
        random_game(random.Random(seed), 2)
    for max_events, bare in ((3, False), (2, True)):
        listed = by_labels(enumerate_tests(g, max_events, bare=bare))
        matched = set()
        for t in unpruned_tests(g, max_events, bare):
            same = [k for k in listed.get(label_key(t), ())
                    if isomorphic_tests(t, k)]
            assert len(same) == 1
            matched.add(id(same[0]))
        assert matched == {id(k) for ks in listed.values() for k in ks}


def test_conflicting_player_moves_have_tests_at_every_budget():
    g = conflicting_player_moves()
    assert [len(enumerate_tests(g, k, bare=bare))
            for k in (3, 4) for bare in (False, True)] == [4, 7, 10, 50]


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 5])
def test_synthesised_tests_within_the_budget_are_enumerated(seed):
    # a separating test of at most k source events is one of the tests
    # enumerate_tests(g, k) lists, up to isomorphism
    rng = random.Random(seed)
    g = conflicting_player_moves() if seed is None else random_game(rng, 2)
    k, checked = (4 if seed is None else 3), 0
    for _ in range(6):
        s1, s2 = (random_in_game_strategy(rng, g) for _ in range(2))
        m1, m2 = (random_stopping(rng, s) for s in (s1, s2))
        for bare, synthesize, a, b in ((False, synthesize_may_test, s1, s2),
                                       (True, synthesize_must_test, m1, m2)):
            gap = find_gap("must" if bare else "may", a, b)
            if gap is None:
                continue
            t = synthesize(b, gap)
            if len(t.source.events) <= k:
                listed = enumerate_tests(g, k, bare=bare)
                assert sum(isomorphic_tests(t, e) for e in listed) == 1
                checked += 1
    assert checked


# ---- inherited event orders -----------------------------------------------------


def assert_as_built(es):
    """The constructor's contract: events in ekey order, and maximal
    consistent sets that are an antichain without repeats."""
    assert es.ordered == sortedevents(es.events)
    assert len(set(es.maxcons)) == len(es.maxcons)
    assert set(es.maxcons) == set(maximal_sets(es.maxcons))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_inherited_event_orders_are_the_ekey_orders(seed):
    rng = random.Random(seed)
    a, b = random_game(rng, 3), random_game(rng, 3)
    sigma = random_bare(rng, a, b)
    tau = random_bare(rng, b, random_game(rng, 2))
    for built in (a, b, sigma.source, tau.source):  # binary event_structure
        assert_as_built(built.es)
    assert_as_built(parallel(dual(a), sigma.N, b).es)
    assert_as_built(copycat(a)[0].es)
    inter = interact(sigma, tau)
    for es in (inter.source.es, inter.N.es):
        assert_as_built(es)
        keep = [e for e in es.ordered if rng.random() < 0.6]
        assert_as_built(es.restrict(keep))
    assert_as_built(visible_part(inter)[0].source.es)
    for t in enumerate_tests(a, 3, bare=True):  # kept test skeletons
        assert_as_built(t.source.es)


# ---- bicategory laws on seeded draws ----------------------------------------------


def labelled_iso(a, b):
    """A source isomorphism of two strategies that commutes with their
    assignments, or None."""
    return find_isomorphism(a.source.es, b.source.es, label1=a.sigma.mapping,
                            label2=b.sigma.mapping)


def stopping_iso(a, b):
    """A labelled isomorphism of the strategies that carries the stopping
    sets of a onto those of b."""
    iso = labelled_iso(a.strat, b.strat)
    return iso is not None and \
        {frozenset(iso[e] for e in x) for x in a.stopping} == b.stopping


def game_chain(rng, i, n):
    return [random_game(rng, max_events=3, name=f"G{i}_{k}") for k in range(n)]


def test_composition_is_associative_on_random_triples():
    rng = random.Random(101)
    for i in range(30):
        a, b, c, d = game_chain(rng, i, 4)
        s, t, u = (random_strategy(rng, a, b), random_strategy(rng, b, c),
                   random_strategy(rng, c, d))
        assert labelled_iso(compose(compose(s, t), u),
                            compose(s, compose(t, u))) is not None, i


def test_stopping_composition_is_associative_on_random_triples():
    rng = random.Random(202)
    for i in range(30):
        a, b, c, d = game_chain(rng, i, 4)
        s, t, u = (stop_of(random_bare(rng, a, b)),
                   stop_of(random_bare(rng, b, c)),
                   stop_of(random_bare(rng, c, d)))
        assert stopping_iso(compose_stopping(compose_stopping(s, t), u),
                            compose_stopping(s, compose_stopping(t, u))), i


def test_copycat_is_identity_for_stopping_composition():
    rng = random.Random(303)
    for i in range(30):
        a, b = game_chain(rng, i, 2)
        s = random_stopping(rng, random_strategy(rng, a, b))
        for composite in (compose_stopping(s, stop_of(copycat_strategy(b))),
                          compose_stopping(stop_of(copycat_strategy(a)), s)):
            assert stopping_iso(composite, s), i


# ---- +-reflecting 2-cells -----------------------------------------------------------


def plus_reflection_gaps(f, src, dst):
    """The definition read over all pairs: each (x, y) with y above f(x) by
    Player or neutral events and no configuration above x with image y."""
    src_configs = src.configurations()
    gaps = []
    for x in src_configs:
        fx = frozenset(f[s] for s in x)
        for y in dst.configurations():
            if not (fx <= y and all(dst.source.pol[e] != MINUS
                                    for e in y - fx)):
                continue
            if not any(x <= x2 and frozenset(f[s] for s in x2) == y
                       for x2 in src_configs):
                gaps.append((x, y))
    return gaps


def assert_plus_reflection_matches_the_definition(f, src, dst):
    got = validate_two_cell(f, src, dst, "plus_reflecting")
    gaps = plus_reflection_gaps(f, src, dst)
    # one-step gaps are gaps; there is one exactly when there is any
    assert all(isinstance(d, NotPlusReflecting) for d in got)
    assert {(d.data["x"], d.data["y"]) for d in got} <= set(gaps)
    assert (got == []) == (gaps == [])
    return got == []


def test_plus_reflection_matches_the_definition_on_rigid_images():
    # the collapse f onto the rigid image reflects; its section, sending a
    # history to its least source event, misses the other branches that
    # play that history
    rng = random.Random(404)
    outcomes = Counter()
    for i in range(40):
        a, b = game_chain(rng, i, 2)
        sigma = random_strategy(rng, a, b)
        sigma0, f = rigid_image(sigma)
        cells = [(f, sigma, sigma0)]
        section = {}
        for e in sortedevents(sigma.source.events):
            section.setdefault(f[e], e)
        if validate_two_cell(section, sigma0, sigma) == []:
            cells.append((section, sigma0, sigma))
        for cell in cells:
            outcomes[assert_plus_reflection_matches_the_definition(*cell)] += 1
    assert outcomes[True] > 40 and outcomes[False] >= 5


def test_plus_reflection_matches_the_definition_on_fixtures():
    relay = fx.relay_b2_to_c()
    cells = [({e: e for e in relay.source.events}, relay, relay),
             ({"s": "s2"}, fx.press_b2(), fx.press_either()),
             ({"x1": "s", "x2": "s"}, fx.double_press_c(), fx.press_c()),
             ({"m": "n", "n": "n", "s": "s"}, fx.shot_or_stall(),
              fx.shot_after_step())]
    got = [assert_plus_reflection_matches_the_definition(*cell)
           for cell in cells]
    assert got == [True, False, True, False]


# ---- the preorders against their traces listed ----------------------------------------


def least_missing_trace(index, others):
    """The shortlex-least trace of index missing from others, by ekey, with
    the configuration index maps it to: the preorders' answer by listing."""
    missing = [tr for tr in index if tr not in others]
    if not missing:
        return None
    n = min(map(len, missing))
    alpha = min((tr for tr in missing if len(tr) == n),
                key=lambda tr: tuple(map(ekey, tr)))
    return index[alpha], alpha


def preorder_by_listing(kind, a, b):
    """may_preorder or must_preorder of a and b decided from every trace."""
    if kind == "may":
        v1 = strategy_of(a).visible
        index = testing._trace_index(v1, v1.configurations(), DEFAULT_LIMITS)
        others = finite_traces(b)
    else:
        s1 = a.visible
        index = testing._trace_index(s1.strat, s1.sorted_stopping(),
                                     DEFAULT_LIMITS)
        others = stopping_traces(b)
    gap = least_missing_trace(index, others)
    return gap is None, gap


def assert_preorders_match_listing(s1, s2):
    """Both preorders, both ways, give the verdict and gap of listing."""
    for a, b in ((s1, s2), (s2, s1)):
        assert may_preorder(a, b) == preorder_by_listing("may", a, b)
        if isinstance(a, StoppingStrategy):
            assert must_preorder(a, b) == preorder_by_listing("must", a, b)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_preorders_decide_by_order_inclusion_as_listing_does(seed):
    # in one game; stopping over bare strategies, read through their visible
    # parts; interactions; and strategies with moves in both games
    rng = random.Random(seed)
    g, b, c = random_game(rng, 4), random_game(rng, 2), random_game(rng, 3)
    s1, s2 = random_in_game_strategy(rng, g), random_in_game_strategy(rng, g)
    assert_preorders_match_listing(s1, s2)
    assert_preorders_match_listing(random_stopping(rng, s1),
                                   random_stopping(rng, s2))
    assert_preorders_match_listing(
        *(random_stopping(rng, random_bare(rng, EMPTY, g, min_neutrals=1))
          for _ in range(2)))
    t = random_stopping(rng, random_bare(rng, g, b))
    assert_preorders_match_listing(
        *(interact_stopping(random_stopping(rng, random_in_game_strategy(
            rng, g)), t) for _ in range(2)))
    draw = random_bare if rng.random() < 0.5 else random_strategy
    assert_preorders_match_listing(
        *(random_stopping(rng, draw(rng, b, c)) for _ in range(2)))


def test_preorders_decide_by_order_inclusion_on_the_benchmark_pools(
        monkeypatch):
    # the subject pairs of the bounded-tests workload, drawn as it draws them
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for rnd in range(30):
        rng = random.Random(f"bounded-tests:7:{rnd}")
        pairs = workloads._pairs(
            rng, workloads.MAY_STRATA,
            lambda g: random_in_game_strategy(rng, g), workloads._may_holds)
        pairs += workloads._pairs(
            rng, workloads.MUST_STRATA,
            lambda g: random_stopping(rng, random_in_game_strategy(rng, g)),
            workloads._must_holds)
        for _, _, s1, s2 in pairs:
            assert_preorders_match_listing(s1, s2)


# ---- preorders on interactions, which keep their middle as neutral events -----------


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_preorders_on_interactions_agree_with_their_tests(seed):
    # the preorders read a stopping strategy over a bare one through its
    # visible part: no gap holds a hidden move, a preorder that holds
    # includes the budget-3 tests, and one that fails is separated by the
    # test synthesised from its gap
    rng = random.Random(seed)
    b, c = random_game(rng, 2), random_game(rng, 2)
    subjects = []
    for _ in range(2):
        s = random_stopping(rng, random_in_game_strategy(rng, b))
        draw = random_bare if rng.random() < 0.5 else random_strategy
        t = random_stopping(rng, draw(rng, b, c))
        subjects.append(interact_stopping(s, t))
        assert must_preorder(subjects[-1], compose_stopping(s, t))[0]
        assert may_preorder(compose_stopping(s, t), subjects[-1])[0]
    p1, p2 = subjects
    tests = enumerate_tests(c, 3, bare=True)
    for preorder, run, synthesize, passing, other in (
            (may_preorder, may_pass, synthesize_may_test, p1, p2),
            (must_preorder, must_pass, synthesize_must_test, p2, p1)):
        holds, gap = preorder(p1, p2)
        if holds:
            assert all(run(other, t).passed for t in tests
                       if run(passing, t).passed)
            continue
        assert all(j == 3 and e in c.events for j, e in gap[1])
        t = synthesize(p2, gap)
        assert run(passing, t).passed and not run(other, t).passed


# ---- warm answers equal cold answers -------------------------------------------------


CAPS = (0, 1, 2, 3, 5, None)  # None: the default limits
READERS = (BareStrategy.configurations, BareStrategy.configurations_by_image,
           stop_of)


def limits_of(cap):
    return DEFAULT_LIMITS if cap is None else EngineLimits(max_configs=cap)


def as_value(x):
    """An answer as a value shared by objects parsed apart from one text."""
    if isinstance(x, StoppingStrategy):
        return "stopping", as_value(x.strat), x.stopping
    if isinstance(x, BareStrategy):
        return (x.source, x.A, x.N, x.B,
                frozenset(x.sigma.mapping.items()))
    if isinstance(x, list):
        return tuple(map(as_value, x))
    return x


def outcome(call):
    """call()'s result, or None when it raised, and its answer as a value:
    an error as its type, its text and its data."""
    try:
        got = call()
    except EsgError as err:
        return None, (type(err), str(err), err.data)
    return got, as_value(got)


def cold_copy(s):
    """s built again with nothing derived on it: parsing validates, and so
    walks a strategy's configurations."""
    if isinstance(s, StoppingStrategy):
        return StoppingStrategy(cold_copy(s.strat), s.stopping, name=s.name)
    return BareStrategy(s.source, s.A, s.N, s.B, s.sigma.mapping, name=s.name)


def rebuild(recipe, ws):
    """The object a recipe names, built cold from the workspace ws."""
    kind, *args = recipe
    if kind == "def":
        return cold_copy(ws.get(args[0]).obj)
    if kind == "test":
        game_name, max_events, bare, i = args
        return cold_copy(enumerate_tests(ws.get(game_name).obj, max_events,
                                         bare)[i])
    if kind == "stop_of":
        return stop_of(strategy_of(rebuild(args[0], ws)))
    pairing = interact if kind == "interact" else compose
    return pairing(*(strategy_of(rebuild(r, ws)) for r in args))


class KeptDataMachine(RuleBasedStateMachine):
    """Every kept table read in every order: each answer on the working
    objects, warm from earlier calls, equals the answer on cold objects
    parsed from the same text with the module tables cleared. The working
    objects come from two parses of one text, so equal games built apart
    meet; the second parse's strategies are cold copies, whose first
    configuration walk may run under any cap. Kept enumerations are capped
    low, and follow a model of their least-recently-used table."""

    def __init__(self):
        super().__init__()
        # objects earlier tests built stay out of the collections below
        gc.freeze()
        self.saved = OrderedDict(testing._kept), testing._KEPT_TESTS
        testing._kept.clear()
        testing._KEPT_TESTS = 8
        self.lru = OrderedDict()  # key -> number of tests, oldest first
        self.last = {}  # key -> the tests of its last enumeration
        self.items, self.tests = [], []  # (recipe, working object)
        self.asked = []  # the enumerations asked for, oldest first

    def teardown(self):
        kept, testing._KEPT_TESTS = self.saved
        testing._kept.clear()
        testing._kept.update(kept)
        gc.unfreeze()

    @initialize(seed=seeds)
    def parse_a_text(self, seed):
        rng = random.Random(seed)
        b, c = random_game(rng, 2), random_game(rng, 2)
        s = random_in_game_strategy(rng, b)
        bare = random_bare(rng, EMPTY, b, min_neutrals=1)
        tau = (random_bare if rng.random() < 0.5 else random_strategy)(
            rng, b, c)
        out = cli._Out(Workspace())
        out.strategy_def(s, "s")
        out.stopping_def(random_stopping(rng, s), "s_st")
        out.stopping_def(random_stopping(rng, bare), "bare_st")
        out.strategy_def(tau, "tau")
        self.text = print_workspace(out.ws)
        self.games = []
        for copy in (lambda s: s, cold_copy):
            ws = parse(self.text)
            self.games += [(d.name, d.obj) for d in ws if d.kind == "game"]
            self.items += [(("def", name), copy(ws.get(name).obj))
                           for name in ("s", "s_st", "bare_st", "tau")]

    def same_cold(self, warm, cold):
        """warm(), on the working objects, answers as cold(ws) does on a
        fresh parse ws of the text with the module tables cleared; returns
        warm's result, or None when it raised."""
        got, seen = outcome(warm)
        kept, targets = OrderedDict(testing._kept), strategies._targets
        testing._kept.clear()
        strategies._targets = weakref.WeakValueDictionary()
        try:
            fresh = parse(self.text)
            _, want = outcome(lambda: cold(fresh))
        finally:
            testing._kept.clear()
            testing._kept.update(kept)
            strategies._targets = targets
        assert seen == want
        return got

    @rule(i=st.integers(0, 99), max_events=st.integers(1, 3),
          bare=st.booleans())
    def enumerate_over(self, i, max_events, bare):
        name, g = self.games[i % len(self.games)]
        key = g, max_events, bare
        tests = enumerate_tests(g, max_events, bare)
        kept = key in self.lru
        if tests:  # a kept enumeration hands out the same test objects
            assert kept == (tests[0] is self.last.get(key, [None])[0])
        if not kept:
            self.lru[key] = len(tests)
            while sum(self.lru.values()) > testing._KEPT_TESTS \
                    and len(self.lru) > 1:
                self.lru.popitem(last=False)
        self.lru.move_to_end(key)
        # the newest enumeration always stays
        assert all(map(operator.is_, enumerate_tests(g, max_events, bare),
                       tests))
        self.last[key] = tests
        self.asked.append((i, max_events, bare))
        self.same_cold(lambda: tests, lambda ws: enumerate_tests(
            ws.get(name).obj, max_events, bare))
        picks = {0, len(tests) // 2, len(tests) - 1} if tests else ()
        self.tests += [(("test", name, max_events, bare, j), tests[j])
                       for j in sorted(picks)]

    @rule(back=st.integers(1, 3))
    @precondition(lambda self: self.asked)
    def enumerate_again(self, back):
        self.enumerate_over(*self.asked[-min(back, len(self.asked))])

    @rule(i=st.integers(0, 99), j=st.integers(0, 99),
          cap=st.sampled_from(CAPS), must=st.booleans())
    @precondition(lambda self: self.tests)
    def run(self, i, j, cap, must):
        (rs, sub), (rt, test) = (self.items[i % len(self.items)],
                                 self.tests[j % len(self.tests)])
        runner = must_pass if must else may_pass
        for _ in range(2):  # the second run reads what the first kept
            self.same_cold(lambda: runner(sub, test, limits_of(cap)),
                           lambda ws: runner(rebuild(rs, ws), rebuild(rt, ws),
                                             limits_of(cap)))

    @rule(i=st.integers(0, 99), cap=st.sampled_from(CAPS),
          reader=st.sampled_from(READERS))
    def read(self, i, cap, reader):
        recipe, obj = self.items[i % len(self.items)]
        got = self.same_cold(
            lambda: reader(strategy_of(obj), limits_of(cap)),
            lambda ws: reader(strategy_of(rebuild(recipe, ws)),
                              limits_of(cap)))
        if reader is stop_of and got is not None:
            self.keep(("stop_of", recipe), got)

    @rule(i=st.integers(0, 99), j=st.integers(0, 99),
          cap=st.sampled_from(CAPS), hide=st.booleans())
    def pair(self, i, j, cap, hide):
        # the second strategy from one of those that leave the empty game
        onward = [it for it in self.items if strategy_of(it[1]).A.events]
        (r1, s1), (r2, s2) = (self.items[i % len(self.items)],
                              onward[j % len(onward)])
        kind, pairing = ("compose", compose) if hide else \
            ("interact", interact)
        got = self.same_cold(
            lambda: pairing(strategy_of(s1), strategy_of(s2), limits_of(cap)),
            lambda ws: pairing(strategy_of(rebuild(r1, ws)),
                               strategy_of(rebuild(r2, ws)), limits_of(cap)))
        if got is not None:
            self.keep((kind, r1, r2), got)

    def keep(self, recipe, made):
        if len(self.items) < 24:
            self.items.append((recipe, made))

    @rule(i=st.integers(0, 99))
    def drop_and_collect(self, i):
        # a derived item goes; gc drops the weak targets no one holds
        derived = [k for k, (r, _) in enumerate(self.items) if r[0] != "def"]
        if derived:
            del self.items[derived[i % len(derived)]]
        gc.collect()


TestKeptDataMachine = KeptDataMachine.TestCase
TestKeptDataMachine.settings = settings(
    max_examples=25, stateful_step_count=25, derandomize=True, deadline=None)
