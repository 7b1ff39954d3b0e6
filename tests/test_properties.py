"""Law checks on seeded random structures.

Hypothesis drives the seeds; the generators in randgen turn a seed into
games and strategies deterministically, so every failure replays.
"""

import inspect
import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esgames import fixtures as fx
from esgames.errors import (
    Cycle,
    CycleInCause,
    ImageMismatch,
    InvalidStructure,
    NotAConfiguration,
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
    is_deterministic,
    is_race_free,
    minus_subset,
    parallel,
    scott_leq,
    slice_config,
)
from esgames.interaction import (
    _padding,
    enumerate_secured_bijections,
    glue,
    interact,
    pair_configs,
    prime_event,
    prime_top,
    secured_bijection,
)
from esgames.limits import EngineLimits
from esgames.randgen import (
    _random_source,
    _target_shape,
    random_bare,
    random_game,
    random_in_game_strategy,
    random_stopping,
    random_strategy,
)
from esgames.rigid import rigid_image_stopping
from esgames.strategies import (
    BareStrategy,
    StoppingStrategy,
    bare_strategy,
    copycat_strategy,
    saturate_stopping,
    stop_of,
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
    _candidates,
    _closures,
    _combos,
    _structure,
    _subsets,
    _without_common_successor,
    enumerate_tests,
    finite_traces,
    may_pass,
    must_pass,
    stopping_traces,
    success_game,
    traces_of,
)

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
    accepts, as its pair set, with the primes those bijections have; a pair
    whose images differ raises ImageMismatch, so only equal images are tried."""
    f, g = ESMap(left.es, None, lmap), ESMap(right.es, None, rmap)
    by_image = {}
    for y in right.es.configurations():
        by_image.setdefault(frozenset(rmap[e] for e in y), []).append(y)
    bijections, primes = set(), set()
    for x in left.es.configurations():
        for y in by_image.get(frozenset(lmap[e] for e in x), ()):
            try:
                theta = secured_bijection(f, g, x, y)
            except (ImageMismatch, Cycle):
                continue
            bijections.add(theta.pairs)
            primes.update(theta.below(p) for p in theta.pairs)
    return bijections, primes


@given(seeds)
@example(10)  # conflicts on both padded sides
@example(25)  # three maximal consistent sets on the left
@settings(max_examples=30, deadline=None)
def test_pullback_enumeration_is_exhaustive_and_capped_exactly(seed):
    sigma, tau = padded_bare_pair(seed)
    left, right, lmap, rmap = padding = _padding(sigma, tau)
    bijections, primes = secured_bijections_exhaustively(*padding)
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
                assert len(inter._prime_map) == len(bijections)
                assert len(inter.source.events) == len(primes)


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


def combo_polarities(pol, combo):
    return {i: pol[a] if k == "g" else PLUS if k == "t" else NEUTRAL
            for i, (k, a) in enumerate(combo)}


def exhaustive_tests(g, max_events, bare):
    """Every valid test over g in candidate order, relabellings included:
    each candidate built through event_structure and validated in full."""
    pol = dual(g).pol
    found = []
    for combo in _combos(g, max_events, bare):
        n = len(combo)
        pols = combo_polarities(pol, combo)
        assign = {i: (1, a) if k == "g" else (2, i) if k == "n" else (3, TICK)
                  for i, (k, a) in enumerate(combo)}
        neutrals = [i for i in range(n) if combo[i][0] == "n"]
        middle = Polarised(event_structure(neutrals),
                           {i: NEUTRAL for i in neutrals})
        for edges, _, free in _candidates(g, combo, pols):
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


def by_labels(tests):
    """The tests grouped by the multiset of their labels, which isomorphic
    tests share, each group in order."""
    groups = {}
    for t in tests:
        key = frozenset(Counter(iso_labels(t).values()).items())
        groups.setdefault(key, []).append(t)
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
    pol = dual(g).pol
    for combo in _combos(g, 3, True):
        n = len(combo)
        pols = combo_polarities(pol, combo)
        for edges, below, free in _candidates(g, combo, pols):
            for confl in _subsets(free):
                direct = _structure(n, below, inherited_conflicts(below, confl)[0])
                built = event_structure(range(n), edges, confl)
                assert direct.events == built.events
                assert all(direct.below(e) == built.below(e) for e in range(n))
                assert direct.maxcons == built.maxcons


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
