"""Law checks on seeded random structures.

Hypothesis drives the seeds; the generators in randgen turn a seed into
games and strategies deterministically, so every failure replays.
"""

import random
from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from esgames import fixtures as fx
from esgames.games import (
    MINUS,
    PLUS,
    copycat,
    is_deterministic,
    is_race_free,
    parallel,
    plus_maximal_configs,
    scott_leq,
    slice_config,
)
from esgames.randgen import (
    random_bare,
    random_game,
    random_in_game_strategy,
    random_stopping,
    random_strategy,
)
from esgames.rigid import rigid_image_stopping
from esgames.strategies import (
    saturate_stopping,
    stop_of,
    validate_two_cell,
    visible_part,
)
from esgames.structures import event_structure
from esgames.testing import (
    enumerate_tests,
    finite_traces,
    may_pass,
    must_pass,
    stopping_traces,
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
