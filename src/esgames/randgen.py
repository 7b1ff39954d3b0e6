"""Seeded random games and strategies for the property and acceptance suites.

Every generator takes an explicit random.Random so suites stay reproducible.
Candidates are built from shapes that are usually valid and then passed
through the real validators; the rare reject is resampled. Iteration is over
sorted events throughout, so a seed pins the output exactly.
"""

from .errors import InvalidStructure
from .games import (EMPTY, MINUS, NEUTRAL, PLUS, Polarised, game,
                    is_race_free, no_plus_extension)
from .strategies import StoppingStrategy, bare_strategy, shared_target, strategy
from .structures import ekey, event_structure

ATTEMPTS = 200


def random_game(rng, max_events=5, min_events=1, race_free=True, name=""):
    """A small game; by default one without Player/Opponent races."""
    for _ in range(ATTEMPTS):
        n = rng.randint(min_events, max_events)
        events = [f"a{i}" for i in range(n)]
        causes = [(events[i], events[j])
                  for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.25]
        conflicts = [(events[i], events[j])
                     for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.15]
        pol = {e: rng.choice((PLUS, MINUS)) for e in events}
        try:
            g = game(event_structure(events, causes, conflicts), pol, name=name)
        except InvalidStructure:
            continue
        if race_free and not is_race_free(g)[0]:
            continue
        return g
    n = max(min_events, 1)
    return game(event_structure([f"a{i}" for i in range(n)]),
                {f"a{i}": PLUS for i in range(n)}, name=name)


def _receptive_core(tpol, torder, picked):
    """Close a picked event set under Opponent moves it would have to admit."""
    strict = {e: set() for e in tpol}
    for (c, e) in torder:
        strict[e].add(c)
    changed = True
    while changed:
        changed = False
        for e in tpol:
            if e in picked or tpol[e] != MINUS:
                continue
            if strict[e] <= picked:
                picked.add(e)
                changed = True
    return picked


def _random_source(rng, tpol, torder, tclashes):
    """A candidate strategy source over the given target shape."""
    picked = {e for e in sorted(tpol, key=ekey)
              if rng.random() < (0.5 if tpol[e] == MINUS else 0.65)}
    picked = _receptive_core(tpol, torder, picked)
    events = sorted(picked, key=ekey)
    causes = [(c, e) for (c, e) in torder if c in picked and e in picked]
    below = {e: {c for (c, d) in causes if d == e} for e in events}
    # awaits: extra causes out of Opponent/neutral moves into Player/neutral
    for m in events:
        if tpol[m] == PLUS:
            continue
        for p in events:
            if tpol[p] == MINUS or p == m or m in below[p] or p in below[m]:
                continue
            if rng.random() < 0.25:
                causes.append((m, p))
    conflicts = [(c, e) for (c, e) in tclashes
                 if c in picked and e in picked]
    plus = [e for e in events if tpol[e] == PLUS]
    for i, p in enumerate(plus):
        for q in plus[i + 1:]:
            if rng.random() < 0.2:
                conflicts.append((p, q))
    assign = {e: e for e in events}
    pol = {e: tpol[e] for e in events}
    # sometimes split one Player move into two exclusive branches
    if plus and rng.random() < 0.45:
        p = rng.choice(plus)
        d = ("dup", p)
        events.append(d)
        causes += [(c, d) for (c, e) in causes if e == p]
        conflicts += [(d if u == p else u, d if v == p else v)
                      for (u, v) in conflicts if p in (u, v)]
        conflicts.append((p, d))
        assign[d] = p
        pol[d] = PLUS
    return events, causes, conflicts, pol, assign


def _fallback_source(tpol, torder, tclashes):
    # the purely receptive source that volunteers nothing always validates
    picked = _receptive_core(tpol, torder, set())
    events = sorted(picked, key=ekey)
    causes = [(c, e) for (c, e) in torder if c in picked and e in picked]
    conflicts = [(c, e) for (c, e) in tclashes
                 if c in picked and e in picked]
    return (Polarised(event_structure(events, causes, conflicts),
                      {e: tpol[e] for e in events}),
            {e: e for e in events})


def random_strategy(rng, A, B):
    """A valid strategy from A to B (neutral-free source)."""
    return _draw(rng, A, EMPTY, B, lambda src, assign: strategy(
        src, A, B, assign))


def random_in_game_strategy(rng, g):
    return random_strategy(rng, EMPTY, g)


def random_bare(rng, A, B, min_neutrals=0):
    """A valid bare strategy from A to B with a middle of up to two neutral
    events."""
    k = rng.randint(min_neutrals, 2)
    middle_events = [f"n{i}" for i in range(k)]
    middle = Polarised(event_structure(middle_events),
                       {m: NEUTRAL for m in middle_events})
    return _draw(rng, A, middle, B, lambda src, assign: bare_strategy(
        src, A, middle, B, assign))


def _draw(rng, A, middle, B, build):
    """build(source, assign) on random candidates over dual(A) || N || B
    until one validates, else on the fallback source. The target is held
    for the whole draw, so that validation reads the one built here."""
    target = shared_target(A, middle, B)
    shape = target.pol, target.es.immediate_pairs(), \
        target.es.inconsistent_pairs()
    for _ in range(ATTEMPTS):
        events, causes, conflicts, pol, assign = _random_source(rng, *shape)
        try:
            return build(Polarised(event_structure(events, causes, conflicts),
                                   pol), assign)
        except InvalidStructure:
            continue
    return build(*_fallback_source(*shape))


def random_stopping(rng, st):
    """Random stopping data over a strategy: biased to +-maximal configs."""
    src, graph = st.source, st.configuration_graph()
    maxes = [x for x, ext in graph.items() if no_plus_extension(src, ext)]
    stopping = set()
    for x, ext in graph.items():
        if rng.random() < (0.7 if no_plus_extension(src, ext) else 0.15):
            stopping.add(x)
    if not stopping and rng.random() < 0.9:
        stopping.add(rng.choice(maxes) if maxes else st.configurations()[-1])
    return StoppingStrategy(st, stopping)
