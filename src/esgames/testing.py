"""Traces, may/must testing, the two preorders, and distinguishing-test synthesis.

A test is a bare strategy from a game into the one-move success game; a
subject passes in the may sense when some pairing reaches the success move,
and in the must sense when every stopping pairing does.
"""

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import (chain, combinations, combinations_with_replacement,
                       groupby, permutations, product)

from .errors import (Cycle, GameMismatch, InvalidStructure, NotAGap,
                     SizeBoundExceeded)
from .games import (MINUS, NEUTRAL, PLUS, Polarised, component, dual, game,
                    payload)
from .interaction import glue
from .limits import DEFAULT_LIMITS
from .strategies import StoppingStrategy, bare_strategy, stop_of, strategy
from .structures import (EventStructure, ekey, event_structure,
                         inherited_conflicts, maximal_consistent_sets,
                         reflexive_closures, sortedevents)

TICK = "tick"


@cache
def success_game():
    """The one-move game a test reports success in."""
    return game(event_structure([TICK]), {TICK: PLUS}, name="success")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a test run; witness is a (subject, test) configuration pair."""
    passed: bool
    witness: tuple = None

    def __bool__(self):
        return self.passed


# ---- traces ------------------------------------------------------------------------


def _linearisations(sigma, x):
    """Yield the image of each linear extension of the order inside x.

    The images are pairwise distinct, as sigma is injective on x.
    """
    x = frozenset(x)
    src = sigma.source.es
    preds = {s: (src.strict_below(s) & x) for s in x}
    prefix = []

    def grow(placed, remaining):
        if not remaining:
            yield tuple(prefix)
            return
        for s in sorted(remaining, key=src.rank.__getitem__):
            if preds[s] <= placed:
                prefix.append(sigma.assigned(s))
                yield from grow(placed | {s}, remaining - {s})
                prefix.pop()

    return grow(frozenset(), x)


def traces_of(sigma, x, limits=DEFAULT_LIMITS):
    """All enumerations of the image of x compatible with the order inside x.

    Events of the result carry their target tags. Every configuration has at
    least one trace; the empty configuration has exactly the empty trace.
    Raises SizeBoundExceeded as soon as more than limits.max_configs traces
    have been generated.
    """
    out = set()
    for tr in _linearisations(sigma, x):
        out.add(tr)
        if len(out) > limits.max_configs:
            raise SizeBoundExceeded(
                f"more than {limits.max_configs} traces of one configuration",
                cap=limits.max_configs)
    return frozenset(out)


def _trace_index(sigma, configs, limits):
    """trace -> first configuration realising it; configs come smallest first."""
    index = {}
    for x in configs:
        for tr in traces_of(sigma, x, limits):
            index.setdefault(tr, x)
        if len(index) > limits.max_configs:
            raise SizeBoundExceeded(
                f"more than {limits.max_configs} distinct traces",
                cap=limits.max_configs)
    return index


def finite_traces(sigma, limits=DEFAULT_LIMITS):
    """Traces of every finite configuration; prefix-closed by construction."""
    sigma = _visible(sigma)
    return frozenset(_trace_index(sigma, sigma.configurations(limits), limits))


def stopping_traces(s, limits=DEFAULT_LIMITS):
    """Traces of the stopping configurations only."""
    return frozenset(_trace_index(s.strat, s.sorted_stopping(), limits))


def _visible(s):
    return s.strat if isinstance(s, StoppingStrategy) else s.visible


# ---- running tests -----------------------------------------------------------------


def _as_stopping(subject, limits):
    if isinstance(subject, StoppingStrategy):
        return subject
    return stop_of(subject, limits)


def _check_test_shape(subject, test):
    if subject.A.events:
        raise GameMismatch("test subjects play in a single game",
                           left=subject.A)
    if test.B != success_game():
        raise GameMismatch("a test must target the success game", right=test.B)
    # a shared test meets many subjects over equal but distinct games: each
    # game object is compared once, as long as it is the last one met
    game = subject.B
    if test._matched_game is not game:
        if test.A != game:
            raise GameMismatch("subject and test play different games",
                               left=game, right=test.A)
        test._matched_game = game


def _ticks(bs, y):
    return any(bs.assigned(t) == (3, TICK) for t in y)


def _runs(t, configs, ticking):
    """(image on the game, y) for each y of configs that reaches the success
    move or, with ticking false, does not; in the order of configs."""
    return tuple((t.image_on(1, y), y) for y in configs
                 if _ticks(t, y) == ticking)


def _may_runs(test, limits):
    """The test's visible part and its ticking runs, kept on the test."""
    tvis = test.visible
    configs = tvis.configurations(limits)
    if test._may_runs is None:
        test._may_runs = _runs(tvis, configs, True)
    return tvis, test._may_runs


def _must_runs(tstop):
    """The non-ticking runs of the test's stopping configurations; kept on
    the stopping strategy."""
    if tstop._must_runs is None:
        tstop._must_runs = _runs(tstop.strat, tstop.sorted_stopping(), False)
    return tstop._must_runs


def _first_glued(sub, t, runs, by_image):
    """The least (x, y) that glues: y from the test t's runs in their order,
    x from the subject's configurations with y's image on the game; or None."""
    for image, y in runs:
        for x in by_image.get(image, ()):
            if glue(sub, t, x, y) is not None:
                return x, y
    return None


def may_pass(subject, test, limits=DEFAULT_LIMITS):
    """Some pairing of configurations reaches the success move.

    The test's ticking configurations are tried in configuration order, so
    the witness is the least such pairing.
    """
    sub = _visible(subject)
    _check_test_shape(sub, test)
    tvis, runs = _may_runs(test, limits)
    wit = _first_glued(sub, tvis, runs, sub.configurations_by_image(limits))
    return Verdict(wit is not None, wit)


def must_pass(subject, test, limits=DEFAULT_LIMITS):
    """Every stopping pairing reaches the success move.

    Both sides are taken at their stopping sets; the test's is derived with
    stop_of. The least pairing of stopping configurations whose test half
    lacks the success move is the returned counterexample.
    """
    sub = _as_stopping(subject, limits)
    _check_test_shape(sub.strat, test)
    tstop = stop_of(test, limits)
    wit = _first_glued(sub.strat, tstop.strat, _must_runs(tstop),
                       sub.stopping_by_image())
    return Verdict(wit is None, wit)


# ---- the two preorders ---------------------------------------------------------------


def _require_same_game(b1, b2):
    if b1.A != b2.A or b1.B != b2.B:
        raise GameMismatch("preorders compare strategies over one game",
                           left=(b1.A, b1.B), right=(b2.A, b2.B))


def _least_gap(index, others):
    missing = [tr for tr in index if tr not in others]
    if not missing:
        return None
    alpha = min(missing, key=lambda tr: (len(tr), tuple(ekey(e) for e in tr)))
    return index[alpha], alpha


def may_preorder(sigma1, sigma2, limits=DEFAULT_LIMITS):
    """Trace inclusion; holds iff sigma2 may-passes every test sigma1 does."""
    v1, v2 = _visible(sigma1), _visible(sigma2)
    _require_same_game(v1, v2)
    index = _trace_index(v1, v1.configurations(limits), limits)
    gap = _least_gap(index, finite_traces(v2, limits))
    return gap is None, gap


def must_preorder(s1, s2, limits=DEFAULT_LIMITS):
    """Stopping-trace inclusion; holds iff every test s2 must-passes, s1 does."""
    if not (isinstance(s1, StoppingStrategy) and isinstance(s2, StoppingStrategy)):
        raise GameMismatch("the must preorder compares stopping strategies")
    _require_same_game(s1.strat, s2.strat)
    index = _trace_index(s1.strat, s1.sorted_stopping(), limits)
    gap = _least_gap(index, stopping_traces(s2, limits))
    return gap is None, gap


def find_gap(kind, s1, s2, limits=DEFAULT_LIMITS):
    """Shortest witness that the chosen preorder fails, or None."""
    if kind == "may":
        return may_preorder(s1, s2, limits)[1]
    if kind == "must":
        return must_preorder(s1, s2, limits)[1]
    raise ValueError(f"unknown preorder kind {kind!r}")


# ---- synthesis of distinguishing tests -----------------------------------------------


def _gap_payloads(g, alpha):
    out = []
    for e in alpha:
        e = payload(e) if component(e) == 3 else e
        if e not in g.events:
            raise NotAGap(f"trace event {e!r} is not a move of the game",
                          event=e)
        out.append(e)
    return out


def _saturation(g, t1):
    """Events whose history outside t1 consists of moves the test itself owns;
    with t1 empty, the moves every test must be ready for."""
    return {a for a in g.events
            if all(g.pol[b] == PLUS for b in g.es.below(a) - t1)}


def _reversal_edges(v2, configs, t1, pos):
    """One order-reversing edge per configuration of v2 with image t1.

    The chosen pair puts the image of a Player event before the image of the
    Opponent event that enables it, so the test's order disagrees with every
    such configuration at once. Raises NotAGap when one of them has no such
    pair, as its order then allows the trace.
    """
    edges = set()
    immediate = v2.source.es.immediate_pairs()
    for x2 in configs:
        if {payload(v2.assigned(s)) for s in x2} != t1 or len(x2) != len(t1):
            continue
        best = None
        for s, sp in immediate:
            if s in x2 and sp in x2 \
                    and v2.source.pol[s] == MINUS and v2.source.pol[sp] == PLUS:
                key = (pos[payload(v2.assigned(sp))], pos[payload(v2.assigned(s))])
                if key[0] < key[1] and (best is None or key < best):
                    best = key
        if best is None:
            raise NotAGap(f"configuration {sortedevents(x2)} allows the order"
                          " of the trace", config=x2)
        edges.add((best[0], best[1]))
    return edges


def _fresh_tag(tag, moves):
    """tag, primed until no pair (tag, m) with m among moves is a move."""
    while any((tag, m) in moves for m in moves):
        tag += "'"
    return tag


def _replay(v2, gap, configs, own, limits):
    """The gap trace replayed against v2 over configs(), the configurations
    of v2 that count: the game, the trace's moves t1, their saturation t1p,
    the causes of t1p (the game's order, then the reversal edges), the
    game's conflicts among t1p and the swapped polarities of t1p.

    configs() runs only once the trace is known to be made of moves of one
    game; NotAGap(own) is raised when one of them realises the trace.
    """
    if v2.A.events:
        raise GameMismatch("tests are synthesised over a single game")
    g = v2.B
    _, trace = gap
    alpha = _gap_payloads(g, trace)
    t1 = set(alpha)
    configs = configs()
    if tuple((3, a) for a in alpha) in _trace_index(v2, configs, limits):
        raise NotAGap(own, trace=trace)
    pos = {a: i for i, a in enumerate(alpha)}
    t1p = _saturation(g, t1)
    causes = [(b, a) for a in t1p for b in g.es.strict_below(a) & t1p]
    causes += [(alpha[i], alpha[j])
               for i, j in _reversal_edges(v2, configs, t1, pos)]
    # a test that holds both moves of a game conflict consistent would map
    # an inconsistent set onto the game
    conflicts = [(a, b) for a, b in g.es.inconsistent_pairs()
                 if a in t1p and b in t1p]
    pol = dual(g).pol
    return g, t1, t1p, causes, conflicts, {a: pol[a] for a in t1p}


def synthesize_may_test(sigma2, gap, limits=DEFAULT_LIMITS):
    """A neutral-free test that the gap's owner may-passes and sigma2 does not.

    The test replays the gap trace from the other side: the trace's moves with
    roles swapped, every Opponent move the test can reach on its own, an order
    edge against each configuration of sigma2 with the same image, and a
    success move enabled once all of the trace's swapped-to-Opponent moves are
    in.
    """
    v2 = _visible(sigma2)
    g, t1, t1p, causes, conflicts, pols = _replay(
        v2, gap, lambda: v2.configurations(limits),
        "the trace is one of sigma2's own", limits)
    tick = TICK if TICK not in t1p else ("k", TICK)
    causes += [(t, tick) for t in t1 if g.pol[t] == PLUS]
    src = Polarised(event_structure(sortedevents(t1p) + (tick,), causes,
                                    conflicts),
                    pols | {tick: PLUS})
    assign = {a: (1, a) for a in t1p} | {tick: (3, TICK)}
    return strategy(src, g, success_game(), assign,
                    name="separating-test", limits=limits)


def synthesize_must_test(s2, gap, limits=DEFAULT_LIMITS):
    """A bare test that s2 must-passes while any owner of the gap trace fails.

    On top of the may construction: a neutral shadow above each swapped
    Opponent move of the trace, and a success move for every trace event plus
    every saturation event, mutually conflicting. A trace event blocks its own
    success move, directly when the test does not own the move, through its
    neutral shadow when it does; saturation events enable theirs instead, so
    only the exact trace image can starve success.
    """
    if not isinstance(s2, StoppingStrategy):
        raise GameMismatch("must synthesis runs against a stopping strategy")
    g, t1, t1p, causes, conflicts, pols = _replay(
        s2.strat, gap, s2.sorted_stopping,
        "the trace is one of s2's stopping traces", limits)
    shadow, success = _fresh_tag("n", t1p), _fresh_tag("v", t1p)
    shadows = {t: (shadow, t) for t in t1 if g.pol[t] == PLUS}
    ticks = {t: (success, t) for t in t1p}

    causes += [(t, n) for t, n in shadows.items()]
    causes += [(a, ticks[a]) for a in t1p - t1]

    conflicts += combinations(sortedevents(ticks.values()), 2)
    conflicts += [(t, ticks[t]) for t in t1 if g.pol[t] == MINUS]
    conflicts += [(n, ticks[t]) for t, n in shadows.items()]

    events = (sortedevents(t1p) + sortedevents(shadows.values())
              + sortedevents(ticks.values()))
    pols |= {n: NEUTRAL for n in shadows.values()}
    pols |= {v: PLUS for v in ticks.values()}
    src = Polarised(event_structure(events, causes, conflicts), pols)
    middle = Polarised(event_structure(sortedevents(shadows.values())),
                       {n: NEUTRAL for n in shadows.values()})
    assign = {a: (1, a) for a in t1p}
    assign |= {n: (2, n) for n in shadows.values()}
    assign |= {v: (3, TICK) for v in ticks.values()}
    return bare_strategy(src, g, middle, success_game(), assign,
                         name="separating-must-test", limits=limits)


# ---- bounded exhaustive test enumeration ----------------------------------------------


def enumerate_tests(g, max_events=4, bare=False, limits=DEFAULT_LIMITS):
    """Every valid test over g with at most max_events source events, one
    per isomorphism class.

    Tests that differ only by a renaming of source events form a class, and
    the first of each class in candidate order is the one listed: candidate
    skeletons are cut by cheap necessary conditions and by their canonical
    form, then validated in full. Intended for small bounds.

    The list is new on every call, but the tests in it are shared between
    calls on equal games: the last few enumerations are kept, keyed on the
    game's value. A test's game test.A is therefore equal to g but may be
    another object, under another name, since names are not part of a
    game's value.
    """
    return list(_enumerate_tests(g, max_events, bare, limits))


# Enumerations kept by _enumerate_tests; one budget-4 bare enumeration over a
# one-move Opponent game holds about 820 tests.
_KEPT_ENUMERATIONS = 8


@lru_cache(maxsize=_KEPT_ENUMERATIONS)
def _enumerate_tests(g, max_events, bare, limits):
    pol = dual(g).pol
    found = []
    for combo in _combos(g, max_events, bare):
        found.extend(_skeletons(g, pol, combo, limits))
    return tuple(found)


def _combos(g, max_events, bare):
    """The sorted tuples of (kind, move) a test's source events can take:
    ("g", a) for a copy of the move a of g, ("t", None) for a success move
    and, when bare, ("n", None) for a neutral event. Each move of the forced
    core is copied exactly once."""
    kinds = [("g", a) for a in g.es.ordered] + [("t", None)]
    if bare:
        kinds.append(("n", None))
    core = _saturation(g, set())
    for n in range(max_events + 1):
        for combo in combinations_with_replacement(kinds, n):
            gpart = [a for k, a in combo if k == "g"]
            if all(gpart.count(a) == 1 for a in core):
                yield combo


def _labelling(pol, combo):
    """The polarity and the assignment of each source event 0..n-1; a
    neutral event i plays the middle event i."""
    pols, assign = {}, {}
    for i, (kind, a) in enumerate(combo):
        if kind == "g":
            pols[i], assign[i] = pol[a], (1, a)
        elif kind == "n":
            pols[i], assign[i] = NEUTRAL, (2, i)
        else:
            pols[i], assign[i] = PLUS, (3, TICK)
    return pols, assign


def _candidates(g, combo, pols):
    """Each acyclic set of cause edges over the slots that combo allows,
    with its down-closures and the pairs that may then be declared in
    conflict."""
    n = len(combo)
    kind = [k for k, _ in combo]
    move = [a for _, a in combo]

    slots = []
    for i, j in combinations(range(n), 2):
        for a, b in ((i, j), (j, i)):
            if kind[a] == "t":
                continue
            if pols[b] == MINUS and not (
                    kind[a] == "g" and move[a] in g.es.strict_below(move[b])):
                continue
            if pols[a] == PLUS and not (
                    kind[b] == "g"
                    and (move[a], move[b]) in g.es.immediate_pairs()):
                continue
            slots.append((a, b))
    # conflicts touching an Opponent slot always break receptivity, except when
    # already hereditary, in which case declaring them changes nothing
    conflictable = [(i, j) for i, j in combinations(range(n), 2)
                    if pols[i] != MINUS and pols[j] != MINUS]

    for edges in _subsets(slots):
        below = _closures(n, edges)
        if below is not None:
            yield edges, below, _without_common_successor(below, conflictable)


def _block_permutations(combo):
    """The renamings p (event i becomes p[i]) that keep every event's combo
    entry. Events with equal entries are interchangeable, and combo is
    sorted, so these permute each run of equal entries within itself."""
    blocks = [tuple(run) for _, run in
              groupby(range(len(combo)), key=combo.__getitem__)]
    return [tuple(chain.from_iterable(images))
            for images in product(*map(permutations, blocks))]


def _pair_bits(pairs, p, n):
    """The pairs (a, b), renamed by p, as a set of bits."""
    bits = 0
    for a, b in pairs:
        bits |= 1 << (p[a] * n + p[b])
    return bits


def _skeletons(g, pol, combo, limits):
    """The valid tests over combo, one per isomorphism class.

    A candidate is fixed by its strict order and its conflicts closed
    upward. Its canonical key is the least pair of their bit sets over the
    renamings that keep combo: the least order, then the least conflicts
    among the renamings that reach it. These renamings keep polarities,
    assignments and the middle too, so a class is valid or not as a whole:
    the first candidate of each class is built and validated, and the
    others are skipped.
    """
    n = len(combo)
    pols, assign = _labelling(pol, combo)
    neutrals = [i for i in range(n) if combo[i][0] == "n"]
    middle = Polarised(event_structure(neutrals),
                       {i: NEUTRAL for i in neutrals})
    perms = _block_permutations(combo)
    seen = set()
    for _, below, free in _candidates(g, combo, pols):
        order = [(a, b) for b in range(n) for a in below[b] if a != b]
        order_bits = [_pair_bits(order, p, n) for p in perms]
        least = min(order_bits)
        fixing = [p for p, bits in zip(perms, order_bits) if bits == least]
        for confl in _subsets(free):
            closed, _ = inherited_conflicts(below, confl)
            both = [(a, b) for pr in closed for a, b in permutations(pr)]
            key = least, min(_pair_bits(both, p, n) for p in fixing)
            if key in seen:
                continue
            seen.add(key)
            try:
                yield bare_strategy(Polarised(_structure(n, below, closed), pols),
                                    g, middle, success_game(), assign,
                                    limits=limits)
            except InvalidStructure:
                continue


def _structure(n, below, closed):
    """The events 0..n-1 with their down-closures below and the closed
    conflicts: _closures rules out cycles and _without_common_successor
    self-conflict, so the structure is built without diagnosis."""
    return EventStructure(range(n), below,
                          maximal_consistent_sets(range(n), closed))


def _subsets(items):
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def _closures(n, edges):
    """Each of the events 0..n-1 with its reflexive down-closure under edges,
    or None when the edges have a cycle."""
    preds = {i: set() for i in range(n)}
    for a, b in edges:
        preds[b].add(a)
    try:
        return reflexive_closures(preds)
    except Cycle:
        return None


def _without_common_successor(below, pairs):
    """The pairs that no event has both below it, the two themselves included.

    Conflict is hereditary, so declaring any other pair leaves some event in
    conflict with itself, which event_structure rejects.
    """
    return [(i, j) for i, j in pairs
            if not any(i in b and j in b for b in below.values())]
