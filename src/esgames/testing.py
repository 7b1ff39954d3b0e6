"""Traces, may/must testing, the two preorders, and distinguishing-test synthesis.

A test is a bare strategy from a game into the one-move success game; a
subject passes in the may sense when some pairing reaches the success move,
and in the must sense when every stopping pairing does.

A subject configuration x and a test configuration y pair when they play the
same moves of the game, each at most once, and the order S induces on x
and T on y, glued along those moves, is acyclic (interaction.glue). Every
glued edge comes from S or from T, and both are partial orders, so a cycle
alternates sides at shared moves and shortcuts to a cycle on the moves: the
pairing is decided from the two orders on the moves alone, which each side
keeps once per configuration (BareStrategy.order_on).

The may and must preorders are trace inclusion and stopping-trace inclusion,
decided from the same kept orders, grouped by image: every trace of x is one
of the second strategy's when some configuration with x's image orders the
moves inside x's order. Only where no single one does are x's
linearisations listed (_gap). The configuration cap bounds the traces listed
for one configuration (_linearisations) and the distinct traces that
finite_traces and stopping_traces gather across configurations (_trace_index).
"""

from collections import OrderedDict, namedtuple
from itertools import (chain, combinations, combinations_with_replacement,
                       groupby, permutations, product)

from .errors import (BadArgument, Cycle, GameMismatch, InvalidStructure,
                     NotAConfiguration, NotAGap)
from .games import (MINUS, NEUTRAL, PLUS, TICK, Polarised, component, dual,
                    payload, success_game)
from .limits import DEFAULT_LIMITS, over_cap
from .strategies import (BareStrategy, StoppingStrategy, bare_strategy,
                         shared_target, stop_of, strategy, strategy_of)
from .structures import (EventStructure, ekey, event_structure,
                         inherited_conflicts, maximal_consistent_sets,
                         reflexive_closures, sortedevents)


class Verdict(namedtuple("Verdict", "passed witness", defaults=[None])):
    """Outcome of a test run; witness is a (subject, test) configuration pair."""
    __slots__ = ()

    def __bool__(self):
        return self.passed


# the verdicts without a witness, shared by every run that returns one
_PASSED, _FAILED = Verdict(True), Verdict(False)
_SUCCESS = success_game()  # the game every test targets

# ---- traces ------------------------------------------------------------------------


def _linearisations(sigma, x, limits):
    """Yield the image of each linear extension of the order inside x, least
    first by ekey; raise SizeBoundExceeded in place of the one past
    limits.max_configs. The images are pairwise distinct where sigma is
    injective on x, as on every configuration of a strategy."""
    m, strict_below = sigma.sigma.mapping, sigma.source.es.strict_below
    events = sorted(x, key=lambda s: ekey(m[s]))
    pos = {s: i for i, s in enumerate(events)}
    preds = [sum(1 << pos[d] for d in strict_below(s)) for s in events]
    for n, trace in enumerate(_extend([m[s] for s in events], preds, 0, ())):
        if n == limits.max_configs:
            raise over_cap(limits.max_configs, "traces of one configuration")
        yield trace


def _extend(images, preds, placed, prefix):
    """Each completion of prefix, the images of the events whose bits are
    in placed, by the other events, each once its preds are placed; least
    first, as images are."""
    if len(prefix) == len(images):
        yield prefix
        return
    for i, p in enumerate(preds):
        if not placed >> i & 1 and not p & ~placed:
            yield from _extend(images, preds, placed | 1 << i,
                               prefix + (images[i],))


def traces_of(sigma, x, limits=DEFAULT_LIMITS):
    """All enumerations of the image of x compatible with the order inside x.

    Events of the result carry their target tags. Every configuration has at
    least one trace; the empty configuration has exactly the empty trace.
    Raises NotAConfiguration when x is not a configuration, and
    SizeBoundExceeded once more than limits.max_configs traces are made.
    """
    if not sigma.source.es.is_configuration(x):
        raise NotAConfiguration(
            f"{sortedevents(x)} is not a configuration", member=frozenset(x))
    return frozenset(_linearisations(sigma, x, limits))


def _trace_index(sigma, configs, limits):
    """trace -> first configuration realising it; configs come smallest first."""
    index = {}
    for x in configs:
        for tr in traces_of(sigma, x, limits):
            index.setdefault(tr, x)
        if len(index) > limits.max_configs:
            raise over_cap(limits.max_configs, "distinct traces")
    return index


def finite_traces(sigma, limits=DEFAULT_LIMITS):
    """Traces of every finite configuration; prefix-closed by construction."""
    sigma = strategy_of(sigma).visible
    return frozenset(_trace_index(sigma, sigma.configurations(limits), limits))


def stopping_traces(s, limits=DEFAULT_LIMITS):
    """Traces of the stopping configurations only."""
    s = s.visible
    return frozenset(_trace_index(s.strat, s.sorted_stopping(), limits))


# ---- running tests -----------------------------------------------------------------


def _check_test_shape(subject, test):
    if not isinstance(test, BareStrategy):
        raise BadArgument("a test is a bare strategy into the success game,"
                          f" not {type(test).__name__}", test=test)
    if subject.A.es.events:
        raise GameMismatch("test subjects play in a single game",
                           left=subject.A)
    if test.B is not _SUCCESS and test.B != _SUCCESS:
        raise GameMismatch("a test must target the success game", right=test.B)
    if not subject.matches_b(test.A):
        raise GameMismatch("subject and test play different games",
                           left=subject.B, right=test.A)


def _acyclic(p, q):
    """Whether the orders p and q that two configurations with one image
    induce on it (order_on) have an acyclic union; never when either plays
    a move twice (None). Moves are placed once none below them is left."""
    if p is None or q is None:
        return False
    if not p or not q:
        return True
    below = dict(p)
    for b, mask in q:
        below[b] = below.get(b, 0) | mask
    left = sum(below)
    while below:
        ready = [b for b, mask in below.items() if not mask & left]
        if not ready:
            return False
        for b in ready:
            del below[b]
        left -= sum(ready)
    return True


def _first_glued(runs, by_image):
    """The least (x, y) that glues: y from the test's runs in their order,
    x from the subject's configurations with y's image on the game; or None."""
    for image, y, q in runs:
        for x, p in by_image.get(image, ()):
            if _acyclic(p, q):
                return x, y
    return None


def may_pass(subject, test, limits=DEFAULT_LIMITS):
    """Some pairing of configurations reaches the success move.

    The test's ticking configurations are tried in configuration order, so
    the witness is the least such pairing.
    """
    sub = strategy_of(subject).visible
    _check_test_shape(sub, test)
    wit = _first_glued(test.visible.ticking_runs(limits),
                       sub.configurations_by_image(limits))
    return _FAILED if wit is None else Verdict(True, wit)


def must_pass(subject, test, limits=DEFAULT_LIMITS):
    """Every stopping pairing reaches the success move.

    Both sides are taken at their visible stopping sets; the test's is
    derived with stop_of. The least pairing of stopping configurations whose
    test half lacks the success move is the returned counterexample.
    """
    sub = (subject.visible if isinstance(subject, StoppingStrategy)
           else stop_of(subject, limits))
    _check_test_shape(sub.strat, test)
    wit = _first_glued(stop_of(test, limits).nonticking_runs,
                       sub.stopping_by_image())
    return _PASSED if wit is None else Verdict(False, wit)


# ---- the two preorders ---------------------------------------------------------------


def _require_same_game(b1, b2):
    if b1.A != b2.A or b1.B != b2.B:
        raise GameMismatch("preorders compare strategies over one game",
                           left=(b1.A, b1.B), right=(b2.A, b2.B))


def _within(q, p):
    """Whether the order q is contained in the order p, both as order_on
    gives them on one set of moves, so every linearisation of p is one of
    q; never when q plays a move twice (None)."""
    if q is None:
        return False
    if not q:
        return True
    p = dict(p)
    return all(not mask & ~p.get(b, 0) for b, mask in q)


def _chain(bits):
    """The total order that lists the moves with these bits, as order_on
    gives orders."""
    return tuple((b, sum(bits[:i])) for i, b in enumerate(bits) if i)


def _least_missing(v1, x, p, v2, members, limits):
    """The least trace of x, of order p, by ekey that no member (y, y's
    order) of v2 has, or None. A trace is a chain, which y has when y's
    order is within it. Where x plays a move twice (p None) no order gives
    its traces, and they are compared with those of the members that play
    a move twice too, the only ones that can share them."""
    traces = _linearisations(v1, x, limits)
    if p is None:
        others = {t for y, q in members if q is None
                  for t in _linearisations(v2, y, limits)}
        return next((t for t in traces if t not in others), None)
    return next((t for t in traces
                 if not any(_within(q, _chain(list(map(v1.move_bit, t))))
                            for _, q in members)), None)


def _gap(v1, groups1, v2, groups2, limits):
    """The shortlex-least trace, by ekey, of the configurations of v1 in
    groups1 that none of v2's in groups2 has, with the least configuration
    realising it; None when there is none. Groups are by image on B, as
    configurations_by_image gives them, so members with another image on A
    are passed over.

    A trace of x is a linearisation of the order x induces on its moves, and
    a partial order is the intersection of its linearisations (Szpilrajn),
    so a y of v2 with x's image has every trace of x exactly when y's order
    is contained in x's: x is then covered. Only an uncovered x has its
    linearisations listed, least first, each against the orders of v2's
    configurations with its image; with none, the first is missing. Each
    listing is capped by limits (_linearisations).
    """
    best = key = None
    on_a = bool(v1.A.events)
    for image, xs in groups1.items():
        members = groups2.get(image, ())
        for x, p in xs:
            if key is not None and len(x) > key[0]:
                continue
            same = [(y, q) for y, q in members
                    if not on_a or v2.image_on(1, y) == v1.image_on(1, x)]
            if p is not None and any(_within(q, p) for _, q in same):
                continue
            trace = _least_missing(v1, x, p, v2, same, limits)
            if trace is not None:
                k = len(trace), tuple(map(ekey, trace))
                if key is None or k < key:
                    best, key = (x, trace), k
    return best


def may_preorder(sigma1, sigma2, limits=DEFAULT_LIMITS):
    """Trace inclusion; holds iff sigma2 may-passes every test sigma1 does.
    Decided by order inclusion over each image group (_gap)."""
    v1, v2 = strategy_of(sigma1).visible, strategy_of(sigma2).visible
    _require_same_game(v1, v2)
    gap = _gap(v1, v1.configurations_by_image(limits),
               v2, v2.configurations_by_image(limits), limits)
    return gap is None, gap


def must_preorder(s1, s2, limits=DEFAULT_LIMITS):
    """Stopping-trace inclusion; holds iff every test s2 must-passes, s1 does.
    Decided by order inclusion over each image group (_gap)."""
    if not (isinstance(s1, StoppingStrategy) and isinstance(s2, StoppingStrategy)):
        raise GameMismatch("the must preorder compares stopping strategies")
    s1, s2 = s1.visible, s2.visible
    _require_same_game(s1.strat, s2.strat)
    gap = _gap(s1.strat, s1.stopping_by_image(),
               s2.strat, s2.stopping_by_image(), limits)
    return gap is None, gap


def find_gap(kind, s1, s2, limits=DEFAULT_LIMITS):
    """Shortest witness that the chosen preorder fails, or None."""
    if kind == "may":
        return may_preorder(s1, s2, limits)[1]
    if kind == "must":
        return must_preorder(s1, s2, limits)[1]
    raise BadArgument(f"unknown preorder kind {kind!r}", kind=kind)


# ---- synthesis of distinguishing tests -----------------------------------------------


def _gap_payloads(g, alpha):
    """The moves of the gap trace alpha, each checked to be a move of g
    that comes after its causes in g, as in every trace over g."""
    out = []
    for e in alpha:
        e = payload(e) if component(e) == 3 else e
        if e not in g.events:
            raise NotAGap(f"trace event {e!r} is not a move of the game",
                          event=e)
        if not g.es.strict_below(e) <= set(out):
            raise NotAGap(f"trace event {e!r} comes before one of its causes"
                          " in the game", trace=alpha)
        out.append(e)
    return out


def _saturation(g, t1):
    """Events whose history outside t1 consists of moves the test itself owns;
    with t1 empty, the moves every test must be ready for."""
    return {a for a in g.events
            if all(g.pol[b] == PLUS for b in g.es.below(a) - t1)}


def _reversal_edges(v2, same, pos):
    """One order-reversing edge per configuration of v2 in the group same.

    The chosen pair puts the image of a Player event before the image of the
    Opponent event that enables it, so the test's order disagrees with every
    such configuration at once. Raises NotAGap when one of them has no such
    pair, as its order then allows the trace.
    """
    edges = set()
    immediate = v2.source.es.immediate_pairs()
    for x2, _ in same:
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


def _gap_trace(gap):
    """The trace of a gap as find_gap returns it; None, the answer when the
    preorder holds, is no gap."""
    if gap is None:
        raise BadArgument("no gap to separate: the preorder holds", gap=gap)
    return gap[1]


def _replay(v2, trace, groups, own):
    """The gap trace replayed against v2 over groups(), the configurations
    of v2 that count grouped by image: the game, the trace's moves t1, their
    saturation t1p, the causes of t1p (the game's order, then the reversal
    edges), the game's conflicts among t1p and the swapped polarities of t1p.

    groups() runs only once the trace is known to be made of moves of one
    game; NotAGap(own) is raised when one of the group with its image
    realises the trace: a chain, which it does when the chain contains its
    order (_within).
    """
    if v2.A.events:
        raise GameMismatch("tests are synthesised over a single game")
    g = v2.B
    alpha = _gap_payloads(g, trace)
    t1 = set(alpha)
    same = groups().get(frozenset(t1), ())
    chain = _chain([v2.move_bit((3, a)) for a in alpha])
    if len(t1) == len(alpha) and any(_within(p, chain) for _, p in same):
        raise NotAGap(own, trace=trace)
    pos = {a: i for i, a in enumerate(alpha)}
    t1p = _saturation(g, t1)
    causes = [(b, a) for a in t1p for b in g.es.strict_below(a) & t1p]
    causes += [(alpha[i], alpha[j])
               for i, j in _reversal_edges(v2, same, pos)]
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
    trace = _gap_trace(gap)
    v2 = strategy_of(sigma2).visible
    g, t1, t1p, causes, conflicts, pols = _replay(
        v2, trace, lambda: v2.configurations_by_image(limits),
        "the trace is one of sigma2's own")
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
    trace = _gap_trace(gap)
    if not isinstance(s2, StoppingStrategy):
        raise GameMismatch("must synthesis runs against a stopping strategy")
    s2 = s2.visible
    g, t1, t1p, causes, conflicts, pols = _replay(
        s2.strat, trace, s2.stopping_by_image,
        "the trace is one of s2's stopping traces")
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


def enumerate_tests(g, max_events=4, bare=False):
    """Every valid test over g with at most max_events source events, one
    per isomorphism class.

    Tests that differ only by a renaming of source events form a class, and
    the first of each class in candidate order is the one listed: candidate
    skeletons are cut by the rules of the tests' target dual(g) || N || 1
    (_candidates) and by their canonical form, then validated in full.
    Intended for small bounds.

    The list is new on every call, but the tests in it are shared between
    calls on equal games. Enumerations are kept, keyed on the game's value,
    max_events and bare; together they hold at most _KEPT_TESTS
    tests, the least recently used is dropped first, and the newest always
    stays. A test's game test.A is therefore equal to g but may be another
    object, under another name, since names are not part of a game's value.
    Tests over equal games and middles share one target, as all strategies
    over equal (A, N, B) do while some strategy holds it. Raises BadArgument
    unless max_events is an int of at least 0, and PolarityMismatch when g
    has a neutral event.
    """
    if isinstance(max_events, bool) or not isinstance(max_events, int) \
            or max_events < 0:
        raise BadArgument(f"max_events must be an int of at least 0, not"
                          f" {max_events!r}", max_events=max_events)
    key = g, max_events, bare
    found = _kept.pop(key, None)
    if found is None:
        g.require_game("test enumeration")
        found = tuple(t for combo in _combos(g, max_events, bare)
                      for t in _skeletons(g, combo))
        held = len(found) + sum(map(len, _kept.values()))
        while held > _KEPT_TESTS and _kept:
            held -= len(_kept.popitem(last=False)[1])
    _kept[key] = found  # the most recently used
    return list(found)


# The tests the kept enumerations may hold together: eight budget-4 bare
# enumerations over a one-move Opponent game, of 824 tests each.
_KEPT_TESTS = 8 * 824
# (game, max_events, bare) -> tests, least recently used first
_kept = OrderedDict()


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


def _candidates(target, assign, pols):
    """Each acyclic set of cause edges over the events 0..n-1, assigned
    into target, that its rules allow, with its down-closures and the pairs
    that may then be declared in conflict: an edge into an Opponent event
    lies in the target's order, one out of a Player event covers in it, and
    a conflict touching an Opponent event is the target's (innocence and
    receptivity)."""
    n = len(assign)
    tes = target.es
    slots = [(a, b) for i, j in combinations(range(n), 2)
             for a, b in ((i, j), (j, i))
             if (pols[b] != MINUS or assign[a] in tes.strict_below(assign[b]))
             and (pols[a] != PLUS
                  or (assign[a], assign[b]) in tes.immediate_pairs())]
    conflictable = [(i, j) for i, j in combinations(range(n), 2)
                    if MINUS not in (pols[i], pols[j])
                    or not tes.is_consistent((assign[i], assign[j]))]

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


def _skeletons(g, combo):
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
    assign = {i: (1, a) if kind == "g" else (2, i) if kind == "n" else (3, TICK)
              for i, (kind, a) in enumerate(combo)}
    neutrals = [i for i in range(n) if combo[i][0] == "n"]
    middle = Polarised(event_structure(neutrals),
                       {i: NEUTRAL for i in neutrals})
    target = shared_target(g, middle, _SUCCESS)
    pols = {i: target.pol[v] for i, v in assign.items()}
    perms = _block_permutations(combo)
    seen = set()
    for _, below, free in _candidates(target, assign, pols):
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
                                    g, middle, _SUCCESS, assign)
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
