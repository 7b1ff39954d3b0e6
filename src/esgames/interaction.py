"""Secured bijections, pullbacks, and the interaction and composition of
bare strategies.

The pullback of two total maps with a common target is built from primes:
down-closures of single matched pairs inside secured bijections. A secured
bijection between configurations x (left) and y (right) matches events with
equal images such that the relation generated by both source orders through
the matching is acyclic. Configurations of the pullback correspond exactly to
secured bijections; the correspondence is checked by the tests.

Interaction pads the two strategies first: sigma: S -> dual(A) || M || B meets
tau: T -> dual(B) || N || C over the flat five component ambient
A || M || B || N || C, with S || N || C on the left against A || M || T on the
right. The resulting pullback is read back as a bare strategy from A to C
whose middle is M || B0 || N, where B0 is B with every event made neutral.

Single pairs of configurations are matched without the padding: x of S and
y of T pair exactly when their images on B agree and the two source orders,
glued along that matching, are acyclic (see glue).
"""

from functools import cached_property

from .errors import (
    Cycle,
    EndpointMismatch,
    ImageMismatch,
    MapNotTotal,
    MiddleGameMismatch,
    NotRaceFree,
    SizeBoundExceeded,
)
from .games import (
    NEUTRAL,
    Polarised,
    component,
    dual,
    is_race_free,
    neutralise,
    parallel,
    payload,
)
from .limits import DEFAULT_LIMITS
from .strategies import BareStrategy, StoppingStrategy, visible_part
from .structures import (ESMap, EventStructure, ekey, reflexive_closures,
                         sortedevents)

# ---- secured bijections -----------------------------------------------------------


def pairkey(p):
    return (ekey(p[0]), ekey(p[1]))


class SecuredBijection:
    """A matching of two configurations with equal images whose generated
    dependency relation is a partial order."""

    def __init__(self, pairs, below):
        self.pairs = frozenset(pairs)
        self._below = below  # pair -> frozenset of pairs, reflexive

    def below(self, p):
        return self._below[p]


def _glued_order(left_below, left_pairs, right_below, right_pairs):
    """Reflexive down-closure of each pair, a pair lying above the pairs of
    its two events' causes; each side gives its source's below and its event
    -> pair map, and causes without a pair are skipped. The left side is
    inserted first, so a Cycle names the same nodes whatever the caller.

    Raises Cycle when the relation is not acyclic.
    """
    preds = {p: {left_pairs[d] for d in left_below(e)
                 if d != e and d in left_pairs}
             for e, p in left_pairs.items()}
    for e, p in right_pairs.items():
        preds.setdefault(p, set()).update(
            right_pairs[d] for d in right_below(e) if d != e and d in right_pairs)
    return reflexive_closures(preds)


def _check_maps(f, g):
    """Raise EndpointMismatch unless f and g share a target, MapNotTotal
    unless each is defined on exactly its source's events."""
    if f.dst != g.dst:
        raise EndpointMismatch("the two maps need a common target",
                               left=f.dst, right=g.dst)
    for m in (f, g):
        if not m.is_total:
            missing = m.src.events - m.mapping.keys()
            extra = m.mapping.keys() - m.src.events
            raise MapNotTotal(
                f"map undefined on {sortedevents(missing)}" if missing else
                f"map defined off its source on {sortedevents(extra)}",
                events=frozenset(missing), unknown=frozenset(extra))


def secured_bijection(f, g, x, y):
    """Match configuration x of f.src against y of g.src over a common target.

    Raises EndpointMismatch or MapNotTotal when f and g are not total maps
    into one target, ImageMismatch when the images differ as sets (or an
    image is repeated), Cycle when the generated relation loops.
    """
    _check_maps(f, g)
    x, y = frozenset(x), frozenset(y)
    fx = {}
    for e in x:
        fx.setdefault(f.mapping[e], []).append(e)
    gy = {}
    for e in y:
        gy.setdefault(g.mapping[e], []).append(e)
    if set(fx) != set(gy) or any(len(v) != 1 for v in fx.values()) \
            or any(len(v) != 1 for v in gy.values()):
        raise ImageMismatch(
            f"images differ: {sortedevents(set(fx) ^ set(gy))}",
            left_only=frozenset(set(fx) - set(gy)),
            right_only=frozenset(set(gy) - set(fx)))
    pairs = frozenset((fx[u][0], gy[u][0]) for u in fx)
    below = _glued_order(f.src.below, {p[0]: p for p in pairs},
                         g.src.below, {p[1]: p for p in pairs})
    return SecuredBijection(pairs, below)


# ---- pullback ---------------------------------------------------------------------


def prime_event(pairs, top):
    return ("pr", frozenset(pairs), top)


def prime_pairs(p):
    return p[1]


def prime_top(p):
    return p[2]


def _primes(pmap):
    """The primes of one secured bijection, from its pair -> prime pairs map."""
    return frozenset(prime_event(pr, top) for top, pr in pmap.items())


def _side_tables(es):
    """Each event's bit; for each event, its bit, the bits of its strict
    causes and its membership mask, whose bit i is set when the event lies in
    es.maxcons[i]; and the mask of the empty set, with every bit set."""
    bit = {e: 1 << i for i, e in enumerate(es.ordered)}
    mask = dict.fromkeys(es.events, 0)
    for i, m in enumerate(es.maxcons):
        for e in m:
            mask[e] |= 1 << i
    tables = {e: (b, sum(map(bit.__getitem__, es.below(e))) - b, mask[e])
              for e, b in bit.items()}
    return bit, tables, (1 << len(es.maxcons)) - 1


def _enumerate_pullback(left_es, lmap, right_es, rmap, limits):
    """BFS over secured bijections, extending by one enabled matched pair.

    A new pair joins above everything present, so securedness is preserved;
    every secured bijection arises along a linearisation of its own order.
    Each frontier entry carries, per side, its set of events as bits and the
    AND of its members' masks: a set is consistent exactly when that AND is
    non-zero, so enabling a pair costs a few integer operations.
    Returns the pullback's event structure and, for each secured bijection,
    the map from each of its pairs to the pairs of the prime that pair tops.
    """
    if limits.max_configs < 1:  # the empty bijection counts as one
        raise SizeBoundExceeded(
            f"more than {limits.max_configs} secured bijections",
            cap=limits.max_configs)
    lbit, ltab, lfull = _side_tables(left_es)
    rbit, rtab, rfull = _side_tables(right_es)
    by_img_right = {}
    for r, u in rmap.items():
        by_img_right.setdefault(u, []).append((r, *rtab[r]))
    partners = [(l, *ltab[l], rs) for l in left_es.ordered
                if (rs := by_img_right.get(lmap[l]))]

    start = frozenset()
    prime_map = {start: {}}   # bijection -> {pair: frozenset of pairs}
    frontier = [(start, 0, 0, lfull, rfull)]
    maximal = []
    seen = {start}
    prime_registry = {}       # pairset -> top pair

    while frontier:
        nxt = []
        for th, lefts, rights, lmask, rmask in frontier:
            pmap = prime_map[th]
            grown = False
            for l, lb, lcauses, lcons, rs in partners:
                if lefts & lb or lcauses & ~lefts:
                    continue
                lm = lmask & lcons
                if not lm:
                    continue
                for r, rb, rcauses, rcons in rs:
                    if rights & rb or rcauses & ~rights:
                        continue
                    rm = rmask & rcons
                    if not rm:
                        continue
                    grown = True
                    th2 = th | {(l, r)}
                    if th2 in seen:
                        continue
                    seen.add(th2)
                    if len(seen) > limits.max_configs:
                        raise SizeBoundExceeded(
                            f"more than {limits.max_configs} secured bijections",
                            cap=limits.max_configs)
                    pr = {(l, r)}
                    for q, qpr in pmap.items():
                        if lbit[q[0]] & lcauses or rbit[q[1]] & rcauses:
                            pr |= qpr
                    pr = frozenset(pr)
                    prime_registry.setdefault(pr, (l, r))
                    if len(prime_registry) > limits.max_primes:
                        raise SizeBoundExceeded(
                            f"more than {limits.max_primes} interaction events",
                            cap=limits.max_primes)
                    prime_map[th2] = {**pmap, (l, r): pr}
                    nxt.append((th2, lefts | lb, rights | rb, lm, rm))
            if not grown:
                maximal.append(th)
        frontier = nxt

    # a prime's ekey compares its sorted pairs, then its top, and each side's
    # rank orders that side's events as ekey does
    lrank, rrank = left_es.rank, right_es.rank

    def rank_key(item):
        pairs, (l, r) = item
        return sorted((lrank[a], rrank[b]) for a, b in pairs), (lrank[l], rrank[r])

    events = [prime_event(pairs, top)
              for pairs, top in sorted(prime_registry.items(), key=rank_key)]
    below = {}
    for p in events:
        below[p] = frozenset(q for q in events
                             if prime_pairs(q) <= prime_pairs(p))
    # no maximal secured bijection lies inside another: the lowest pair of
    # their difference would extend the smaller one
    maxcons = [_primes(prime_map[th]) for th in maximal]
    return EventStructure(events, below, maxcons), prime_map


def pullback(f, g, limits=DEFAULT_LIMITS):
    """Pullback of two total maps with a common target.

    Returns (P, pi1, pi2): the event structure of primes with the projections
    sending a prime to the two halves of its top pair.
    """
    _check_maps(f, g)
    es, _ = _enumerate_pullback(f.src, dict(f.mapping), g.src,
                                dict(g.mapping), limits)
    pi1 = ESMap(es, f.src, {p: prime_top(p)[0] for p in es.events})
    pi2 = ESMap(es, g.src, {p: prime_top(p)[1] for p in es.events})
    return es, pi1, pi2


def enumerate_secured_bijections(f, g, limits=DEFAULT_LIMITS):
    """All secured bijections of the two total maps into one target, as pair
    sets."""
    _check_maps(f, g)
    _, prime_map = _enumerate_pullback(f.src, dict(f.mapping), g.src,
                                       dict(g.mapping), limits)
    return sorted(prime_map, key=lambda th: (len(th),
                                             sorted(map(pairkey, th))))


# ---- interaction ------------------------------------------------------------------


def _padding(sigma, tau):
    """Left and right padded sources with their maps into the flat ambient
    A || M || B || N || C (sigma: A -> B with middle M, tau: B -> C with N)."""
    left = parallel(sigma.source, tau.N, tau.B)
    right = parallel(sigma.A, sigma.N, tau.source)

    lmap = {}
    for (i, e) in left.es.events:
        if i == 1:
            lmap[(i, e)] = sigma.sigma.mapping[e]  # components 1..3 unchanged
        elif i == 2:
            lmap[(i, e)] = (4, e)
        else:
            lmap[(i, e)] = (5, e)

    retag = {1: 3, 2: 4, 3: 5}
    rmap = {}
    for (i, e) in right.es.events:
        if i == 3:
            j, u = tau.sigma.mapping[e]
            rmap[(i, e)] = (retag[j], u)
        else:
            rmap[(i, e)] = (i, e)
    return left, right, lmap, rmap


def _ambient_to_target(u):
    """Flat ambient event -> event of dual(A) || (M || B0 || N) || C."""
    j, e = u
    if j == 1:
        return (1, e)
    if j == 5:
        return (3, e)
    return (2, (j - 1, e))


class Interaction(BareStrategy):
    """The interaction of two bare strategies; its source events are primes."""

    def __init__(self, source, game_a, middle, game_b, assign, prime_map,
                 name=""):
        super().__init__(source, game_a, middle, game_b, assign, name=name)
        self._prime_map = prime_map

    @cached_property
    def primes_of(self):
        """Each secured bijection of the padded sources, as a pair set, mapped
        to its set of primes, the interaction configuration it stands for.
        Derived on first read."""
        return {th: _primes(pm) for th, pm in self._prime_map.items()}


def interact(sigma, tau, limits=DEFAULT_LIMITS, name=""):
    """The bare strategy tau after sigma, internal events kept.

    sigma goes from A to B, tau from B to C; the result goes from A to C with
    middle M || B0 || N. Correctness of the defining clauses is inherited from
    the construction and not re-checked here.
    """
    if sigma.B != tau.A:
        raise MiddleGameMismatch("the two strategies do not share a middle game")
    left, right, lmap, rmap = _padding(sigma, tau)
    es, prime_map = _enumerate_pullback(left.es, lmap, right.es, rmap, limits)

    a_pol = dual(sigma.A).pol
    pol = {}
    assign = {}
    for p in es.events:
        u = lmap[prime_top(p)[0]]
        assign[p] = _ambient_to_target(u)
        if component(u) == 1:
            pol[p] = a_pol[payload(u)]
        elif component(u) == 5:
            pol[p] = tau.B.pol[payload(u)]
        else:
            pol[p] = NEUTRAL

    source = Polarised(es, pol, name=name or "interaction")
    middle = parallel(sigma.N, neutralise(sigma.B), tau.N)
    return Interaction(source, sigma.A, middle, tau.B, assign, prime_map,
                       name=name or f"({tau.name} * {sigma.name})")


def compose(sigma, tau, limits=DEFAULT_LIMITS, name=""):
    """Composition with hiding: the visible part of the interaction."""
    inter = interact(sigma, tau, limits)
    vis, _, _ = visible_part(inter)
    vis.name = name or f"({tau.name} . {sigma.name})"
    return vis


# ---- configuration-level pairing ---------------------------------------------------


def glue(sigma, tau, x, y):
    """The order glued from x and y along their common image on B.

    x is a configuration of sigma: S -> dual(A) || M || B, y one of
    tau: T -> dual(B) || N || C. Every event stands for the pair it forms in
    the padded pullback: ((1, s), a) for s of x playing a in A or M,
    ((2, n), (3, t)) or ((3, c), (3, t)) for t of y playing n in N or c in C,
    and one pair ((1, s), (3, t)) for the two events that play the same move
    of B. Returns each pair's reflexive down-closure under the order that S
    generates inside x and T inside y, or None when the images on B differ
    or that order has a cycle.

    The moves of A, M, N and C that the padding copies add no order: a total
    map reflects its target's order inside a configuration, so their edges
    are already among the source's own.
    """
    smap, tmap = sigma.sigma.mapping, tau.sigma.mapping
    pair_of_s, s_on_b = {}, {}
    for s in x:
        u = smap[s]
        if u[0] == 3:
            if u[1] in s_on_b:
                return None
            s_on_b[u[1]] = s
        else:
            pair_of_s[s] = ((1, s), u)
    pair_of_t = {}
    for t in y:
        j, u = tmap[t]
        if j == 1:
            s = s_on_b.pop(u, None)
            if s is None:
                return None
            pair_of_s[s] = pair_of_t[t] = ((1, s), (3, t))
        else:
            pair_of_t[t] = ((j, u), (3, t))
    if s_on_b:
        return None

    try:
        return _glued_order(sigma.source.es.below, pair_of_s,
                            tau.source.es.below, pair_of_t)
    except Cycle:
        return None


def pair_configs(sigma, tau, x, y, padding=None):
    """The interaction and composition configurations induced by x and y.

    x is a configuration of sigma's source, y of tau's source. Returns
    (interaction_config, visible_config) as sets of primes of
    interact(sigma, tau), or None when the pairing is undefined: the images
    on the middle game differ, or matching them creates a causal cycle.
    padding is accepted for callers of the padded construction and unused.
    """
    below = glue(sigma, tau, x, y)
    if below is None:
        return None
    inter = frozenset(prime_event(b, p) for p, b in below.items())
    # visible primes play in A, paired on the right with (1, a), or in C,
    # paired on the left with (3, c)
    vis = frozenset(e for e in inter
                    if prime_top(e)[1][0] == 1 or prime_top(e)[0][0] == 3)
    return inter, vis


# ---- stopping liftings -------------------------------------------------------------


def _assert_race_free(*gs):
    for g in gs:
        ok, wit = is_race_free(g)
        if not ok:
            raise NotRaceFree(f"game {g.name or '?'} has a race",
                              game=g, witness=wit)


def _stopping_pairings(s, t):
    """pair_configs of every stopping x of s and stopping y of t that meet on
    the middle game; only pairs with equal images on it are tried."""
    _assert_race_free(s.strat.A, s.strat.B, t.strat.B)
    by_image = s.stopping_by_image()
    for y in t.sorted_stopping():
        for x in by_image.get(t.strat.image_on(1, y), ()):
            got = pair_configs(s.strat, t.strat, x, y)
            if got is not None:
                yield got


def interact_stopping(s, t, limits=DEFAULT_LIMITS):
    """Interaction of stopping strategies: pair the stopping sets."""
    stopping = {got[0] for got in _stopping_pairings(s, t)}
    return StoppingStrategy(interact(s.strat, t.strat, limits), stopping)


def compose_stopping(s, t, limits=DEFAULT_LIMITS, name=""):
    """Composition of stopping strategies: hide, pairing the stopping sets."""
    stopping = {got[1] for got in _stopping_pairings(s, t)}
    comp = compose(s.strat, t.strat, limits, name=name)
    return StoppingStrategy(comp, stopping, name=name or comp.name)


# ---- 2-cells across interaction ------------------------------------------------------


def transport_two_cell(f, g, inter_src, inter_dst):
    """Map primes of one interaction to the other along 2-cells f and g.

    f maps the left strategy sources, g the right ones (dicts or ESMaps).
    Returns (mapping, missing): primes whose transported pair set is not an
    event of the destination interaction are collected in missing.
    """
    fm = f.mapping if isinstance(f, ESMap) else dict(f)
    gm = g.mapping if isinstance(g, ESMap) else dict(g)

    def move_pair(p):
        (i, l), (j, r) = p
        left = (i, fm[l]) if i == 1 else (i, l)
        right = (j, gm[r]) if j == 3 else (j, r)
        return (left, right)

    dst_events = {prime_pairs(p): p for p in inter_dst.source.events}
    mapping = {}
    missing = []
    for p in inter_src.source.events:
        pairs = frozenset(move_pair(q) for q in prime_pairs(p))
        q = dst_events.get(pairs)
        if q is None:
            missing.append(p)
        else:
            mapping[p] = q
    return mapping, missing
