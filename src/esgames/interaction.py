"""Secured bijections, pullbacks, and the interaction and composition of
bare strategies.

The pullback of two total maps with a common target is built from primes:
down-closures of single matched pairs inside secured bijections. A secured
bijection between configurations x (left) and y (right) matches events with
equal images such that the relation generated by both source orders through
the matching is acyclic. Configurations of the pullback correspond exactly to
secured bijections; the correspondence is checked by the tests.

The enumeration works on integers: the candidate pairs are numbered once, a
secured bijection is the int of its pairs' bits and a prime the int of its
own. Only the primes are decoded, into events ("pr", pairs, top); an
interaction's bijections are read as pair sets, each with its primes, on
demand.

Interaction reads the two strategies' parts in place: sigma:
S -> dual(A) || M || B meets tau: T -> dual(B) || N || C over the flat five
component ambient A || M || B || N || C, with the parts S, N, C on the left
against A, M, T on the right, their events tagged (i, e) as the padded
juxtapositions S || N || C and A || M || T would tag them, though neither is
built. The resulting pullback is read back as a bare strategy from A to C
whose middle is M || B0 || N, where B0 is B with every event made neutral.

Single pairs of configurations are matched without the parts of A, M, N and
C: x of S and y of T pair exactly when their images on B agree and the two
source orders, glued along that matching, are acyclic (see glue).
"""

from .errors import (
    Cycle,
    EndpointMismatch,
    ImageMismatch,
    MapNotTotal,
    MiddleGameMismatch,
    NotRaceFree,
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
from .limits import DEFAULT_LIMITS, over_cap
from .strategies import (BareStrategy, StoppingStrategy, require_stopping,
                         visible_part)
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


def _side(parts):
    """One side of a pullback, read in place from its parts (es, image),
    image sending es's events into the common target. A lone part keeps its
    events' names; several are tagged (i, e) from 1, as games.parallel tags
    them, and each part's ranks follow those of the parts before it.

    Returns a row (name, image, bit, bits of its strict causes, mask) per
    event, in rank order with its bit at its rank, and the mask of the empty
    set. A mask's bits index the product of the parts' maximal consistent
    sets, the family of their juxtaposition: a set of events is consistent
    exactly when the AND of their masks is non-zero. A part with one maximal
    set adds nothing to it.
    """
    width = 1
    for es, _ in parts:
        width *= len(es.maxcons)
    full = (1 << width) - 1
    lone = len(parts) == 1
    rows, offset, stride = [], 0, 1
    for i, (es, image) in enumerate(parts, start=1):
        bit = {e: 1 << k for k, e in enumerate(es.ordered, start=offset)}
        offset += len(bit)
        n = len(es.maxcons)
        mask = dict.fromkeys(bit, full if n == 1 else 0)
        if n > 1:
            # the product indices whose digit here is d: runs of stride bits,
            # one in each block of stride * n
            block = stride * n
            runs = ((1 << stride) - 1) * sum(1 << q
                                             for q in range(0, width, block))
            for d, m in enumerate(es.maxcons):
                for e in m:
                    mask[e] |= runs << d * stride
            stride = block
        rows += [(e if lone else (i, e), image[e], b,
                  sum(map(bit.__getitem__, es.below(e))) - b, mask[e])
                 for e, b in bit.items()]
    return rows, full


def _indices(bits):
    """The positions of the set bits of bits, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _pairs_at(bits, on):
    """The union of on[b] over the set bits b of bits."""
    out = 0
    while bits:
        low = bits & -bits
        out |= on.get(low, 0)
        bits ^= low
    return out


class _BijectionTable:
    """The secured bijections one pullback enumerated, each kept as an int
    whose bit k is set when it holds pairs[k]; read as pair sets and primes
    only on demand."""

    def __init__(self, pairs, bijections):
        self.pairs = pairs            # bit position -> (left, right) pair
        self.bijections = bijections  # list of ints, each bijection once
        self.primes = []              # (prime event, its pair bits), in order

    def __len__(self):
        return len(self.bijections)

    def pair_set(self, bits):
        return frozenset(map(self.pairs.__getitem__, _indices(bits)))

    def primes_in(self, bits):
        """The primes of a secured bijection: those whose pairs it holds.
        A prime inside it is the down-closure there of its top pair, since
        the bijection matches each of that prime's causes only once."""
        return frozenset(e for e, b in self.primes if not b & ~bits)


def _enumerate_pullback(left, right, limits):
    """Reverse search over secured bijections, each listed once.

    left and right are the two sides, each a list of parts (es, image) that
    _side reads in place. Candidate pairs are numbered once, and a
    bijection is the int of its pairs' bits. A pair is enabled in a
    bijection when neither of its events is matched yet, their strict
    causes are, and both sides stay consistent: each side keeps its events
    as bits and the AND of their masks, and a set is consistent exactly
    when that AND is non-zero. An enabled pair joins above everything
    present, so securedness is preserved.

    Every non-empty bijection has one parent, itself less its highest
    maximal pair, so the search takes an enabled pair kb only when the
    maximal pairs it leaves uncovered all lie below kb, and reaches each
    bijection once, depth first (Avis and Fukuda's reverse search). Each
    state keeps its maximal pairs and its enabled pairs as ints: a child's
    maximal pairs are those kb does not cover, plus kb, and it is a prime,
    the down-closure of kb, when kb is its only one. A child's enabled
    pairs are its parent's less those sharing an event with kb, filtered
    again by mask only when a mask AND shrank, plus those of kb's
    successors whose causes are now present; it is maximal when none is
    left.
    Returns the pullback's event structure and its _BijectionTable.
    """
    if limits.max_configs < 1:  # the empty bijection counts as one
        raise over_cap(limits.max_configs, "secured bijections")
    lrows, lfull = _side(left)
    rrows, rfull = _side(right)
    by_img_right = {}
    for row in rrows:
        by_img_right.setdefault(row[1], []).append(row)
    matched = [(lrow, rrow) for lrow in lrows
               for rrow in by_img_right.get(lrow[1], ())]
    on_left, on_right = {}, {}  # event bit -> bits of the pairs it lies in
    for k, (lrow, rrow) in enumerate(matched):
        on_left[lrow[2]] = on_left.get(lrow[2], 0) | 1 << k
        on_right[rrow[2]] = on_right.get(rrow[2], 0) | 1 << k
    # per pair: its bit, its two events' bits, their strict causes and masks
    rows = [(1 << k, lrow[2], rrow[2], lrow[3], rrow[3], lrow[4], rrow[4])
            for k, (lrow, rrow) in enumerate(matched)]
    # the pairs holding a strict cause of either event, the pairs sharing
    # an event, and the rows of the pairs with an event among their causes
    causes = [_pairs_at(lc, on_left) | _pairs_at(rc, on_right)
              for _, _, _, lc, rc, _, _ in rows]
    shares = [on_left[lb] | on_right[rb] for _, lb, rb, _, _, _, _ in rows]
    succ, after = [0] * len(rows), [[] for _ in rows]  # as bits and rows
    for row, cs in zip(rows, causes):
        for k in _indices(cs):
            succ[k] |= row[0]
            after[k].append(row)

    enabled = sum(kb for kb, _, _, lc, rc, lk, rk in rows
                  if not (lc or rc) and lk & lfull and rk & rfull)
    max_configs, max_primes = limits.max_configs, limits.max_primes
    bijections, primes = [0], []  # primes: (pair bits, top pair's bit)
    maximal = [] if enabled else [0]
    stack = [(0, 0, 0, lfull, rfull, 0, enabled)]
    while stack:
        th, lefts, rights, lmask, rmask, top, enabled = stack.pop()
        # a pair numbered below h, the highest maximal pair, is the highest
        # of a child only when it covers h, so only h's successors and the
        # pairs above h are tried
        h = top.bit_length() - 1
        todo = enabled & (succ[h] | -(2 << h)) if top else enabled
        while todo:
            kb = todo & -todo
            todo ^= kb
            k = kb.bit_length() - 1
            rest = top & ~causes[k]
            if rest > kb:  # not the highest maximal pair of th | kb
                continue
            th2 = th | kb
            bijections.append(th2)
            if len(bijections) > max_configs:
                raise over_cap(max_configs, "secured bijections")
            if not rest:
                primes.append((th2, kb))
                if len(primes) > max_primes:
                    raise over_cap(max_primes, "interaction events")
            _, lb, rb, _, _, lk, rk = rows[k]
            lefts2, rights2 = lefts | lb, rights | rb
            lm, rm = lmask & lk, rmask & rk
            en = enabled & ~shares[k]
            if lm != lmask or rm != rmask:
                bits = en
                while bits:
                    jb = bits & -bits
                    bits ^= jb
                    _, _, _, _, _, lk, rk = rows[jb.bit_length() - 1]
                    if not (lk & lm and rk & rm):
                        en ^= jb
            for jb, lb, rb, lc, rc, lk, rk in after[k]:
                if not (lb & lefts2 or rb & rights2 or lc & ~lefts2
                        or rc & ~rights2) and lk & lm and rk & rm:
                    en |= jb
            if en:
                stack.append((th2, lefts2, rights2, lm, rm, rest | kb, en))
            else:
                maximal.append(th2)

    # a prime's ekey compares its sorted pairs, then its top, and each side's
    # bit positions order that side's events as ekey does
    pairs = [(lrow[0], rrow[0]) for lrow, rrow in matched]
    ranks = [(lrow[2].bit_length() - 1, rrow[2].bit_length() - 1)
             for lrow, rrow in matched]
    table = _BijectionTable(pairs, bijections)

    def rank_key(item):
        pr, top = item
        return (sorted(map(ranks.__getitem__, _indices(pr))),
                ranks[top.bit_length() - 1])

    for pr, top in sorted(primes, key=rank_key):
        table.primes.append(
            (prime_event(table.pair_set(pr), pairs[top.bit_length() - 1]), pr))
    below = {e: frozenset(d for d, db in table.primes if not db & ~pr)
             for e, pr in table.primes}
    # no maximal secured bijection lies inside another: the lowest pair of
    # their difference would extend the smaller one
    maxcons = [table.primes_in(th) for th in maximal]
    return EventStructure([e for e, _ in table.primes], below, maxcons), table


def pullback(f, g, limits=DEFAULT_LIMITS):
    """Pullback of two total maps with a common target.

    Returns (P, pi1, pi2): the event structure of primes with the projections
    sending a prime to the two halves of its top pair.
    """
    _check_maps(f, g)
    es, _ = _enumerate_pullback([(f.src, f.mapping)], [(g.src, g.mapping)],
                                limits)
    pi1 = ESMap(es, f.src, {p: prime_top(p)[0] for p in es.events})
    pi2 = ESMap(es, g.src, {p: prime_top(p)[1] for p in es.events})
    return es, pi1, pi2


def enumerate_secured_bijections(f, g):
    """All secured bijections of the two total maps into one target, as pair
    sets."""
    _check_maps(f, g)
    _, table = _enumerate_pullback([(f.src, f.mapping)], [(g.src, g.mapping)],
                                   DEFAULT_LIMITS)
    return sorted(map(table.pair_set, table.bijections),
                  key=lambda th: (len(th), sorted(map(pairkey, th))))


# ---- interaction ------------------------------------------------------------------


def _padding(sigma, tau):
    """Left and right padded sources, S || N || C and A || M || T, with
    their maps into the flat ambient A || M || B || N || C (sigma: A -> B
    with middle M, tau: B -> C with N). interact reads the same parts in
    place; the tests check it against the pullback of these."""
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


def _copies(pg, j):
    """A part sending each event e of pg to its copy (j, e) in the ambient."""
    return pg.es, {e: (j, e) for e in pg.es.ordered}


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

    def __init__(self, source, game_a, middle, game_b, assign, bijections,
                 name=""):
        super().__init__(source, game_a, middle, game_b, assign, name=name)
        self._bijections = bijections  # the pullback's _BijectionTable

    @property
    def primes_of(self):
        """Each secured bijection of the two sides, as a pair set, mapped
        to its set of primes, the interaction configuration it stands for.
        Decoded on each read."""
        t = self._bijections
        return {t.pair_set(th): t.primes_in(th) for th in t.bijections}


def interact(sigma, tau, limits=DEFAULT_LIMITS):
    """The bare strategy tau after sigma, internal events kept.

    sigma goes from A to B, tau from B to C; the result goes from A to C with
    middle M || B0 || N. Correctness of the defining clauses is inherited from
    the construction and not re-checked here.
    """
    if sigma.B != tau.A:
        raise MiddleGameMismatch("the two strategies do not share a middle game")
    smap = sigma.sigma.mapping
    left = [(sigma.source.es, smap), _copies(tau.N, 4), _copies(tau.B, 5)]
    right = [_copies(sigma.A, 1), _copies(sigma.N, 2),
             (tau.source.es,
              {t: (j + 2, u) for t, (j, u) in tau.sigma.mapping.items()})]
    es, bijections = _enumerate_pullback(left, right, limits)

    a_pol = dual(sigma.A).pol
    pol = {}
    assign = {}
    for p in es.ordered:
        i, e = prime_top(p)[0]
        u = smap[e] if i == 1 else (i + 2, e)
        assign[p] = _ambient_to_target(u)
        if component(u) == 1:
            pol[p] = a_pol[payload(u)]
        elif component(u) == 5:
            pol[p] = tau.B.pol[payload(u)]
        else:
            pol[p] = NEUTRAL

    source = Polarised(es, pol, name="interaction")
    middle = parallel(sigma.N, neutralise(sigma.B), tau.N)
    return Interaction(source, sigma.A, middle, tau.B, assign, bijections,
                       name=f"({tau.name} * {sigma.name})")


def compose(sigma, tau, limits=DEFAULT_LIMITS):
    """Composition with hiding: the visible part of the interaction."""
    inter = interact(sigma, tau, limits)
    vis = visible_part(inter)
    vis.name = f"({tau.name} . {sigma.name})"
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

    pair_configs reads the closures. Whether a pair glues at all is decided
    by the two orders on B alone, which testing reads from each side's kept
    order_on; glue is the oracle for that check.
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


def _assert_race_free(limits, *gs):
    for g in gs:
        ok, wit = is_race_free(g, limits)
        if not ok:
            raise NotRaceFree(f"game {g.name or '?'} has a race",
                              game=g, witness=wit)


def _stopping_pairings(s, t, limits):
    """pair_configs of every stopping x of s and stopping y of t that meet on
    the middle game; only pairs with equal images on it are tried. The three
    games are checked for races under the caller's cap."""
    _assert_race_free(limits, s.strat.A, s.strat.B, t.strat.B)
    by_image = s.stopping_by_image()
    for y in t.sorted_stopping():
        for x, _ in by_image.get(t.strat.image_on(1, y), ()):
            got = pair_configs(s.strat, t.strat, x, y)
            if got is not None:
                yield got


def interact_stopping(s, t, limits=DEFAULT_LIMITS):
    """Interaction of stopping strategies: pair the stopping sets."""
    require_stopping("interact_stopping", s, t)
    stopping = {got[0] for got in _stopping_pairings(s, t, limits)}
    return StoppingStrategy(interact(s.strat, t.strat, limits), stopping)


def compose_stopping(s, t, limits=DEFAULT_LIMITS):
    """Composition of stopping strategies: hide, pairing the stopping sets."""
    require_stopping("compose_stopping", s, t)
    stopping = {got[1] for got in _stopping_pairings(s, t, limits)}
    return StoppingStrategy(compose(s.strat, t.strat, limits), stopping)


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
