"""Polarity, games, duality, parallel composition, and the copycat construction."""

from functools import cache, cached_property
from itertools import product

from .errors import BadArgument, PolarityMismatch
from .limits import DEFAULT_LIMITS
from .structures import (EventStructure, ESMap, event_structure,
                         maximal_sets, reflexive_closures, sortedevents)

PLUS = "+"
MINUS = "-"
NEUTRAL = "0"
POLARITIES = (PLUS, MINUS, NEUTRAL)


class Polarised:
    """An event structure with a total polarity function."""

    def __init__(self, es, pol, name=""):
        pol = dict(pol)
        missing = es.events - set(pol)
        extra = set(pol) - es.events
        if missing or extra:
            raise PolarityMismatch(
                f"polarity must cover events exactly"
                f" (missing {sortedevents(missing)}, extra {sortedevents(extra)})",
                missing=frozenset(missing), extra=frozenset(extra))
        bad = {e: p for e, p in pol.items() if p not in POLARITIES}
        if bad:
            raise PolarityMismatch(f"bad polarity values {bad}", bad=bad)
        self.es = es
        self.pol = pol
        self.name = name or es.name

    # frequently used views on the underlying structure
    @property
    def events(self):
        return self.es.events

    @property
    def maxcons(self):
        return self.es.maxcons

    def configurations(self, limits=DEFAULT_LIMITS):
        return self.es.configurations(limits)

    def events_with(self, *pols):
        return frozenset(e for e in self.es.events if self.pol[e] in pols)

    @property
    def is_game(self):
        return NEUTRAL not in self.pol.values()

    def require_game(self, what="operation"):
        if not self.is_game:
            raise PolarityMismatch(
                f"{what} requires a game without neutral events",
                neutrals=self.events_with(NEUTRAL))
        return self

    def restrict(self, keep):
        keep = frozenset(keep)
        return Polarised(self.es.restrict(keep),
                         {e: self.pol[e] for e in keep}, name=self.name)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Polarised):
            return NotImplemented
        return self.es == other.es and self.pol == other.pol

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.es, frozenset(self.pol.items())))

    def __repr__(self):
        nm = self.name or "polarised"
        kinds = "".join(sorted(set(self.pol.values())))
        return f"<{nm}: {len(self.es.events)} events [{kinds}]>"


def game(es, pol, name=""):
    return Polarised(es, pol, name=name).require_game("game construction")


EMPTY = Polarised(event_structure([], name="empty"), {}, name="empty")

TICK = "tick"


@cache
def success_game():
    """The one-move game a test reports success in."""
    return game(event_structure([TICK]), {TICK: PLUS}, name="success")


def dual(pg):
    flip = {PLUS: MINUS, MINUS: PLUS, NEUTRAL: NEUTRAL}
    return Polarised(pg.es, {e: flip[p] for e, p in pg.pol.items()},
                     name=pg.name and f"dual({pg.name})")


def neutralise(pg):
    return Polarised(pg.es, {e: NEUTRAL for e in pg.es.events}, name=pg.name)


def component(te):
    return te[0]


def payload(te):
    return te[1]


def slice_config(x, i):
    """Untagged component slice of a tagged event set."""
    return frozenset(e for (j, e) in x if j == i)


def parallel(*parts, name=""):
    """Tagged juxtaposition; component i contributes events (i, e), 1-based.

    Nesting is preserved: parallel(A, parallel(B, C)) differs from
    parallel(A, B, C).
    """
    if not parts:
        raise BadArgument("parallel needs at least one component")
    below = {}
    pol = {}
    for i, p in enumerate(parts, start=1):
        for e in p.es.ordered:
            below[(i, e)] = frozenset((i, d) for d in p.es.below(e))
            pol[(i, e)] = p.pol[e]
    tagged = [[frozenset((i, e) for e in m) for m in p.es.maxcons]
              for i, p in enumerate(parts, start=1)]
    maxcons = [frozenset().union(*combo) for combo in product(*tagged)]
    # (i, e) sorts by i, then as e does: the components' orders, in turn
    es = EventStructure(below.keys(), below, maxcons, name=name)
    return Polarised(es, pol, name=name)


# ---- polarity-filtered extension orders ---------------------------------------


def minus_subset(pg, x, y):
    """x ⊆ y growing only by Opponent events."""
    x, y = frozenset(x), frozenset(y)
    return x <= y and all(pg.pol[e] == MINUS for e in y - x)


def scott_leq(pg, y, x):
    """y below x in the Scott order: y loses only Opponent events and x adds
    only Player or neutral ones, relative to the common part."""
    y, x = frozenset(y), frozenset(x)
    common = x & y
    return (all(pg.pol[e] == MINUS for e in y - common)
            and all(pg.pol[e] in (PLUS, NEUTRAL) for e in x - common))


def is_plus_maximal(pg, x):
    """No extension of x by a Player or neutral event."""
    return no_plus_extension(pg, pg.es.extensions(x))


def no_plus_extension(pg, ext):
    """No event of ext, a configuration's extensions, is Player or neutral."""
    return not any(pg.pol[e] in (PLUS, NEUTRAL) for e in ext)


def plus_maximal_configs(pg):
    return [x for x, ext in pg.es.configuration_graph().items()
            if no_plus_extension(pg, ext)]


# ---- races and determinism ------------------------------------------------------


def is_race_free(pg, limits=DEFAULT_LIMITS):
    """True iff Player and Opponent extensions never exclude one another.

    On failure returns (False, (x, y, z)) with y a Player-or-neutral and z an
    Opponent extension of x whose union is inconsistent. Checking one event on
    each side suffices: a minimal inconsistent pair of extensions shrinks to a
    single added event on each side.
    """
    return _first_clash(pg, (MINUS,), limits)


def is_deterministic(pg):
    """True iff a Player-or-neutral extension is compatible with every other
    extension. Same single-event reduction as is_race_free."""
    return _first_clash(pg, POLARITIES, DEFAULT_LIMITS)


def _first_clash(pg, rivals, limits):
    """The first x, Player-or-neutral extension e and other extension f with
    a polarity in rivals such that x | {e, f} is inconsistent, if any."""
    for x, ext in pg.es.configuration_graph(limits).items():
        for e in ext:
            if pg.pol[e] == MINUS:
                continue
            for f in ext:
                if f != e and pg.pol[f] in rivals \
                        and not pg.es.is_consistent(x | {e, f}):
                    return False, (x, x | {e}, x | {f})
    return True, None


# ---- copycat ---------------------------------------------------------------------


def copycat(A):
    """The copycat structure over a game A, with its map into dual(A) ∥ A.

    Order: both component orders plus, for every Player event c of the
    juxtaposition, the edge from its counterpart in the other component.
    A finite set is consistent iff its causal closure here is consistent in
    the juxtaposition; maximal consistent sets are computed per pair of
    component maximal sets, and pruned, as these can nest: with Player moves
    p ~ q, the pair ({p}, {q}) keeps only (1, p), inside {(1, p), (2, p)}.
    """
    A.require_game("copycat")
    target = parallel(dual(A), A, name=f"dual+{A.name}" if A.name else "")

    preds = {te: set() for te in target.es.events}
    for (i, a) in target.es.events:
        preds[(i, a)] |= {(i, d) for d in A.es.strict_below(a)}
    for a in A.es.events:
        if A.pol[a] == PLUS:
            preds[(2, a)].add((1, a))
        else:
            preds[(1, a)].add((2, a))

    below = reflexive_closures(preds)

    maxcons = set()
    for m1 in A.es.maxcons:
        for m2 in A.es.maxcons:
            u0 = {(1, a) for a in m1} | {(2, a) for a in m2}
            maxcons.add(frozenset(e for e in u0 if below[e] <= u0))

    cc_es = EventStructure(target.es.ordered, below, maximal_sets(maxcons),
                           name=A.name and f"cc({A.name})")
    cc = Polarised(cc_es, dict(target.pol), name=cc_es.name)
    ccmap = ESMap(cc_es, target.es, {e: e for e in cc_es.events})
    return cc, ccmap
