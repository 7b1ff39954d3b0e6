"""Rigid images of strategies, computed through pointed augmentations.

A strategy source can tell apart runs that look identical from the target's
point of view: branches that play the same moves with the same causal shape.
The rigid image collapses every source event to the record of what it did -
the played-so-far set, the order the source imposed on it, and which move the
event itself was. Two events with equal records become one.
"""

from collections import namedtuple

from .errors import BadArgument
from .games import Polarised, no_plus_extension
from .limits import DEFAULT_LIMITS
from .strategies import (BareStrategy, StoppingStrategy, require_stopping,
                         strategy)
from .structures import ekey, event_structure


class PointedAugmentation:
    """A finite set of target events, ordered at least as the target orders
    them, with a single top element: one event occurrence with its history.

    Immutable. Not a tuple, so that ekey orders augmentations by their repr.
    """

    __slots__ = ("carrier", "order", "top")

    def __init__(self, carrier, order, top):
        # order: strict pairs (a, b), transitively closed
        if top not in carrier:
            raise BadArgument(f"top {top!r} outside the carrier",
                              top=top, carrier=carrier)
        below_top = {a for (a, b) in order if b == top}
        if below_top != carrier - {top}:
            raise BadArgument("top is not above every other carrier event",
                              top=top, order=order)
        if any((b, a) in order or a == b for (a, b) in order):
            raise BadArgument("order is not a strict partial order", order=order)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "top", top)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {value!r} to {name!r}:"
                             f" {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}:"
                             f" {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.carrier, self.order, self.top)
                == (other.carrier, other.order, other.top))

    def __hash__(self):
        return hash((self.carrier, self.order, self.top))

    def restrict(self, t):
        """The pointed sub-augmentation below one carrier event."""
        kept = {a for (a, b) in self.order if b == t} | {t}
        return PointedAugmentation(
            frozenset(kept),
            frozenset(p for p in self.order if p[0] in kept and p[1] in kept),
            t)

    def __repr__(self):
        ordered = ",".join(f"{a!r}<{b!r}"
                           for a, b in sorted(self.order, key=ekey))
        return f"aug({self.top!r}; {ordered})" if ordered else f"aug({self.top!r})"


def prime_of(bs, s):
    """The pointed augmentation a source event maps to: its image history."""
    x = bs.source.es.below(s)
    order = frozenset((bs.assigned(a), bs.assigned(b))
                      for b in x for a in bs.source.es.strict_below(b) & x)
    return PointedAugmentation(frozenset(bs.assigned(t) for t in x),
                               order, bs.assigned(s))


def rigid_image(sigma, limits=DEFAULT_LIMITS):
    """Factor a strategy through the rigid collapse of its source.

    Returns (sigma0, f): sigma0 plays one event per distinct history, f sends
    each source event to its history and is a rigid epi 2-cell onto sigma0.
    """
    if not (isinstance(sigma, BareStrategy) and sigma.is_strategy):
        raise BadArgument("rigid_image expects a neutral-free strategy")
    f = {s: prime_of(sigma, s) for s in sigma.source.events}
    events = set(f.values())
    causes = [(p, q) for q in events for p in events
              if p != q and p.top in q.carrier and q.restrict(p.top) == p]
    # a set of histories is consistent exactly when one source configuration
    # realizes them all
    consistent = [frozenset(f[s] for s in m) for m in sigma.source.es.maxcons]
    es0 = event_structure(events, causes, consistent=consistent)
    src0 = Polarised(es0, {p: sigma.target.pol[p.top] for p in events})
    sigma0 = strategy(src0, sigma.A, sigma.B, {p: p.top for p in events},
                      name=f"ri({sigma.name})" if sigma.name else "",
                      limits=limits)
    return sigma0, f


def rigid_image_stopping(st, limits=DEFAULT_LIMITS):
    """Collapse a stopping strategy; stopping sets carry over by direct image."""
    require_stopping("rigid_image_stopping", st)
    sigma0, f = rigid_image(st.strat, limits)
    stopping = {frozenset(f[s] for s in y) for y in st.stopping}
    return StoppingStrategy(sigma0, stopping,
                            name=f"ri({st.name})" if st.name else "")


# ---- stopping-set lint ---------------------------------------------------------------

NO_STOPPING_EXTENSION = "config-without-stopping-extension"
DOMINATED_MAXIMAL_NOT_STOPPING = "plus-maximal-under-stopping-not-stopping"
STOPPING_NOT_PLUS_MAXIMAL = "stopping-not-plus-maximal"
PLUS_MAXIMAL_NOT_STOPPING = "plus-maximal-not-stopping"


_OBSERVATIONS = frozenset({STOPPING_NOT_PLUS_MAXIMAL,
                           PLUS_MAXIMAL_NOT_STOPPING})


class LintFinding(namedtuple("LintFinding", "code config")):
    """One lint code and the configuration it concerns; advisory when the
    code is an observation rather than a candidate law."""
    __slots__ = ()

    @property
    def advisory(self):
        return self.code in _OBSERVATIONS

    def __repr__(self):
        tag = "note" if self.advisory else "axiom"
        return f"<{tag} {self.code}: {sorted(self.config, key=ekey)}>"


def lint_stopping(st):
    """Report which optional stopping-set laws a stopping strategy breaks.

    Nothing here is enforced anywhere else: stopping sets only promise to be
    configurations. The first two codes are candidate laws (every
    configuration extends to a stopping one; a +-maximal configuration under
    a stopping one is stopping), the last two are plain observations. The
    observations are not laws on purpose - collapsing a strategy to its rigid
    image can create +-maximal configurations out of nowhere, so neither
    inclusion between stopping and +-maximal survives transport.
    """
    require_stopping("lint_stopping", st)
    src, graph = st.strat.source, st.strat.configuration_graph()
    maximal = [x for x, ext in graph.items() if no_plus_extension(src, ext)]
    findings = [LintFinding(NO_STOPPING_EXTENSION, x) for x in graph
                if not any(x <= y for y in st.stopping)]
    findings += [LintFinding(DOMINATED_MAXIMAL_NOT_STOPPING, x)
                 for x in maximal if x not in st.stopping
                 and any(x <= y for y in st.stopping)]
    findings += [LintFinding(STOPPING_NOT_PLUS_MAXIMAL, y)
                 for y in st.sorted_stopping()
                 if not no_plus_extension(src, graph[y])]
    findings += [LintFinding(PLUS_MAXIMAL_NOT_STOPPING, x)
                 for x in maximal if x not in st.stopping]
    return findings
