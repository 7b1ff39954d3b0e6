"""Finite event structures, their maps, and the core combinatorics.

An event structure is a finite set of events, a causal partial order kept as
per-event down-closures, and a consistency family kept as the antichain of
maximal consistent sets. Configurations are the consistent down-closed subsets;
configuration_graph maps each, in one walk, to the events that extend it.

Outside input is diagnosed by diagnose_structure (event_structure raises on
its diagnostics). The engine's own builders call EventStructure directly with
the events in ekey order and a family that is already an antichain: maximal
cliques for binary conflicts, products of antichains in games.parallel, and
maximal secured bijections in the pullback. Only the families that can nest
go through maximal_sets: declared consistent blocks, restrict and
games.copycat.
"""

from collections import Counter, namedtuple
from functools import cached_property
from itertools import combinations

from .errors import (
    ConsistencyNotDownClosed,
    Cycle,
    CycleInCause,
    EndpointMismatch,
    ImageNotConfiguration,
    InconsistentSingleton,
    InvalidStructure,
    LocalInjectivityViolation,
    SearchBudgetExceeded,
    UnknownEvent,
)
from .limits import DEFAULT_LIMITS, over_cap


def ekey(e):
    """Total sort key over the heterogeneous hashable values used as events."""
    if isinstance(e, bool):
        return ("b", e)
    if isinstance(e, str):
        return ("s", e)
    if isinstance(e, int):
        return ("i", e)
    if isinstance(e, tuple):
        return ("t", tuple(ekey(c) for c in e))
    if isinstance(e, frozenset):
        return ("f", tuple(sorted(ekey(c) for c in e)))
    return ("o", repr(e))


def sortedevents(xs):
    return tuple(sorted(xs, key=ekey))


def cfgkey(x):
    """Canonical sort key for a set of events."""
    return (len(x), tuple(sorted(map(ekey, x))))


class EventStructure:
    """Immutable by convention; outside input is built via event_structure().

    The constructor trusts its builder: ordered lists the events in ekey
    order, below maps each event to its reflexive down-closure, and maxcons
    is the family of maximal consistent sets, an antichain of frozensets
    without repeats. Builders whose families can nest pass them through
    maximal_sets first. ordered and rank (event -> position in ordered) are
    kept as given; every ordered result is sorted by rank, which orders
    events as ekey does, and maxcons is sorted by config_key.
    """

    def __init__(self, ordered, below, maxcons, name=""):
        self.name = name
        self.ordered = tuple(ordered)
        self.rank = {e: i for i, e in enumerate(self.ordered)}
        self.events = frozenset(self.ordered)
        self._below = {e: frozenset(below[e]) for e in self.ordered}
        self.maxcons = tuple(sorted(maxcons, key=self.config_key))

    def config_key(self, x):
        """Sort key for a set of events that orders as cfgkey does."""
        return (len(x), sorted(map(self.rank.__getitem__, x)))

    # ---- order -------------------------------------------------------------

    def below(self, e):
        """Causal down-closure of e, including e."""
        if e not in self._below:
            raise UnknownEvent(f"unknown event {e!r}", event=e)
        return self._below[e]

    def strict_below(self, e):
        return self.below(e) - {e}

    def above(self, e):
        if e not in self._above:
            raise UnknownEvent(f"unknown event {e!r}", event=e)
        return self._above[e]

    @cached_property
    def _above(self):
        ab = {f: set() for f in self.events}
        for f in self.events:
            for d in self._below[f]:
                ab[d].add(f)
        return {f: frozenset(s) for f, s in ab.items()}

    def leq(self, a, b):
        return a in self.below(b)

    def down_closure(self, xs):
        out = set()
        for e in xs:
            out |= self.below(e)
        return frozenset(out)

    def immediate_pairs(self):
        """Cover pairs (a, b): a < b with nothing strictly between."""
        return self._immediate

    @cached_property
    def _immediate(self):
        pairs = set()
        for b in self.events:
            preds = self.strict_below(b)
            for a in preds:
                if not any(a in self._below[c] - {c} for c in preds):
                    pairs.add((a, b))
        return frozenset(pairs)

    def concurrent_pairs(self):
        out = set()
        for a, b in combinations(self.ordered, 2):
            if a not in self._below[b] and b not in self._below[a] \
                    and self.is_consistent({a, b}):
                out.add((a, b))
        return frozenset(out)

    def inconsistent_pairs(self):
        """The pairs (a, b), a before b, that consistency rejects; pairs and
        events in ekey order."""
        return [(a, b) for a, b in combinations(self.ordered, 2)
                if not self.is_consistent({a, b})]

    def minimal_conflicts(self):
        """The inconsistent pairs not inherited from an inconsistent pair
        below, in ekey order."""
        pairs = self.inconsistent_pairs()
        bad = set(map(frozenset, pairs))
        return [(a, b) for a, b in pairs
                if not any(frozenset((a2, b)) in bad
                           for a2 in self.strict_below(a))
                and not any(frozenset((a, b2)) in bad
                            for b2 in self.strict_below(b))]

    # ---- consistency and configurations -------------------------------------

    def is_consistent(self, xs):
        xs = frozenset(xs)
        return any(xs <= m for m in self.maxcons)

    def is_configuration(self, xs):
        xs = frozenset(xs)
        if not xs <= self.events:
            return False
        return self.is_consistent(xs) and all(self._below[e] <= xs for e in xs)

    def extensions(self, x):
        """Events e not in x with x + {e} a configuration, in ekey order."""
        out = []
        for e in self.ordered:
            if e not in x:
                y = x | {e}
                if self._below[e] <= y and self.is_consistent(y):
                    out.append(e)
        return out

    def configuration_graph(self, limits=DEFAULT_LIMITS):
        """Each configuration, smallest first, mapped to its extensions."""
        if limits.max_configs < 1:  # the empty configuration counts as one
            raise over_cap(limits.max_configs, "configurations")
        graph = {}
        seen = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            nxt = []
            for x in frontier:
                graph[x] = ext = self.extensions(x)
                for e in ext:
                    y = x | {e}
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > limits.max_configs:
                            raise over_cap(limits.max_configs,
                                           "configurations")
                        nxt.append(y)
            frontier = nxt
        return {x: graph[x] for x in sorted(graph, key=self.config_key)}

    def configurations(self, limits=DEFAULT_LIMITS):
        """All configurations, smallest first, deterministic order."""
        return list(self.configuration_graph(limits))

    # ---- derived structures --------------------------------------------------

    def restrict(self, keep):
        """The projection to `keep`: order and consistency restricted."""
        keep = frozenset(keep)
        unknown = keep - self.events
        if unknown:
            raise UnknownEvent(f"unknown events {sortedevents(unknown)}",
                               events=unknown)
        below = {e: self._below[e] & keep for e in keep}
        return EventStructure([e for e in self.ordered if e in keep], below,
                              maximal_sets(m & keep for m in self.maxcons),
                              name=self.name)

    # ---- identity -------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, EventStructure):
            return NotImplemented
        return (self.events == other.events and self._below == other._below
                and set(self.maxcons) == set(other.maxcons))

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.events, frozenset(self._below.items()),
                     frozenset(self.maxcons)))

    def __repr__(self):
        nm = self.name or "es"
        return f"<{nm}: {len(self.events)} events, {len(self.maxcons)} maxcons>"


def maximal_sets(sets):
    """The members of sets included in no other member, each once; the empty
    family gives the family of the empty set."""
    out = []
    for s in sorted(set(sets), key=len, reverse=True):
        if not any(s < t for t in out):
            out.append(s)
    return out or [frozenset()]


# ---- construction and validation --------------------------------------------


def diagnose_structure(events, causes=(), conflicts=(), consistent=None):
    """Collect diagnostics; on success the last element is the built structure.

    Returns (diagnostics, structure_or_None).
    """
    diags = []
    events = list(dict.fromkeys(events))
    evset = set(events)

    def known(e, where):
        if e not in evset:
            diags.append(UnknownEvent(f"unknown event {e!r} in {where}", event=e))
            return False
        return True

    edges = []
    for a, b in causes:
        if known(a, "cause") and known(b, "cause"):
            edges.append((a, b))

    # down-closures over the generating cause edges, or a cycle among them
    preds = {e: set() for e in events}
    for a, b in edges:
        preds[b].add(a)
    try:
        below = reflexive_closures(preds)
    except Cycle as c:
        cycle = c.data["cycle"]
        diags.append(CycleInCause(f"cause cycle {cycle}", cycle=cycle))
        return diags, None

    if consistent is not None:
        declared = [frozenset(m) for m in consistent]
        for m in declared:
            for e in m:
                known(e, "consistent block")
        declared = [m & evset for m in declared]
        for e in events:
            if not any(e in m for m in declared):
                diags.append(InconsistentSingleton(
                    f"event {e!r} appears in no consistent set", event=e))
        for m in declared:
            closure = set()
            for e in m:
                closure |= below[e]
            if not any(closure <= m2 for m2 in declared):
                diags.append(ConsistencyNotDownClosed(
                    f"closure of {sortedevents(m)} is not consistent",
                    member=m, closure=frozenset(closure)))
        maxcons = maximal_sets(declared)
    else:
        pairs = {}  # each pair once, as first declared
        for a, b in conflicts:
            if known(a, "conflict") and known(b, "conflict"):
                if a == b:
                    diags.append(InconsistentSingleton(
                        f"event {a!r} conflicts with itself", event=a))
                else:
                    pairs.setdefault(frozenset((a, b)), (a, b))
        closed, clashes = inherited_conflicts(below, pairs.values())
        for e, (a, b) in clashes:
            diags.append(InconsistentSingleton(
                f"event {e!r} is above conflicting events {a!r} ~ {b!r}",
                event=e, pair=(a, b)))
        if any(isinstance(d, InconsistentSingleton) for d in diags):
            return diags, None
        maxcons = maximal_consistent_sets(events, closed)

    if diags:
        return diags, None
    return diags, EventStructure(sortedevents(events), below, maxcons)


def inherited_conflicts(below, conflicts):
    """Binary conflicts closed upward: {a2, b2} for every a2 above a and b2
    above b of each conflict (a, b), with below(e) the reflexive
    down-closure of each event e.

    Returns the closed pairs, as frozensets, and a clash (e, (a, b)) for
    each event e above both a and b, which would conflict with itself.
    """
    above = {e: [] for e in below}
    for f, down in below.items():
        for d in down:
            above[d].append(f)
    closed, clashes = set(), []
    for a, b in conflicts:
        for a2 in above[a]:
            for b2 in above[b]:
                if a2 == b2:
                    clashes.append((a2, (a, b)))
                else:
                    closed.add(frozenset((a2, b2)))
    return closed, clashes


def maximal_consistent_sets(events, closed):
    """The maximal consistent sets of events under the closed binary
    conflicts: the maximal cliques of the graph joining compatible events."""
    if not closed:
        return [frozenset(events)]
    compatible = {e: set(events) - {e} for e in events}
    for a, b in map(tuple, closed):
        compatible[a].discard(b)
        compatible[b].discard(a)
    return _maximal_cliques(compatible)


def reflexive_closures(preds):
    """Reflexive down-closure of each node of a relation given as node -> set
    of predecessors. Raises Cycle when the relation is not acyclic; its
    cycle lists nodes from a node back to itself, each a predecessor of the
    next; it does not depend on the order in which the sets iterate.

    Nodes are placed in rounds, each once its predecessors are; the graphs
    met here have a handful of nodes.
    """
    below = {}
    todo = list(preds)
    while todo:
        rest = []
        for p in todo:
            ps = preds[p]
            if ps <= below.keys():
                b = {p}
                for q in ps:
                    b |= below[q]
                below[p] = frozenset(b)
            else:
                rest.append(p)
        if len(rest) == len(todo):
            # every stuck node has a stuck predecessor: walk back to a loop,
            # taking the least in ekey order
            path = [rest[0]]
            while path.count(path[-1]) == 1:
                path.append(min((q for q in preds[path[-1]] if q not in below),
                                key=ekey))
            cycle = path[path.index(path[-1]):][::-1]
            raise Cycle(f"causal cycle through {cycle}", cycle=cycle)
        todo = rest
    return below


def _maximal_cliques(adjacent):
    """Maximal cliques of the graph given as vertex -> set of neighbours.

    Bron-Kerbosch with pivoting (Tomita, Tanaka, Takahashi, TCS 2006): only
    vertices outside the pivot's neighbourhood are branched on, since every
    maximal clique contains the pivot or one of them.
    """
    out = []
    _expand(adjacent, frozenset(), frozenset(adjacent), frozenset(), out)
    return out


def _expand(adjacent, clique, cands, done, out):
    """Add to out every maximal clique that extends clique by vertices of
    cands and none of done."""
    if not cands and not done:
        out.append(clique)
        return
    pivot = max(cands | done, key=lambda u: len(cands & adjacent[u]))
    for v in cands - adjacent[pivot]:
        _expand(adjacent, clique | {v}, cands & adjacent[v],
                done & adjacent[v], out)
        cands = cands - {v}
        done = done | {v}


def event_structure(events, causes=(), conflicts=(), consistent=None, name=""):
    """Build and validate; raises InvalidStructure on any diagnostic."""
    diags, es = diagnose_structure(events, causes, conflicts, consistent)
    if diags:
        raise InvalidStructure(diags)
    es.name = name
    return es


# ---- maps --------------------------------------------------------------------


class ESMap:
    """A (possibly partial) map of event structures; mapping holds the defined part."""

    def __init__(self, src, dst, mapping):
        self.src = src
        self.dst = dst
        self.mapping = dict(mapping)

    def __getitem__(self, e):
        return self.mapping[e]

    def image(self, xs):
        return frozenset(self.mapping[e] for e in xs if e in self.mapping)

    @property
    def is_total(self):
        return set(self.mapping) == set(self.src.events)

    def then(self, other):
        """Composition: self followed by other."""
        if self.dst != other.src:
            raise EndpointMismatch("composition endpoint mismatch",
                                   left=self.dst, right=other.src)
        m = {e: other.mapping[v] for e, v in self.mapping.items()
             if v in other.mapping}
        return ESMap(self.src, other.dst, m)

    def __eq__(self, other):
        if not isinstance(other, ESMap):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash((self.src, self.dst, frozenset(self.mapping.items())))

    def __repr__(self):
        return f"<ESMap {len(self.mapping)}/{len(self.src.events)} events>"


MapReport = namedtuple("MapReport", "valid total rigid diagnostics")


def validate_map(m, limits=DEFAULT_LIMITS, *, configs=None):
    """Check configuration preservation and local injectivity exhaustively.

    configs, when given, are the source's configurations, so that a caller
    that holds them does not enumerate them again.
    """
    diags = []
    for e, v in m.mapping.items():
        if e not in m.src.events:
            diags.append(UnknownEvent(f"map domain event {e!r} unknown", event=e))
        if v not in m.dst.events:
            diags.append(UnknownEvent(f"map value {v!r} unknown", event=v))
    if diags:
        return MapReport(False, False, False, diags)

    if configs is None:
        configs = m.src.configurations(limits)
    mapping = m.mapping
    for x in configs:
        img = [mapping[e] for e in x if e in mapping]
        if len(set(img)) != len(img):
            seenv = {}
            for e in sortedevents(x):
                if e in mapping:
                    v = mapping[e]
                    if v in seenv:
                        diags.append(LocalInjectivityViolation(
                            f"{seenv[v]!r} and {e!r} share image {v!r} in a"
                            f" configuration", x=x, events=(seenv[v], e)))
                        break
                    seenv[v] = e
            continue
        if not m.dst.is_configuration(img):
            diags.append(ImageNotConfiguration(
                f"image of {sortedevents(x)} is not a configuration",
                x=x, image=frozenset(img)))

    total = m.is_total
    rigid = total and all(
        m.dst.leq(m.mapping[a], m.mapping[b])
        for b in m.src.events for a in m.src.strict_below(b))
    return MapReport(not diags, total, rigid, diags)


def project(es, keep):
    """Projection structure plus the partial identity map onto it."""
    sub = es.restrict(keep)
    return sub, ESMap(es, sub, {e: e for e in keep})


def factorize(m):
    """Partial-total factorisation: projection to the domain, then a total map."""
    sub, p = project(m.src, set(m.mapping))
    f1 = ESMap(sub, m.dst, dict(m.mapping))
    return p, f1


# ---- isomorphism search --------------------------------------------------------


def find_isomorphism(e1, e2, label1=None, label2=None, budget=200_000):
    """Backtracking isomorphism search.

    Returns a dict event->event or None. When labels are given the isomorphism
    must commute with them. Raises SearchBudgetExceeded once more than budget
    candidate pairs have been tried.
    """
    if len(e1.events) != len(e2.events):
        return None
    label1 = label1 or {}
    label2 = label2 or {}

    def inv(es, lab, e):
        return (lab.get(e), len(es.below(e)), len(es.above(e)))

    inv1 = {e: inv(e1, label1, e) for e in e1.events}
    inv2 = {e: inv(e2, label2, e) for e in e2.events}
    if Counter(inv1.values()) != Counter(inv2.values()):
        return None

    cands = {e: tuple(f for f in e2.ordered if inv2[f] == inv1[e])
             for e in e1.events}
    order = sorted(e1.events, key=lambda e: (len(cands[e]), e1.rank[e]))
    assign = {}
    if _search(e1, e2, order, cands, assign, set(), [0], budget):
        return assign
    return None


def _agrees(e1, e2, assign, e, f):
    """Whether sending e to f keeps order and consistency with assign."""
    for a, b in assign.items():
        if e1.leq(a, e) != e2.leq(b, f):
            return False
        if e1.leq(e, a) != e2.leq(f, b):
            return False
        if e1.is_consistent({a, e}) != e2.is_consistent({b, f}):
            return False
    return True


def _search(e1, e2, order, cands, assign, used, tried, budget):
    """Whether assign, defined on order's first len(assign) events and onto
    used, extends to an isomorphism, which it then holds; tried[0] counts
    the candidate pairs tried against budget."""
    i = len(assign)
    if i == len(order):
        fam1 = {frozenset(assign[e] for e in m) for m in e1.maxcons}
        return fam1 == set(e2.maxcons)
    e = order[i]
    for f in cands[e]:
        if f in used:
            continue
        tried[0] += 1
        if tried[0] > budget:
            raise SearchBudgetExceeded(f"budget {budget} exhausted",
                                       budget=budget)
        if _agrees(e1, e2, assign, e, f):
            assign[e] = f
            used.add(f)
            if _search(e1, e2, order, cands, assign, used, tried, budget):
                return True
            del assign[e]
            used.discard(f)
    return False
