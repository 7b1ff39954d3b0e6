"""Bare strategies, their validation, visible parts, stopping data, and 2-cells.

A bare strategy from game A to game B is a total polarity-preserving map
sigma: S -> dual(A) || N || B whose source may contain neutral events and whose
middle N is all neutral. It must be receptive (Opponent extensions of an image
lift uniquely) and innocent in both directions. A strategy is the special case
with no neutral events anywhere; every strategy is kept in the same three
component typing with an empty middle, so target tags are uniformly
(1, a) for the dual side, (2, n) for the middle and (3, b) for the B side.
Kept data: BareStrategy.configurations(limits) is the one cap-bound root; all
else kept is a cached_property read after its check, bar the matches_b memo.
A strategy's target dual(A) || N || B is built on the first read of target
or sigma.dst, and strategies over equal games share it while one holds it.
Each table stays for what removing it cost the bounded-tests (b) or compose
(c) benchmark workload, in the median of six in-process pairs:
- the root, b x4.3; matches_b, b +17 %;
- BareStrategy: is_strategy, b +9.6 %; _hidden, b +1.8 %; _by_image, b +32 %;
  _stop, b +249 %; _ticking, b +31 %; its map's target, c +4.7 %;
- StoppingStrategy: _hidden, b +3.2 %; _by_image, b +87 %; nonticking_runs,
  b +53 %;
- the weak _targets table, b +3.0 % and peak memory 20.8 -> 22.9 MB.
"""

import weakref
from functools import cached_property

from .errors import (
    BadArgument,
    GameMismatch,
    InvalidStructure,
    MapNotTotal,
    MinusInnocenceViolation,
    NotAConfiguration,
    NotEpi,
    NotPlusReflecting,
    NotReceptive,
    NotRigid,
    PlusInnocenceViolation,
    PolarityMismatch,
    StoppingNotPreserved,
    TriangleBroken,
)
from .games import (
    EMPTY,
    MINUS,
    NEUTRAL,
    PLUS,
    TICK,
    copycat,
    dual,
    no_plus_extension,
    parallel,
)
from .limits import DEFAULT_LIMITS, over_cap
from .structures import ESMap, cfgkey, sortedevents, validate_map

# (A, N, B) -> dual(A) || N || B, one target per value of the three games,
# shared by the strategies over them and dropped with the last one
_targets = weakref.WeakValueDictionary()


def shared_target(game_a, middle, game_b):
    """dual(A) || N || B, one object per value of the games while held."""
    key = game_a, middle, game_b
    target = _targets.get(key)
    if target is None:
        target = _targets[key] = parallel(dual(game_a), middle, game_b)
    return target


class _StrategyMap(ESMap):
    """A strategy's map into dual(A) || N || B, whose target is taken from
    shared_target on first read. It holds the three games, not the
    strategy, so that no strategy sits in a reference cycle."""

    def __init__(self, src, games, mapping):
        self.src = src
        self.mapping = dict(mapping)
        self._games = games

    @cached_property
    def target(self):
        return shared_target(*self._games)

    @property
    def dst(self):
        return self.target.es


class BareStrategy:
    """Holds source, games, middle and the assignment into dual(A) || N || B."""

    def __init__(self, source, game_a, middle, game_b, assign, name=""):
        self.name = name
        self.source = source
        self.A = game_a
        self.N = middle
        self.B = game_b
        self.sigma = _StrategyMap(source.es, (game_a, middle, game_b), assign)
        self._configs = self._graph = None  # configurations(), with extensions
        self._matched = None  # matches_b: the last game found equal to B

    @property
    def target(self):
        """dual(A) || N || B, built on first read and shared while held."""
        return self.sigma.target

    @cached_property
    def is_strategy(self):
        return (not self.N.events
                and NEUTRAL not in self.source.pol.values())

    @property
    def visible(self):
        """The visible part: the strategy itself when it is one. Only a copy
        is kept, as a strategy holding itself waits for the cycle collector."""
        return self if self.is_strategy else self._hidden

    @cached_property
    def _hidden(self):
        return visible_part(self)

    def assigned(self, s):
        return self.sigma.mapping[s]

    def image(self, x):
        return self.sigma.image(x)

    def image_on(self, side, x):
        """The moves x plays in one game: side 1 for A, side 3 for B."""
        m = self.sigma.mapping
        return frozenset(u for j, u in map(m.__getitem__, x) if j == side)

    def move_bit(self, move):
        """The bit of a move, tagged as in the target, in order_on(None, x):
        B's moves by their rank in B, A's above them."""
        j, u = move
        if j == 3:
            return 1 << self.B.es.rank[u]
        return 1 << (len(self.B.events) + self.A.es.rank[u])

    def order_on(self, side, x):
        """The strict order configuration x induces on the moves it plays in
        A (side 1, a move's bit set by its rank in A) or in both games (side
        None, bits as move_bit sets them), as edges (move bit, mask of the
        moves below it): () when x orders none of them, None when x plays
        one of them twice."""
        rank_a, rank_b = self.A.es.rank, self.B.es.rank
        shift = 0 if side == 1 else len(self.B.events)
        m, below = self.sigma.mapping, self.source.es.below
        bits, seen = {}, 0
        for s in x:
            j, u = m[s]
            if j == 1:
                b = 1 << (shift + rank_a[u])
            elif j == 3 and side is None:
                b = 1 << rank_b[u]
            else:
                continue
            if seen & b:
                return None
            seen |= b
            bits[s] = b
        edges = ((b, sum(bits.get(d, 0) for d in below(s)) - b)
                 for s, b in bits.items())
        return tuple((b, mask) for b, mask in edges if mask)

    def configurations(self, limits=DEFAULT_LIMITS):
        """Source configurations, smallest first, as a tuple: the root of
        what a strategy keeps, derived once with their extensions. A later
        cap below their number raises from the kept count."""
        if (configs := self._configs) is None:
            self._graph = self.source.es.configuration_graph(limits)
            configs = self._configs = tuple(self._graph)
        elif len(configs) > limits.max_configs:
            raise over_cap(limits.max_configs, "configurations")
        return configs

    def configuration_graph(self, limits=DEFAULT_LIMITS):
        """Each source configuration mapped to its extensions; kept."""
        self.configurations(limits)
        return self._graph

    def configurations_by_image(self, limits=DEFAULT_LIMITS):
        """Source configurations grouped by their image on B, each group
        smallest first, as pairs (x, x's order_on both games)."""
        self.configurations(limits)
        return self._by_image

    @cached_property
    def _by_image(self):
        return _group_by_image(self, self._configs)

    @cached_property
    def _stop(self):
        maximal = (x for x, ext in self._graph.items()
                   if no_plus_extension(self.source, ext))
        return _stopped_visible(self, maximal, self.name and f"st({self.name})")

    def ticking_runs(self, limits=DEFAULT_LIMITS):
        """A test's runs that reach success, in configuration order; see
        _runs."""
        self.configurations(limits)
        return self._ticking

    @cached_property
    def _ticking(self):
        return _runs(self, self._configs, True)

    def matches_b(self, game):
        """Whether game equals B; the last game found equal is kept."""
        if game is not self._matched and game != self.B:
            return False
        self._matched = game
        return True

    def __repr__(self):
        nm = self.name or "bare"
        return (f"<{nm}: {len(self.source.events)} source events ->"
                f" {len(self.A.events)}|{len(self.N.events)}|{len(self.B.events)}>")


def _group_by_image(bs, configs):
    groups = {}
    for x in configs:
        groups.setdefault(bs.image_on(3, x), []).append(
            (x, bs.order_on(None, x)))
    return {b: tuple(xs) for b, xs in groups.items()}


def _runs(bs, configs, ticking):
    """(image on A, y, y's order_on A) for each y of configs that plays the
    success move or, with ticking false, does not; in the order of configs."""
    return tuple((bs.image_on(1, y), y, bs.order_on(1, y)) for y in configs
                 if ((3, TICK) in map(bs.sigma.mapping.__getitem__, y)) == ticking)


def bare_strategy(source, game_a, middle, game_b, assign, name="",
                  limits=DEFAULT_LIMITS):
    """Build and fully validate; raises InvalidStructure on diagnostics."""
    bs = BareStrategy(source, game_a, middle, game_b, assign, name=name)
    diags = validate_bare_strategy(bs, limits)
    if diags:
        raise InvalidStructure(diags)
    return bs


def strategy(source, game_a, game_b, assign, name="", limits=DEFAULT_LIMITS):
    """A strategy from game A to game B: a bare strategy with an empty
    middle. Over games no neutral source event has an image of its
    polarity, so validation rejects one."""
    return bare_strategy(source, game_a, EMPTY, game_b, assign, name=name,
                         limits=limits)


def in_game_strategy(source, g, assign, name=""):
    """A strategy in a single game: from the empty game into g."""
    return strategy(source, EMPTY, g, {s: (3, v) for s, v in assign.items()},
                    name=name)


def validate_bare_strategy(bs, limits=DEFAULT_LIMITS):
    """All defining clauses; returns diagnostics.

    The map is checked on every source configuration, receptivity on every
    single Opponent extension of every image, innocence on every immediate
    causal pair.
    """
    diags = []
    for side, g in (("A", bs.A), ("B", bs.B)):
        if not g.is_game:
            diags.append(PolarityMismatch(
                f"{side} must be a game without neutral events",
                neutrals=g.events_with(NEUTRAL)))
    if set(bs.N.pol.values()) - {NEUTRAL}:
        diags.append(PolarityMismatch("middle must be all neutral"))

    undefined = sortedevents(bs.source.events - set(bs.sigma.mapping))
    if undefined:
        diags.append(MapNotTotal(f"assignment missing for {undefined}",
                                 events=undefined))
        return diags

    target = bs.target
    rep = validate_map(bs.sigma, limits, configs=bs.configurations(limits))
    diags.extend(rep.diagnostics)

    for s in bs.source.es.ordered:
        v = bs.sigma.mapping[s]
        if v not in target.events:
            continue  # already reported by validate_map
        if bs.source.pol[s] != target.pol[v]:
            diags.append(PolarityMismatch(
                f"{s!r} has polarity {bs.source.pol[s]} but its image {v!r}"
                f" has {target.pol[v]}", event=s, image=v))
    if diags:
        return diags

    # Receptivity, one Opponent move at a time (Castellan, Clairambault,
    # Rideau, Winskel, LMCS 2017): every Opponent extension a of an image
    # lifts to exactly one extension of x. Given -innocence, checked below,
    # this implies the clause for any Opponent extension: the minimal new
    # events of a lifting have their causes in x, so it is built one step at
    # a time, and uniquely.
    tgt = target.es
    opponent = sortedevents(target.events_with(MINUS))
    for x, ext in bs.configuration_graph(limits).items():
        sx = bs.image(x)
        lifts = [bs.sigma.mapping[s] for s in ext if bs.source.pol[s] == MINUS]
        for a in opponent:
            if a in sx:
                continue
            y = sx | {a}
            if not tgt.below(a) <= y or not tgt.is_consistent(y):
                continue
            count = lifts.count(a)
            if count != 1:
                diags.append(NotReceptive(
                    f"{count} liftings of {sortedevents(y)} over"
                    f" {sortedevents(x)}", x=x, y=y, count=count))

    timm = tgt.immediate_pairs()
    rank = bs.source.es.rank
    for s, s2 in sorted(bs.source.es.immediate_pairs(),
                        key=lambda p: (rank[p[0]], rank[p[1]])):
        img = (bs.sigma.mapping[s], bs.sigma.mapping[s2])
        if bs.source.pol[s] == PLUS and img not in timm:
            diags.append(PlusInnocenceViolation(
                f"{s!r} -> {s2!r} not mirrored at {img}", pair=(s, s2)))
        if bs.source.pol[s2] == MINUS and img not in timm:
            diags.append(MinusInnocenceViolation(
                f"{s!r} -> {s2!r} not mirrored at {img}", pair=(s, s2)))
    return diags


# ---- visible part and stopping data ---------------------------------------------


def visible_part(bs):
    """Hide the middle: the strategy on bs's non-neutral source events. A
    source configuration x of bs shows as x & visible.source.events."""
    keep = frozenset(e for e in bs.source.events
                     if bs.source.pol[e] != NEUTRAL)
    return BareStrategy(bs.source.restrict(keep), bs.A, EMPTY, bs.B,
                        {s: bs.sigma.mapping[s] for s in keep},
                        name=f"visible({bs.name})" if bs.name else "")


class StoppingStrategy:
    """A strategy together with its chosen stopping configurations.

    No axiom beyond membership in the configuration family is enforced;
    lint_stopping reports the informational checks.
    """

    def __init__(self, strat, stopping, name=""):
        self.name = name or strat.name
        self.strat = strat
        stopping = frozenset(frozenset(x) for x in stopping)
        bad = sorted((x for x in stopping
                      if not strat.source.es.is_configuration(x)), key=cfgkey)
        if bad:
            raise InvalidStructure([NotAConfiguration(
                f"stopping member {sortedevents(x)} is not a configuration",
                member=x) for x in bad])
        self.stopping = stopping

    @property
    def visible(self):
        """Cut to the strategy's visible part; self when it is a strategy."""
        return self if self.strat.is_strategy else self._hidden

    @cached_property
    def _hidden(self):
        return _stopped_visible(self.strat, self.stopping, self.name)

    def sorted_stopping(self):
        """The stopping configurations, smallest first, as a new tuple."""
        return tuple(sorted(self.stopping, key=self.strat.source.es.config_key))

    def stopping_by_image(self):
        """The stopping configurations grouped by their image on B, each
        group smallest first, as pairs (x, x's order_on both games)."""
        return self._by_image

    @cached_property
    def _by_image(self):
        return _group_by_image(self.strat, self.sorted_stopping())

    @cached_property
    def nonticking_runs(self):
        """A stopping test's runs that miss success; see _runs."""
        return _runs(self.strat, self.sorted_stopping(), False)

    def __repr__(self):
        nm = self.name or "stopping"
        return f"<{nm}: {len(self.stopping)} stopping configurations>"


def require_stopping(what, *given):
    """Raise BadArgument, naming what, unless each given is a stopping
    strategy."""
    for s in given:
        if not isinstance(s, StoppingStrategy):
            raise BadArgument(f"{what} expects a stopping strategy, not"
                              f" {type(s).__name__}", given=s)


def _stopped_visible(bs, stopping, name):
    """bs's visible part, stopped at the visible events of each member."""
    vis = bs.visible
    return StoppingStrategy(vis, (x & vis.source.events for x in stopping), name=name)


def stop_of(bs, limits=DEFAULT_LIMITS):
    """The visible part of bs stopped at its maximal configurations.

    A configuration counts as maximal when it has no Player or neutral
    extension. For a source without neutral events this is exactly the set of
    its maximal configurations in that sense, and the strategy is bs itself.
    The result is derived once per bare strategy, and shared by later calls;
    a later cap below the kept number of configurations raises.
    """
    if not isinstance(bs, BareStrategy):
        raise BadArgument(f"stop_of expects a bare strategy, not"
                          f" {type(bs).__name__}", given=bs)
    bs.configurations(limits)
    return bs._stop


def saturate_stopping(st, limits=DEFAULT_LIMITS):
    """The stopping data a neutral-free strategy induces on its own."""
    if not (isinstance(st, BareStrategy) and st.is_strategy):
        raise BadArgument("saturate_stopping expects a neutral-free strategy")
    return StoppingStrategy(st, stop_of(st, limits).stopping,
                            name=f"sat({st.name})" if st.name else "")


def copycat_strategy(A):
    """Copycat as a strategy from A to A; valid by construction, so unchecked."""
    cc = copycat(A)
    assign = {}
    for (i, a) in cc.events:
        assign[(i, a)] = (1, a) if i == 1 else (3, a)
    return BareStrategy(cc, A, EMPTY, A, assign,
                        name=A.name and f"cc({A.name})")


# ---- 2-cells -------------------------------------------------------------------


def strategy_of(s):
    """The strategy under s: s itself, or a stopping strategy's strategy."""
    return s.strat if isinstance(s, StoppingStrategy) else s


def same_signature(s1, s2):
    b1, b2 = strategy_of(s1), strategy_of(s2)
    return b1.A == b2.A and b1.N == b2.N and b1.B == b2.B


def validate_two_cell(f, src, dst, kind="plain"):
    """Check a map between strategy sources as a 2-cell of the given kind.

    kind: plain | stopping | plus_reflecting | rigid_epi. Returns diagnostics.
    """
    if kind not in ("plain", "stopping", "plus_reflecting", "rigid_epi"):
        raise BadArgument(f"unknown 2-cell kind {kind!r}", kind=kind)
    if kind == "stopping" and not (isinstance(src, StoppingStrategy)
                                   and isinstance(dst, StoppingStrategy)):
        raise BadArgument("a stopping 2-cell joins two stopping strategies")
    bsrc, bdst = strategy_of(src), strategy_of(dst)
    diags = []
    if not same_signature(src, dst):
        diags.append(GameMismatch("2-cell endpoints over different games"))
        return diags

    if isinstance(f, dict):
        f = ESMap(bsrc.source.es, bdst.source.es, f)
    undefined = sortedevents(bsrc.source.events - set(f.mapping))
    if undefined:
        diags.append(MapNotTotal(f"2-cell missing {undefined}", events=undefined))
        return diags

    # a dict is a map from bsrc's own source, whose configurations it keeps
    configs = bsrc.configurations() if f.src is bsrc.source.es else None
    rep = validate_map(f, configs=configs)
    diags.extend(rep.diagnostics)
    for s in sortedevents(bsrc.source.events):
        if bsrc.source.pol[s] != bdst.source.pol[f.mapping[s]]:
            diags.append(PolarityMismatch(
                f"2-cell changes polarity of {s!r}", event=s))
        if bsrc.sigma.mapping[s] != bdst.sigma.mapping[f.mapping[s]]:
            diags.append(TriangleBroken(
                f"assignments disagree at {s!r}: {bsrc.sigma.mapping[s]}"
                f" vs {bdst.sigma.mapping[f.mapping[s]]}", event=s))
    if diags:
        return diags

    if kind == "stopping":
        for x in src.sorted_stopping():
            if f.image(x) not in dst.stopping:
                diags.append(StoppingNotPreserved(
                    f"image of stopping {sortedevents(x)} is not stopping",
                    x=x, image=f.image(x)))
    elif kind == "plus_reflecting":
        # the one-step form, equivalent by induction on a minimal new event
        dst_graph = bdst.configuration_graph()
        for x, ext in bsrc.configuration_graph().items():
            fx = f.image(x)
            lifted = {f.mapping[s] for s in ext}
            for t in dst_graph[fx]:
                if t not in lifted and bdst.source.pol[t] != MINUS:
                    y = fx | {t}
                    diags.append(NotPlusReflecting(
                        f"no lifting of {sortedevents(y)} over {sortedevents(x)}",
                        x=x, y=y))
    elif kind == "rigid_epi":
        if not rep.rigid:
            diags.append(NotRigid("2-cell does not preserve causal order"))
        missing = sortedevents(bdst.source.events - set(f.mapping.values()))
        if missing:
            diags.append(NotEpi(f"events {missing} not in the image",
                                events=missing))
    return diags


def two_cell_visible(f, src, dst):
    """The induced map between visible sources: restrict to non-neutral events."""
    vsrc, vdst = strategy_of(src).visible, strategy_of(dst).visible
    if isinstance(f, dict):
        mapping = f
    else:
        mapping = f.mapping
    return ESMap(vsrc.source.es, vdst.source.es,
                 {s: mapping[s] for s in vsrc.source.events})
