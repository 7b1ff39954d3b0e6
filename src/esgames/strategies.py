"""Bare strategies, their validation, visible parts, stopping data, and 2-cells.

A bare strategy from game A to game B is a total polarity-preserving map
sigma: S -> dual(A) || N || B whose source may contain neutral events and whose
middle N is all neutral. It must be receptive (Opponent extensions of an image
lift uniquely) and innocent in both directions. A strategy is the special case
with no neutral events anywhere; every strategy is kept in the same three
component typing with an empty middle, so target tags are uniformly
(1, a) for the dual side, (2, n) for the middle and (3, b) for the B side.
"""

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
    copycat,
    dual,
    is_plus_maximal,
    parallel,
    plus_subset,
)
from .limits import DEFAULT_LIMITS
from .structures import ESMap, cfgkey, sortedevents, validate_map


class BareStrategy:
    """Holds source, games, middle and the assignment into dual(A) || N || B."""

    def __init__(self, source, game_a, middle, game_b, assign, name=""):
        self.name = name
        self.source = source
        self.A = game_a
        self.N = middle
        self.B = game_b
        self.target = parallel(dual(game_a), middle, game_b,
                               name=f"target({name})" if name else "")
        self.sigma = ESMap(source.es, self.target.es, assign)
        self._configs = None  # configurations()
        self._stop_of = None  # stop_of(self)
        self._by_image = None  # configurations_by_image()
        self._may_runs = None  # testing's table of ticking runs
        self._matched_game = None  # testing: the last game A was checked equal to

    @property
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
        return visible_part(self)[0]

    def assigned(self, s):
        return self.sigma.mapping[s]

    def image(self, x):
        return self.sigma.image(x)

    def image_on(self, side, x):
        """The moves x plays in one game: side 1 for A, side 3 for B."""
        m = self.sigma.mapping
        return frozenset(u for j, u in map(m.__getitem__, x) if j == side)

    def configurations(self, limits=DEFAULT_LIMITS):
        """Source configurations, smallest first, as a tuple; derived once
        per strategy, and again under a cap below their number, to raise."""
        if self._configs is None or len(self._configs) > limits.max_configs:
            self._configs = tuple(self.source.configurations(limits))
        return self._configs

    def configurations_by_image(self, limits=DEFAULT_LIMITS):
        """Source configurations grouped by their image on B, each group
        smallest first; derived once per strategy."""
        configs = self.configurations(limits)
        if self._by_image is None:
            self._by_image = _group_by_image(self, configs)
        return self._by_image

    def __repr__(self):
        nm = self.name or "bare"
        return (f"<{nm}: {len(self.source.events)} source events ->"
                f" {len(self.A.events)}|{len(self.N.events)}|{len(self.B.events)}>")


def _group_by_image(bs, configs):
    groups = {}
    for x in configs:
        groups.setdefault(bs.image_on(3, x), []).append(x)
    return {b: tuple(xs) for b, xs in groups.items()}


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


def in_game_strategy(source, g, assign, name="", limits=DEFAULT_LIMITS):
    """A strategy in a single game: from the empty game into g."""
    return strategy(source, EMPTY, g, {s: (3, v) for s, v in assign.items()},
                    name=name, limits=limits)


def validate_bare_strategy(bs, limits=DEFAULT_LIMITS):
    """All defining clauses; returns diagnostics.

    The map is checked on every source configuration, receptivity on every
    single Opponent extension of every image, innocence on every immediate
    causal pair.
    """
    diags = []
    if set(bs.N.pol.values()) - {NEUTRAL}:
        diags.append(PolarityMismatch("middle must be all neutral"))

    undefined = sortedevents(bs.source.events - set(bs.sigma.mapping))
    if undefined:
        diags.append(MapNotTotal(f"assignment missing for {undefined}",
                                 events=undefined))
        return diags

    configs = bs.configurations(limits)
    rep = validate_map(bs.sigma, limits, configs=configs)
    diags.extend(rep.diagnostics)

    for s in bs.source.es.ordered:
        v = bs.sigma.mapping[s]
        if v not in bs.target.events:
            continue  # already reported by validate_map
        if bs.source.pol[s] != bs.target.pol[v]:
            diags.append(PolarityMismatch(
                f"{s!r} has polarity {bs.source.pol[s]} but its image {v!r}"
                f" has {bs.target.pol[v]}", event=s, image=v))
    if diags:
        return diags

    # Receptivity, one Opponent move at a time (Castellan, Clairambault,
    # Rideau, Winskel, LMCS 2017): every Opponent extension a of an image
    # lifts to exactly one extension of x. Given -innocence, checked below,
    # this implies the clause for any Opponent extension: the minimal new
    # events of a lifting have their causes in x, so it is built one step at
    # a time, and uniquely.
    src, tgt = bs.source.es, bs.target.es
    opponent = sortedevents(bs.target.events_with(MINUS))
    src_opponent = bs.source.events_with(MINUS)
    for x in configs:
        sx = bs.image(x)
        lifts = {}
        for s in src_opponent - x:
            xs = x | {s}
            if src.below(s) <= xs and src.is_consistent(xs):
                a = bs.sigma.mapping[s]
                lifts[a] = lifts.get(a, 0) + 1
        for a in opponent:
            if a in sx:
                continue
            y = sx | {a}
            if not tgt.below(a) <= y or not tgt.is_consistent(y):
                continue
            count = lifts.get(a, 0)
            if count != 1:
                diags.append(NotReceptive(
                    f"{count} liftings of {sortedevents(y)} over"
                    f" {sortedevents(x)}", x=x, y=y, count=count))

    timm = bs.target.es.immediate_pairs()
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
    """Hide the middle: restrict the source to its non-neutral events.

    Returns (strategy, p, down) where p is the partial projection map from the
    bare source onto the visible source and down sends a source configuration
    to its visible image.
    """
    keep = frozenset(e for e in bs.source.events
                     if bs.source.pol[e] != NEUTRAL)
    vis_source = bs.source.restrict(keep)
    mapping = {s: bs.sigma.mapping[s] for s in keep}
    vis = BareStrategy(vis_source, bs.A, EMPTY, bs.B, mapping,
                       name=f"visible({bs.name})" if bs.name else "")
    p = ESMap(bs.source.es, vis_source.es, {e: e for e in keep})

    def down(x):
        return frozenset(x) & keep

    return vis, p, down


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
        self._sorted = None
        self._by_image = None
        self._must_runs = None  # testing's table of non-ticking runs

    def sorted_stopping(self):
        """The stopping configurations, smallest first, as a tuple."""
        if self._sorted is None:
            self._sorted = tuple(sorted(
                self.stopping, key=self.strat.source.es.config_key))
        return self._sorted

    def stopping_by_image(self):
        """The stopping configurations grouped by their image on B, each
        group smallest first."""
        if self._by_image is None:
            self._by_image = _group_by_image(self.strat, self.sorted_stopping())
        return self._by_image

    def __repr__(self):
        nm = self.name or "stopping"
        return f"<{nm}: {len(self.stopping)} stopping configurations>"


def stop_of(bs, limits=DEFAULT_LIMITS):
    """Visible part plus the visible images of the maximal bare configurations.

    A configuration counts as maximal when it has no Player or neutral
    extension. For a source without neutral events this is exactly the set of
    its maximal configurations in that sense, and the strategy is bs itself.
    The result is derived once per bare strategy, and shared by later calls.
    """
    configs = bs.configurations(limits)
    if bs._stop_of is None:
        vis = bs.visible
        stopping = {x & vis.source.events for x in configs
                    if is_plus_maximal(bs.source, x)}
        bs._stop_of = StoppingStrategy(vis, stopping,
                                       name=f"st({bs.name})" if bs.name else "")
    return bs._stop_of


def saturate_stopping(st, limits=DEFAULT_LIMITS):
    """The stopping data a neutral-free strategy induces on its own."""
    if not st.is_strategy:
        raise BadArgument("saturate_stopping expects a neutral-free strategy")
    return StoppingStrategy(st, stop_of(st, limits).stopping,
                            name=f"sat({st.name})" if st.name else "")


def copycat_strategy(A, name=""):
    """Copycat as a strategy from A to A; valid by construction, so unchecked."""
    cc, _ = copycat(A)
    assign = {}
    for (i, a) in cc.events:
        assign[(i, a)] = (1, a) if i == 1 else (3, a)
    return BareStrategy(cc, A, EMPTY, A, assign,
                        name=name or (A.name and f"cc({A.name})"))


# ---- 2-cells -------------------------------------------------------------------


def strategy_of(s):
    """The strategy under s: s itself, or a stopping strategy's strategy."""
    return s.strat if isinstance(s, StoppingStrategy) else s


def same_signature(s1, s2):
    b1, b2 = strategy_of(s1), strategy_of(s2)
    return b1.A == b2.A and b1.N == b2.N and b1.B == b2.B


def validate_two_cell(f, src, dst, kind="plain", limits=DEFAULT_LIMITS):
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
    configs = bsrc.configurations(limits) if f.src is bsrc.source.es else None
    rep = validate_map(f, limits, configs=configs)
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
        src_configs = bsrc.configurations(limits)
        dst_configs = bdst.configurations(limits)
        for x in src_configs:
            fx = f.image(x)
            for y in dst_configs:
                if not plus_subset(bdst.source, fx, y):
                    continue
                if not any(x <= x2 and f.image(x2) == y for x2 in src_configs):
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
