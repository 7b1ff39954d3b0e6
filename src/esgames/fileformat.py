"""The .esg text format: parse, print, and DOT export.

Grammar (line-oriented, ; separated, # comments):

    es NAME { event ID (+|-|0); cause ID < ID; conflict ID ~ ID;
              consistent { ID ... }; }
    game NAME { ... }                        # es body, no 0 polarity
    map NAME : SRC -> DST { ID -> ID; ID -> _; }
    strategy NAME : GAME { ...; assign ID -> GAME_ID; }
    bare NAME : A | N | B { ...; assign ID -> a.ID | n.ID | b.ID; }
    test NAME : GAME { ...; assign ID -> g.ID | n.ID | tick; }
    stopping NAME { strategy REF; stop { ID ... }; }

`consistent` blocks, when present, replace conflict expansion. A bare header
may use `_` for an empty middle. Test middles are inferred from the n.*
assignment targets, one neutral event each.
"""

import re

from .errors import EsgError, ParseError
from .games import EMPTY, MINUS, NEUTRAL, PLUS, Polarised, game
from .limits import DEFAULT_LIMITS
from .strategies import StoppingStrategy, bare_strategy, strategy_of
from .structures import (ESMap, ekey, event_structure, maximal_consistent_sets,
                         sortedevents, validate_map)
from .testing import TICK, success_game

_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KINDS = ("es", "game", "map", "strategy", "bare", "test", "stopping")


# ---- tokens ----------------------------------------------------------------------


def tokenize(text):
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(("sym", "->", line, col))
            i += 2
            col += 2
        elif c in "{};:|~<.+-_":
            toks.append(("sym", c, line, col))
            i += 1
            col += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], line, col))
            col += j - i
            i = j
        elif m := _ID.match(text, i):  # ASCII: another letter is unexpected
            toks.append(("id", m.group(), line, col))
            col += len(m.group())
            i = m.end()
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg):
        _, v, line, col = self.peek()
        raise ParseError(f"{msg}, got {v!r}" if v else msg, line, col)

    def expect(self, kind, value=None):
        k, v, line, col = self.peek()
        if k != kind or (value is not None and v != value):
            self.fail(f"expected {value or kind}")
        return self.next()

    def ident(self, what="name"):
        k, v, _, _ = self.peek()
        if k != "id":
            self.fail(f"expected {what}")
        return self.next()[1]

    def at_sym(self, value):
        k, v, _, _ = self.peek()
        return k == "sym" and v == value

    def eat_sym(self, value):
        if self.at_sym(value):
            self.next()
            return True
        return False


# ---- definitions -----------------------------------------------------------------


class Definition:
    def __init__(self, kind, name, obj, ref=None):
        self.kind = kind  # one of _KINDS
        self.name = name
        self.obj = obj
        self.ref = ref  # stopping: the wrapped strategy's name

    def __repr__(self):
        return f"<{self.kind} {self.name}>"


class Workspace:
    """Named, validated definitions in file order."""

    def __init__(self):
        self.defs = {}

    def add(self, d, line=None, col=None):
        if d.name in self.defs:
            raise ParseError(f"duplicate name {d.name!r}", line, col)
        self.defs[d.name] = d

    def get(self, name, kinds=None, line=None, col=None):
        d = self.defs.get(name)
        if d is None:
            raise ParseError(f"unknown name {name!r}", line, col)
        if kinds and d.kind not in kinds:
            raise ParseError(
                f"{name!r} is a {d.kind}, expected {'/'.join(kinds)}",
                line, col)
        return d

    def __iter__(self):
        return iter(self.defs.values())

    def __len__(self):
        return len(self.defs)


def _polarity(p):
    k, v, line, col = p.peek()
    if k == "sym" and v in "+-":
        p.next()
        return PLUS if v == "+" else MINUS
    if k == "num" and v == "0":
        p.next()
        return NEUTRAL
    p.fail("expected polarity + - or 0")


def _es_items(p):
    """Body items by name: events, causes, conflicts and consistent blocks,
    then the assign, stop and strategy items of strategies and stoppings."""
    events, pol, causes, conflicts, consistent = [], {}, [], [], []
    assigns = {}
    stops = []
    ref = None
    while not p.at_sym("}"):
        _, v, line, col = p.peek()
        word = p.ident("item")
        if word == "event":
            e = p.ident("event id")
            if e in pol:
                raise ParseError(f"event {e!r} declared twice", line, col)
            pol[e] = _polarity(p)
            events.append(e)
            p.expect("sym", ";")
        elif word == "cause":
            a = p.ident("event id")
            p.expect("sym", "<")
            b = p.ident("event id")
            causes.append((a, b))
            p.expect("sym", ";")
        elif word == "conflict":
            a = p.ident("event id")
            p.expect("sym", "~")
            b = p.ident("event id")
            conflicts.append((a, b))
            p.expect("sym", ";")
        elif word == "consistent":
            consistent.append(_event_block(p))
        elif word == "assign":
            s = p.ident("source event")
            if s in assigns:
                raise ParseError(f"event {s!r} assigned twice", line, col)
            p.expect("sym", "->")
            assigns[s] = _assign_target(p)
            p.expect("sym", ";")
        elif word == "stop":
            stops.append(_event_block(p))
        elif word == "strategy":
            if ref is not None:
                raise ParseError("strategy item given twice", line, col)
            ref = (p.ident("strategy name"), line, col)
            p.expect("sym", ";")
        else:
            raise ParseError(f"unknown item {word!r}", line, col)
    return dict(events=events, pol=pol, causes=causes, conflicts=conflicts,
                consistent=consistent, assigns=assigns, stops=stops, ref=ref)


def _event_block(p):
    p.expect("sym", "{")
    block = []
    while not p.at_sym("}"):
        block.append(p.ident("event id"))
    p.expect("sym", "}")
    p.eat_sym(";")
    return frozenset(block)


def _assign_target(p):
    k, v, line, col = p.peek()
    name = p.ident("target")
    if p.eat_sym("."):
        member = p.ident("target event")
        return (name, member, line, col)
    return (None, name, line, col)


def _build_es(name, items, line, col):
    es = _wrap(name, line, col, event_structure, items["events"],
               items["causes"], items["conflicts"],
               items["consistent"] or None, name=name)
    return Polarised(es, items["pol"], name=name)


def _wrap(defname, line, col, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EsgError as err:
        raise ParseError(f"invalid {defname!r}: {err}", line, col) from err


# The assign prefixes of each strategy kind, in the order messages list them,
# and the component of dual(A) || N || B each prefix targets.
_PREFIXES = {
    "strategy": {None: 3},
    "bare": {"a": 1, "n": 2, "b": 3},
    "test": {"g": 1, "n": 2, None: 3},
}


def _resolve_assigns(kind, assigns):
    prefixes = _PREFIXES[kind]
    out = {}
    for s, (prefix, member, aline, acol) in assigns.items():
        if prefix not in prefixes:
            allowed = "/".join(k or "plain" for k in prefixes)
            raise ParseError(
                f"assign target {prefix + '.' if prefix else ''}{member}"
                f" not allowed here (use {allowed})", aline, acol)
        if kind == "test" and prefix is None and member != TICK:
            raise ParseError(f"bare target {member!r}; use g. n. or tick",
                             aline, acol)
        out[s] = (prefixes[prefix], member)
    return out


def parse(text, limits=DEFAULT_LIMITS, ws=None):
    """Parse .esg text into a validated Workspace.

    Passing ws extends an existing workspace, so later files may refer to
    earlier definitions.
    """
    p = _Parser(text)
    ws = Workspace() if ws is None else ws
    while p.peek()[0] != "eof":
        k, v, line, col = p.peek()
        kind = p.ident("definition kind")
        if kind not in _KINDS:
            raise ParseError(f"unknown definition kind {kind!r}", line, col)
        name = p.ident("name")

        if kind in ("es", "game"):
            p.expect("sym", "{")
            items = _es_items(p)
            p.expect("sym", "}")
            if items["assigns"] or items["stops"] or items["ref"]:
                raise ParseError(
                    "assign/stop do not belong in an es or game body",
                    line, col)
            pg = _build_es(name, items, line, col)
            if kind == "game":
                _wrap(name, line, col, game, pg.es, pg.pol, name=name)
            ws.add(Definition(kind, name, pg), line, col)

        elif kind == "map":
            p.expect("sym", ":")
            src = ws.get(p.ident("source"), ("es", "game"), line, col)
            p.expect("sym", "->")
            dst = ws.get(p.ident("target"), ("es", "game"), line, col)
            p.expect("sym", "{")
            mapping = {}
            while not p.at_sym("}"):
                s = p.ident("event id")
                p.expect("sym", "->")
                if not p.eat_sym("_"):
                    mapping[s] = p.ident("event id")
                p.expect("sym", ";")
            p.expect("sym", "}")
            m = ESMap(src.obj.es, dst.obj.es, mapping)
            rep = _wrap(name, line, col, validate_map, m, limits)
            if rep.diagnostics:
                raise ParseError(
                    f"invalid {name!r}: " + "; ".join(
                        d.message for d in rep.diagnostics), line, col)
            ws.add(Definition(kind, name, m), line, col)

        elif kind == "stopping":
            p.expect("sym", "{")
            items = _es_items(p)
            p.expect("sym", "}")
            if items["ref"] is None:
                raise ParseError(
                    f"stopping {name!r} needs a `strategy REF;` item",
                    line, col)
            refname, rline, rcol = items["ref"]
            inner = ws.get(refname, ("strategy", "bare", "test"), rline, rcol)
            if any(items[k] for k in ("events", "causes", "conflicts",
                                      "consistent", "assigns")):
                raise ParseError(
                    "a stopping body holds only strategy and stop items",
                    line, col)
            st = _wrap(name, line, col, StoppingStrategy, inner.obj,
                       items["stops"], name=name)
            ws.add(Definition(kind, name, st, ref=refname), line, col)

        else:  # strategy, bare and test differ only in their headers
            p.expect("sym", ":")
            if kind == "bare":
                ga = ws.get(p.ident("left game"), ("game",), line, col).obj
                p.expect("sym", "|")
                if p.eat_sym("_"):
                    middle = EMPTY
                else:
                    middle = ws.get(p.ident("middle"), ("es",), line, col).obj
                    if any(q != NEUTRAL for q in middle.pol.values()):
                        raise ParseError(
                            f"middle of {name!r} must be all neutral",
                            line, col)
                p.expect("sym", "|")
                gb = ws.get(p.ident("right game"), ("game",), line, col).obj
            else:
                g = ws.get(p.ident("game"), ("game",), line, col).obj
                ga, middle, gb = ((EMPTY, EMPTY, g) if kind == "strategy"
                                  else (g, None, success_game()))
            p.expect("sym", "{")
            items = _es_items(p)
            p.expect("sym", "}")
            if items["stops"] or items["ref"]:
                raise ParseError(
                    "stop/strategy items belong in stopping definitions",
                    line, col)
            src = _build_es(name, items, line, col)
            assigns = _resolve_assigns(kind, items["assigns"])
            if middle is None:  # a test's middle: one neutral event per n.*
                mids = sortedevents({u[1] for u in assigns.values()
                                     if u[0] == 2})
                middle = Polarised(event_structure(mids),
                                   {m: NEUTRAL for m in mids})
            # bare_strategy also checks the strategy kind: with an empty
            # middle no neutral source event has an image of its polarity
            st = _wrap(name, line, col, bare_strategy, src, ga, middle, gb,
                       assigns, name=name, limits=limits)
            ws.add(Definition(kind, name, st), line, col)

    return ws


def parse_file(path, limits=DEFAULT_LIMITS, ws=None):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), limits, ws)


# ---- canonical printer -----------------------------------------------------------


def _flat_ident(e):
    flat = []

    def walk(v):
        if isinstance(v, (tuple, frozenset)):
            for u in (sorted(v, key=ekey) if isinstance(v, frozenset) else v):
                walk(u)
        else:
            flat.append(re.sub(r"[^A-Za-z0-9]+", "", str(v)) or "x")
    walk(e)
    base = "_".join(flat)
    return base if base[:1].isalpha() else "e_" + base


def _clean(e):
    return isinstance(e, str) and _ID.fullmatch(e)


def _ident(e):
    """e itself when it is an identifier, else a flattened spelling of it."""
    return e if _clean(e) else _flat_ident(e)


def _naming(events, base=_ident):
    """Printable, collision-free identifiers for arbitrary event values: each
    event's base name, with _2, _3, ... added on a clash."""
    taken = set()
    out = {}
    for e in sortedevents(events):
        stem = base(e)
        cand, k = stem, 1
        while cand in taken:
            k += 1
            cand = f"{stem}_{k}"
        taken.add(cand)
        out[e] = cand
    return out


def _binary_family(es):
    """The minimal conflict pairs when binary conflict regenerates the
    consistency family exactly, else None; hereditary closure of the minimal
    pairs recovers every inconsistent pair."""
    pairs = {frozenset(p) for p in es.inconsistent_pairs()}
    if set(maximal_consistent_sets(es.ordered, pairs)) != set(es.maxcons):
        return None
    return es.minimal_conflicts()


def _print_body(out, pg, names, indent="  "):
    es = pg.es
    for e in sortedevents(es.events):
        sym = {PLUS: "+", MINUS: "-", NEUTRAL: "0"}[pg.pol[e]]
        out.append(f"{indent}event {names[e]} {sym};")
    for (c, e) in sorted(es.immediate_pairs(),
                         key=lambda p: (ekey(p[0]), ekey(p[1]))):
        out.append(f"{indent}cause {names[c]} < {names[e]};")
    pairs = _binary_family(es)
    if pairs is not None:
        for (a, b) in pairs:
            out.append(f"{indent}conflict {names[a]} ~ {names[b]};")
    else:
        for m in es.maxcons:
            inner = " ".join(names[e] for e in sortedevents(m))
            out.append(f"{indent}consistent {{ {inner} }};")


def print_workspace(ws):
    """Canonical text for a workspace; reparses to the same definitions."""
    out = []
    games = {}  # def name -> event naming, for assign targets

    def names_of(defname):
        if defname not in games:
            games[defname] = _naming(ws.defs[defname].obj.es.events)
        return games[defname]

    for d in ws:
        if out:
            out.append("")
        if d.kind in ("es", "game"):
            names = names_of(d.name)
            out.append(f"{d.kind} {d.name} {{")
            _print_body(out, d.obj, names)
            out.append("}")
        elif d.kind == "map":
            srcn = _ws_name_for(ws, d.obj.src)
            dstn = _ws_name_for(ws, d.obj.dst)
            out.append(f"map {d.name} : {srcn} -> {dstn} {{")
            for e in sortedevents(d.obj.src.events):
                tgt = (names_of(dstn)[d.obj.mapping[e]]
                       if e in d.obj.mapping else "_")
                out.append(f"  {names_of(srcn)[e]} -> {tgt};")
            out.append("}")
        elif d.kind in ("strategy", "bare", "test"):
            _print_strategy(out, ws, d)
        elif d.kind == "stopping":
            inner = ws.defs[d.ref]
            names = _naming(inner.obj.source.events)
            out.append(f"stopping {d.name} {{")
            out.append(f"  strategy {d.ref};")
            for y in d.obj.sorted_stopping():
                body = " ".join(names[e] for e in sortedevents(y))
                out.append(f"  stop {{ {body} }};" if body
                           else "  stop { };")
            out.append("}")
    return "\n".join(out) + "\n"


def _ws_name_for(ws, pg):
    """Workspace name of a Polarised structure (or a bare EventStructure)."""
    if isinstance(pg, Polarised):
        for d in ws:
            if d.kind in ("es", "game") and d.obj is pg:
                return d.name
        for d in ws:
            if d.kind in ("es", "game") and d.obj == pg:
                return d.name
    else:
        for d in ws:
            if d.kind in ("es", "game") and d.obj.es == pg:
                return d.name
    raise ParseError("definition refers to a structure not in the workspace")


def _print_strategy(out, ws, d):
    st = d.obj
    if d.kind == "strategy":
        header = _ws_name_for(ws, st.B)
    elif d.kind == "test":
        header = _ws_name_for(ws, st.A)
    else:
        aname = _ws_name_for(ws, st.A)
        bname = _ws_name_for(ws, st.B)
        nname = _ws_name_for(ws, st.N) if st.N.events else "_"
        header = f"{aname} | {nname} | {bname}"
    out.append(f"{d.kind} {d.name} : {header} {{")
    names = _naming(st.source.events)
    targets = {i: _naming(pg.events)
               for i, pg in ((1, st.A), (2, st.N), (3, st.B))}
    _print_body(out, st.source, names)
    for e in sortedevents(st.source.events):
        comp, v = st.assigned(e)
        out.append(f"  assign {names[e]} -> "
                   f"{_target(d.kind, comp, targets[comp][v])};")
    out.append("}")


def _target(kind, comp, name):
    """Assign target text: the prefix `kind` writes for component `comp`."""
    prefix = next(k for k, c in _PREFIXES[kind].items() if c == comp)
    return f"{prefix}.{name}" if prefix else name


# ---- DOT export ------------------------------------------------------------------


_SHAPE = {PLUS: 'shape=box, style=filled, fillcolor="#bbbbbb"',
          MINUS: "shape=box",
          NEUTRAL: "shape=ellipse"}


def shape_kind(st):
    """The definition kind a bare strategy prints as."""
    if st.B == success_game() and st.A.events:
        return "test"
    if st.A.events or st.N.events:
        return "bare"
    return "strategy"


def export_dot(defn):
    """DOT text for an es, game, or strategy definition."""
    if defn.kind in ("es", "game"):
        pg = defn.obj
        label = {e: None for e in pg.es.events}
    elif defn.kind in ("strategy", "bare", "test", "stopping"):
        st = strategy_of(defn.obj)
        kind = defn.kind if defn.kind != "stopping" else shape_kind(st)
        pg = st.source
        label = {e: _target(kind, comp, _ident(v))
                 for e, (comp, v) in st.sigma.mapping.items()}
    else:
        raise ParseError(f"cannot render a {defn.kind} as DOT")
    names = _naming(pg.es.events)
    out = [f'digraph "{defn.name}" {{']
    for e in sortedevents(pg.es.events):
        text = names[e] if label[e] is None else f"{names[e]}\\n{label[e]}"
        out.append(f'  "{names[e]}" [label="{text}", {_SHAPE[pg.pol[e]]}];')
    for (c, e) in sorted(pg.es.immediate_pairs(),
                         key=lambda p: (ekey(p[0]), ekey(p[1]))):
        out.append(f'  "{names[c]}" -> "{names[e]}";')
    for (a, b) in pg.es.minimal_conflicts():
        out.append(f'  "{names[a]}" -> "{names[b]}" [style=dashed, dir=none];')
    out.append("}")
    return "\n".join(out) + "\n"
