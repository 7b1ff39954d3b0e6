"""Command line driver over the .esg format.

Exit codes: 0 = yes/pass, 1 = no/fail (witness printed), 2 = usage, parse,
or validation error.

The interaction, testing and rigid layers are imported by the commands that
run them, so that a command which needs none of them does not load them.
"""

import argparse
import sys

from .errors import EsgError, ParseError
from .fileformat import (Definition, Workspace, _clean, _naming, _ws_name_for,
                         export_dot, parse_file, print_workspace, shape_kind)
from .games import NEUTRAL, Polarised, dual, parallel, payload
from .limits import EngineLimits
from .strategies import (BareStrategy, StoppingStrategy, copycat_strategy,
                         saturate_stopping, stop_of, strategy_of)
from .structures import EventStructure, sortedevents

STRATEGY_KINDS = ("strategy", "bare", "test")
SUBJECT_KINDS = STRATEGY_KINDS + ("stopping",)


def _limits(args):
    caps = {"max_configs": args.max_configs, "max_primes": args.max_primes}
    return EngineLimits(**{k: v for k, v in caps.items() if v is not None})


def _cap(text):
    """A size cap from the command line: an integer of at least 0."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 0, got {text!r}")
    return n


def _load(args, limits):
    ws = Workspace()
    for path in args.file or ():
        try:
            parse_file(path, limits, ws)
        except (ParseError, UnicodeDecodeError) as err:
            raise ParseError(f"{path}: {err}") from err
    return ws


def _fmt_config(x, names):
    return "{ " + " ".join(names[e] for e in sortedevents(x)) + " }" \
        if x else "{ }"


def _fmt_trace(tr):
    out = []
    for (comp, e) in tr:
        prefix = {1: "a.", 2: "n.", 3: ""}[comp]
        out.append(f"{prefix}{e}")
    return " ".join(out) if out else "(empty)"


def _relabel(st):
    """Readable source names for computed results: synthetic events (prime
    tuples and the like) become e1, e2, ...; clean names stay."""
    evs = sortedevents(st.source.events)
    ren = {e: e for e in evs}
    if not all(_clean(e) for e in evs):
        taken = {e for e in evs if _clean(e)}
        k = 0
        for e in evs:
            if not _clean(e):
                k += 1
                while f"e{k}" in taken:
                    k += 1
                taken.add(f"e{k}")
                ren[e] = f"e{k}"
        st = BareStrategy(_renamed(st.source, ren), st.A, st.N, st.B,
                          {ren[e]: st.assigned(e) for e in evs},
                          name=st.name)
    return st, ren


def _renamed(pg, ren):
    """pg with each event e renamed to ren[e], ren being one-to-one."""
    evs = pg.es.ordered
    es = EventStructure(
        sortedevents(ren[e] for e in evs),
        {ren[e]: frozenset(map(ren.__getitem__, pg.es.below(e))) for e in evs},
        [frozenset(map(ren.__getitem__, m)) for m in pg.es.maxcons])
    return Polarised(es, {ren[e]: pg.pol[e] for e in evs})


class _Out:
    """Collects result definitions and the structures they depend on."""

    def __init__(self, ws):
        self.src = ws
        self.ws = Workspace()

    def _unique(self, base):
        name, k = base, 1
        while name in self.ws.defs:
            k += 1
            name = f"{base}_{k}"
        return name

    def structure(self, pg, fallback):
        for d in self.ws:
            if d.kind in ("es", "game") and d.obj == pg:
                return d.name
        try:
            base = _ws_name_for(self.src, pg)
        except ParseError:
            base = fallback
        kind = "es" if NEUTRAL in pg.pol.values() else "game"
        name = self._unique(base)
        self.ws.add(Definition(kind, name, pg))
        return name

    def strategy_def(self, st, base, kind=None):
        st, _ = _relabel(st)
        kind = kind or shape_kind(st)
        if kind == "strategy":
            self.structure(st.B, f"{base}_game")
        elif kind == "test":
            self.structure(st.A, f"{base}_game")
        else:
            self.structure(st.A, f"{base}_A")
            if st.N.events:
                self.structure(st.N, f"{base}_mid")
            self.structure(st.B, f"{base}_B")
        name = self._unique(base)
        self.ws.add(Definition(kind, name, st))
        return name

    def stopping_def(self, s, base, strat_base=None):
        strat, ren = _relabel(s.strat)
        ref = self.strategy_def(strat, strat_base or f"{base}_strat")
        s = StoppingStrategy(
            strat, {frozenset(ren[e] for e in y) for y in s.stopping},
            name=s.name)
        name = self._unique(base)
        self.ws.add(Definition("stopping", name, s, ref=ref))
        return name

    def emit(self, args):
        text = print_workspace(self.ws)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out} ({len(self.ws)} definitions)")
        else:
            print(text, end="")
        return 0


# ---- commands --------------------------------------------------------------------


def _cmd_check(ws, args, limits):
    names = args.names or [d.name for d in ws]
    for name in names:
        d = ws.get(name)
        obj = d.obj
        if d.kind in ("es", "game"):
            n = len(obj.es.events)
        elif d.kind == "map":
            n = len(obj.mapping)
        elif d.kind == "stopping":
            n = len(obj.stopping)
        else:
            n = len(obj.source.events)
        print(f"ok {name}: {d.kind}, {n} "
              + ("entries" if d.kind == "map" else
                 "stopping configurations" if d.kind == "stopping"
                 else "events"))
    return 0


def _cmd_configs(ws, args, limits):
    d = ws.get(args.name)
    if d.kind == "stopping":
        names = _naming(d.obj.strat.source.events)
        for y in d.obj.sorted_stopping():
            print(_fmt_config(y, names))
        return 0
    if d.kind == "map":
        raise ParseError("configs expects a structure or strategy name")
    pg = d.obj if d.kind in ("es", "game") else d.obj.source
    names = _naming(pg.events)
    for x in d.obj.configurations(limits):
        print(_fmt_config(x, names))
    return 0


def _cmd_relations(ws, args, limits):
    d = ws.get(args.name, ("es", "game"))
    es = d.obj.es
    names = _naming(es.events)
    for (a, b) in sorted(es.immediate_pairs(),
                         key=lambda p: (names[p[0]], names[p[1]])):
        print(f"cause {names[a]} < {names[b]}")
    for (a, b) in es.minimal_conflicts():
        print(f"conflict {names[a]} ~ {names[b]}")
    for (a, b) in sorted(es.concurrent_pairs(),
                         key=lambda p: (names[p[0]], names[p[1]])):
        print(f"concurrent {names[a]} | {names[b]}")
    return 0


def _cmd_copycat(ws, args, limits):
    d = ws.get(args.game, ("game",))
    cc = copycat_strategy(d.obj)
    out = _Out(ws)
    out.strategy_def(cc, f"cc_{d.name}", kind="bare")
    return out.emit(args)


def _cmd_dual(ws, args, limits):
    d = ws.get(args.name, ("es", "game"))
    out = _Out(ws)
    out.structure(dual(d.obj), f"{d.name}_dual")
    return out.emit(args)


def _cmd_par(ws, args, limits):
    parts = [ws.get(n, ("es", "game")) for n in args.names]
    pg = parallel(*[d.obj for d in parts])
    # events are (slot, event) pairs: name each after the event it copies
    pg = _renamed(pg, _naming(pg.events, payload))
    out = _Out(ws)
    out.structure(pg, "_par_".join(d.name for d in parts))
    return out.emit(args)


def _cmd_compose(ws, args, limits):
    from .interaction import compose, compose_stopping
    return _run_pairing(ws, args, limits, "after", compose, compose_stopping,
                        None)


def _cmd_interact(ws, args, limits):
    from .interaction import interact, interact_stopping
    return _run_pairing(ws, args, limits, "with", interact, interact_stopping,
                        "bare")


def _run_pairing(ws, args, limits, word, plain, stopping, kind):
    """TAU after SIGMA by plain, or by stopping on two stopping definitions,
    printed as a definition named TAU_word_SIGMA."""
    t = ws.get(args.tau, SUBJECT_KINDS)
    s = ws.get(args.sigma, SUBJECT_KINDS)
    if (t.kind == "stopping") != (s.kind == "stopping"):
        raise ParseError("compose/interact take two plain strategies or two"
                         " stopping strategies, not a mixture")
    out = _Out(ws)
    base = f"{t.name}_{word}_{s.name}"
    if t.kind == "stopping":
        out.stopping_def(stopping(s.obj, t.obj, limits), base,
                         strat_base=f"{base}_strat")
    else:
        out.strategy_def(plain(s.obj, t.obj, limits), base, kind=kind)
    return out.emit(args)


def _cmd_st(ws, args, limits):
    d = ws.get(args.name, STRATEGY_KINDS)
    out = _Out(ws)
    out.stopping_def(stop_of(d.obj, limits), f"{d.name}_st",
                     strat_base=f"{d.name}_vis")
    return out.emit(args)


def _cmd_saturate(ws, args, limits):
    d = ws.get(args.name, STRATEGY_KINDS)
    s = saturate_stopping(d.obj, limits)
    out = _Out(ws)
    out.stopping_def(s, f"{d.name}_sat", strat_base=d.name)
    return out.emit(args)


def _cmd_may(ws, args, limits):
    from .testing import may_pass
    return _run_verdict(ws, args, limits, may_pass, "witness")


def _cmd_must(ws, args, limits):
    from .testing import must_pass
    return _run_verdict(ws, args, limits, must_pass, "counterexample")


def _run_verdict(ws, args, limits, runner, fail_word):
    sub = ws.get(args.subject, SUBJECT_KINDS)
    test = ws.get(args.test, STRATEGY_KINDS)
    v = runner(sub.obj, test.obj, limits)
    if v:
        print("pass")
        if v.witness:
            _print_witness("witness", v.witness, sub, test)
        return 0
    print("fail")
    if v.witness:
        _print_witness(fail_word, v.witness, sub, test)
    return 1


def _print_witness(label, pair, sub, test):
    x, y = pair
    snames = _naming(strategy_of(sub.obj).source.events)
    tnames = _naming(test.obj.source.events)
    print(f"{label}: subject {_fmt_config(x, snames)}"
          f" test {_fmt_config(y, tnames)}")


def _cmd_may_preorder(ws, args, limits):
    from .testing import may_preorder
    return _run_preorder(ws, args, limits, may_preorder)


def _cmd_must_preorder(ws, args, limits):
    from .testing import must_preorder
    return _run_preorder(ws, args, limits, must_preorder)


def _run_preorder(ws, args, limits, checker):
    a = ws.get(args.first, SUBJECT_KINDS)
    b = ws.get(args.second, SUBJECT_KINDS)
    ok, gap = checker(a.obj, b.obj, limits)
    if ok:
        print("true")
        return 0
    print("false")
    x, alpha = gap
    names = _naming(strategy_of(a.obj).source.events)
    print(f"gap trace: {_fmt_trace(alpha)}")
    print(f"realised by {_fmt_config(x, names)}")
    return 1


def _cmd_synth_may(ws, args, limits):
    from .testing import may_pass, synthesize_may_test
    return _run_synth(ws, args, limits, "may", synthesize_may_test, may_pass)


def _cmd_synth_must(ws, args, limits):
    from .testing import must_pass, synthesize_must_test
    return _run_synth(ws, args, limits, "must", synthesize_must_test,
                      must_pass)


def _run_synth(ws, args, limits, kind, synthesize, runner):
    from .testing import find_gap
    a = ws.get(args.first, SUBJECT_KINDS)
    b = ws.get(args.second, SUBJECT_KINDS)
    gap = find_gap(kind, a.obj, b.obj, limits)
    if gap is None:
        print(f"no gap: the {kind} preorder holds")
        return 1
    test = synthesize(b.obj, gap, limits)
    va = runner(a.obj, test, limits)
    vb = runner(b.obj, test, limits)
    print(f"separating test found: {args.first} "
          + ("passes" if va else "fails") + f", {args.second} "
          + ("passes" if vb else "fails"))
    out = _Out(ws)
    out.strategy_def(test, f"sep_{a.name}_{b.name}", kind="test")
    return out.emit(args)


def _cmd_rigid_image(ws, args, limits):
    from .rigid import rigid_image, rigid_image_stopping
    d = ws.get(args.name, SUBJECT_KINDS)
    out = _Out(ws)
    if d.kind == "stopping":
        got = rigid_image_stopping(d.obj, limits)
        out.stopping_def(got, f"{d.name}_ri", strat_base=f"{d.name}_ri_strat")
    else:
        sigma0, _ = rigid_image(d.obj, limits)
        out.strategy_def(sigma0, f"{d.name}_ri")
    return out.emit(args)


def _cmd_dot(ws, args, limits):
    d = ws.get(args.name)
    text = export_dot(d)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ---- argument wiring ----------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="esg",
        description="Concurrent games: structures, strategies, and tests.")
    ap.add_argument("-f", "--file", action="append", metavar="PATH",
                    help="input .esg file; may be repeated")
    ap.add_argument("--max-configs", type=_cap, default=None)
    ap.add_argument("--max-primes", type=_cap, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_, positionals, out=False):
        sp = sub.add_parser(name, help=help_)
        for arg in positionals:
            if arg.endswith("*"):
                sp.add_argument(arg[:-1], nargs="*")
            elif arg.endswith("+"):
                sp.add_argument(arg[:-1], nargs="+")
            else:
                sp.add_argument(arg)
        if out:
            sp.add_argument("--out", metavar="PATH",
                            help="write the result instead of printing it")
        sp.set_defaults(fn=fn)

    cmd("check", _cmd_check, "validate definitions", ["names*"])
    cmd("configs", _cmd_configs, "list configurations or stopping sets",
        ["name"])
    cmd("relations", _cmd_relations,
        "immediate causes, conflicts, concurrency", ["name"])
    cmd("copycat", _cmd_copycat, "copycat strategy on a game",
        ["game"], out=True)
    cmd("dual", _cmd_dual, "polarity-reversed structure", ["name"], out=True)
    cmd("par", _cmd_par, "parallel composition of structures",
        ["names+"], out=True)
    cmd("compose", _cmd_compose, "composition with hiding (tau after sigma)",
        ["tau", "sigma"], out=True)
    cmd("interact", _cmd_interact, "interaction, internal events kept",
        ["tau", "sigma"], out=True)
    cmd("st", _cmd_st, "visible part with induced stopping set",
        ["name"], out=True)
    cmd("saturate", _cmd_saturate, "all maximal configurations as stopping",
        ["name"], out=True)
    cmd("may", _cmd_may, "may the subject pass the test",
        ["subject", "test"])
    cmd("must", _cmd_must, "must the subject pass the test",
        ["subject", "test"])
    cmd("may-preorder", _cmd_may_preorder, "trace inclusion",
        ["first", "second"])
    cmd("must-preorder", _cmd_must_preorder, "stopping-trace inclusion",
        ["first", "second"])
    cmd("synth-may", _cmd_synth_may,
        "build a test splitting the may preorder", ["first", "second"],
        out=True)
    cmd("synth-must", _cmd_synth_must,
        "build a test splitting the must preorder", ["first", "second"],
        out=True)
    cmd("rigid-image", _cmd_rigid_image, "collapse to the rigid image",
        ["name"], out=True)
    cmd("dot", _cmd_dot, "DOT rendering of a definition", ["name"], out=True)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    limits = _limits(args)
    try:
        ws = _load(args, limits)
        return args.fn(ws, args, limits)
    except EsgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        if err.filename is None:  # not a file the command was given
            raise
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
