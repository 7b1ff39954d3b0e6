"""The benchmark's workloads, as seeded rounds of checked operations.

A workload turns (seed, round index) into a list of operations. Inputs are
generated outside the timed region; each operation's `run` is what is timed,
and its `check` compares the result with `oracles` or with a law the
construction must obey, returning None when it holds or a description of
the mismatch. Every round of a workload has the same operations in kind and
number, on fresh inputs, so a run of whole rounds attempts a fixed mix.
"""

import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations

from esgames.fileformat import parse_file
from esgames.games import MINUS, PLUS, game
from esgames.interaction import compose, compose_stopping, interact
from esgames.randgen import (random_bare, random_game, random_in_game_strategy,
                             random_stopping, random_strategy)
from esgames.rigid import rigid_image_stopping
from esgames.strategies import copycat_strategy, stop_of
from esgames.structures import event_structure, find_isomorphism
from esgames.testing import (enumerate_tests, finite_traces, may_pass,
                             may_preorder, must_pass, must_preorder,
                             stopping_traces, synthesize_may_test,
                             synthesize_must_test)

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Op:
    """One operation: a kind for reporting, the timed call, and its check."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _rng(workload, seed, rnd):
    return random.Random(f"{workload}:{seed}:{rnd}")


def _names(rng, n, stem):
    """n distinct identifiers with a seeded infix, in seeded order."""
    infix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
    idx = list(range(n))
    rng.shuffle(idx)
    return [f"{stem}{infix}{i}" for i in idx]


def definition(bs):
    """A strategy's source as the oracles take it: the definition only."""
    es = bs.source.es
    return {"events": es.events, "below": {e: es.below(e) for e in es.events},
            "maxcons": es.maxcons, "label": bs.sigma.mapping,
            "pol": bs.source.pol}


def oracle_configs(d):
    return oracles.configurations(d["events"], d["below"], d["maxcons"])


def oracle_traces(d, configs=None):
    if configs is None:
        configs = oracle_configs(d)
    return oracles.traces(configs, d["below"], d["label"])


def _concurrent_game(names):
    return game(event_structure(names), {e: PLUS for e in names})


def _chain_game(names):
    """Alternating Player/Opponent chain in the order of names."""
    pol = {e: PLUS if i % 2 == 0 else MINUS for i, e in enumerate(names)}
    return game(event_structure(names, causes=list(zip(names, names[1:]))), pol)


# ---- bounded-tests ---------------------------------------------------------------

# A round replays acceptance item 8 (tests/test_acceptance.py::test_08) at
# half scale: per preorder, a pool of games from random_game and subject pairs
# over games drawn from it with replacement. A pair's cost is set mostly by
# its game's size and number of Opponent moves, and by its verdict, so games
# and pairs are stratified by these: every round has the pool and the pair
# counts that item 8's own draws (seeds 88 and 89) have, halved, and only the
# games and subjects vary. Games with a conflict that touches a Player move
# are redrawn, as test synthesis builds an invalid test on some of them (see
# CHANGES.md); item 8's own pools have none.
# (events, Opponent moves): (games in the pool, holding pairs, failing pairs)
MAY_STRATA = {(1, 0): (2, 12, 3), (1, 1): (3, 13, 0), (2, 0): (1, 3, 4),
              (2, 1): (2, 5, 5), (3, 1): (2, 2, 3)}
MUST_STRATA = {(1, 0): (2, 5, 8), (1, 1): (5, 18, 12), (2, 1): (1, 2, 5)}
BUDGET = 3              # largest test enumerated, in events (item 8 has 4)
DRAWS_PER_GAME = 40     # pair draws before another game joins a stratum's pool


def _player_conflict(g):
    es = g.es
    return any(PLUS in (g.pol[a], g.pol[b])
               and not any({a, b} <= m for m in es.maxcons)
               for a, b in combinations(es.events, 2))


def _pool_game(rng, n, opponent):
    while True:
        g = random_game(rng, max_events=n, min_events=n)
        if (sum(p == MINUS for p in g.pol.values()) == opponent
                and not _player_conflict(g)):
            return g


def _pairs(rng, strata, draw, holds):
    """(kind, game, s1, s2) for each pair, in each stratum over games drawn
    with replacement from a fresh pool, as many of each verdict as it asks.
    The kind names the stratum, as in "holds-1e1o": the verdict, the game's
    events and its Opponent moves."""
    out = []
    for (n, opponent), (games, holding, failing) in strata.items():
        pool = [_pool_game(rng, n, opponent) for _ in range(games)]
        want = {True: holding, False: failing}
        misses = 0
        while any(want.values()):
            g = rng.choice(pool)
            s1, s2 = draw(g), draw(g)
            v = holds(s1, s2)
            if want[v]:
                want[v] -= 1
                out.append((f"{'holds' if v else 'fails'}-{n}e{opponent}o",
                            g, s1, s2))
            else:
                misses += 1
                if misses % DRAWS_PER_GAME == 0:
                    # no game in the pool may give the missing verdict
                    pool.append(_pool_game(rng, n, opponent))
    return out


def _may_holds(s1, s2):
    return oracle_traces(definition(s1)) <= oracle_traces(definition(s2))


def _must_holds(s1, s2):
    return (oracle_traces(definition(s1.strat), s1.stopping)
            <= oracle_traces(definition(s2.strat), s2.stopping))


def _check_preorder(res, first, second):
    """Check a preorder op's result against trace sets from the oracle."""
    ok, gap = res[0], res[1]
    missing = first - second
    if ok != (not missing):
        return f"verdict {ok}, oracle finds {len(missing)} missing traces"
    if ok:
        return None if res[3] == 0 else f"{res[3]} enumerated tests separate"
    alpha = gap[1]
    if alpha not in missing:
        return f"gap {alpha} is not a trace of the first subject only"
    if len(alpha) != min(map(len, missing)):
        return f"gap {alpha} is not a shortest missing trace"
    if not res[2] or res[3]:
        return "the synthesised test does not separate"
    return None


def _may_op(kind, g, s1, s2):
    def run():
        ok, gap = may_preorder(s1, s2)
        if ok:
            tests = enumerate_tests(g, BUDGET)
            sep = sum(1 for t in tests if may_pass(s1, t) and not may_pass(s2, t))
            return ok, gap, len(tests), sep
        t = synthesize_may_test(s2, gap)
        return ok, gap, may_pass(s1, t).passed, may_pass(s2, t).passed

    def check(res):
        return _check_preorder(res, oracle_traces(definition(s1)),
                               oracle_traces(definition(s2)))
    return Op("may-" + kind, run, check)


def _must_op(kind, g, s1, s2):
    def run():
        ok, gap = must_preorder(s1, s2)
        if ok:
            tests = enumerate_tests(g, BUDGET, bare=True)
            sep = sum(1 for t in tests
                      if must_pass(s2, t) and not must_pass(s1, t))
            return ok, gap, len(tests), sep
        t = synthesize_must_test(s2, gap)
        return ok, gap, must_pass(s2, t).passed, must_pass(s1, t).passed

    def check(res):
        d1, d2 = definition(s1.strat), definition(s2.strat)
        return _check_preorder(res, oracle_traces(d1, s1.stopping),
                               oracle_traces(d2, s2.stopping))
    return Op("must-" + kind, run, check)


def bounded_tests_round(seed, rnd):
    rng = _rng("bounded-tests", seed, rnd)
    ops = [_may_op(*pair) for pair in _pairs(
        rng, MAY_STRATA, lambda g: random_in_game_strategy(rng, g), _may_holds)]
    ops += [_must_op(*pair) for pair in _pairs(
        rng, MUST_STRATA,
        lambda g: random_stopping(rng, random_in_game_strategy(rng, g)),
        _must_holds)]
    rng.shuffle(ops)
    return ops


# ---- compose -----------------------------------------------------------------------

# The same number of operations for each of the four laws a round, with the
# sizes the acceptance items that state the laws draw: both games of the
# copycat law of 1 to 5 events (item 5), the rigid image's game of 1 to 4
# (item 10). Each size, or pair of sizes, comes in turn from round to round
# rather than at random, as a few large members carry much of a round's cost
# and their number would otherwise vary from run to run. The stopping law
# draws games of up to 2 events where item 6 goes to 3: a rare 3-event pair
# builds an interaction large enough to move the run's peak memory by a
# fifth. Half the squares are on n concurrent moves, n from 1 to 5, half on a
# chain of m moves, m from 1 to 8, also in turn.
PER_LAW = 4
COPYCAT_LAW_SIZES = [(a, b) for a in range(1, 6) for b in range(1, 6)]
STOP_LAW_EVENTS = 2
RIGID_EVENTS = 4
SQUARE_CONCURRENT_MAX = 5          # copycat interacted with copycat on n moves
SQUARE_CHAIN_MAX = 8               # ... and on a chain of m moves


def _iso_check(iso, one, two):
    if not oracles.is_isomorphism(iso, one, two):
        return "no isomorphism, or the one found does not check"
    return None


def _copycat_identity_op(a, b, sigma):
    def run():
        out = []
        for st in (compose(sigma, copycat_strategy(b)),
                   compose(copycat_strategy(a), sigma)):
            out.append((st, find_isomorphism(
                st.source.es, sigma.source.es,
                label1=st.sigma.mapping, label2=sigma.sigma.mapping)))
        return out

    def check(res):
        for st, iso in res:
            bad = _iso_check(iso, definition(st), definition(sigma))
            if bad:
                return "copycat composite: " + bad
        return None
    return Op("copycat-identity", run, check)


def _stop_law_op(sigma, tau):
    def run():
        lhs = stop_of(interact(sigma, tau))
        rhs = compose_stopping(stop_of(sigma), stop_of(tau))
        iso = find_isomorphism(lhs.strat.source.es, rhs.strat.source.es,
                               label1=lhs.strat.sigma.mapping,
                               label2=rhs.strat.sigma.mapping)
        return lhs, rhs, iso

    def check(res):
        lhs, rhs, iso = res
        bad = _iso_check(iso, definition(lhs.strat), definition(rhs.strat))
        if bad:
            return "stopping law: " + bad
        if {frozenset(iso[e] for e in x) for x in lhs.stopping} != set(rhs.stopping):
            return "stopping law: stopping sets differ"
        return None
    return Op("stop-law", run, check)


def _rigid_op(s):
    def run():
        ri = rigid_image_stopping(s)
        return ri, finite_traces(ri.strat), stopping_traces(ri)

    def check(res):
        ri, fin, stop = res
        d, rd = definition(s.strat), definition(ri.strat)
        want_fin = oracle_traces(d)
        want_stop = oracle_traces(d, s.stopping)
        if oracle_traces(rd) != want_fin or oracle_traces(rd, ri.stopping) != want_stop:
            return "rigid image changes the traces"
        if fin != want_fin or stop != want_stop:
            return "engine traces of the rigid image differ from the oracle"
        return None
    return Op("rigid", run, check)


def _square_op(g, expected, kind):
    def run():
        cc = copycat_strategy(g)
        return interact(cc, cc)

    def check(inter):
        got = len(inter.primes_of)
        return None if got == expected else \
            f"{got} secured bijections, closed form gives {expected}"
    return Op(kind, run, check)


def _sized_game(rng, n, name):
    return random_game(rng, max_events=n, min_events=n, name=name)


def compose_round(seed, rnd):
    rng = _rng("compose", seed, rnd)
    ops = []
    for i in range(PER_LAW):
        k = rnd * PER_LAW + i          # the operation's turn among all rounds
        na, nb = COPYCAT_LAW_SIZES[k % len(COPYCAT_LAW_SIZES)]
        a, b = _sized_game(rng, na, "A"), _sized_game(rng, nb, "B")
        ops.append(_copycat_identity_op(a, b, random_strategy(rng, a, b)))
        a, b, c = (random_game(rng, max_events=STOP_LAW_EVENTS, name=nm)
                   for nm in "ABC")
        ops.append(_stop_law_op(random_bare(rng, a, b), random_bare(rng, b, c)))
        g = _sized_game(rng, 1 + k % RIGID_EVENTS, "G")
        ops.append(_rigid_op(random_stopping(rng, random_in_game_strategy(rng, g))))
        if i % 2:
            m = 1 + k // 2 % SQUARE_CHAIN_MAX
            ops.append(_square_op(_chain_game([f"k{j}" for j in range(m)]),
                                  oracles.copycat_square_chain(m),
                                  "copycat-square-chain"))
        else:
            n = 1 + k // 2 % SQUARE_CONCURRENT_MAX
            ops.append(_square_op(_concurrent_game(_names(rng, n, "c")),
                                  oracles.copycat_square_concurrent(n),
                                  "copycat-square-concurrent"))
    rng.shuffle(ops)
    return ops


def _expect(value, want, what):
    return None if value == want else f"{what}: got {value!r}, want {want!r}"


# ---- cli ---------------------------------------------------------------------------

FIXTURES = ("hidden_deadlock.esg", "neutral_test.esg")
CLI_CONCURRENT = 6
CLI_CONFLICTS = 5
CLI_CLIMBER_DEPTH = 5
ESG_MAIN = "import sys; from esgames.cli import main; sys.exit(main())"
_DEF = re.compile(r"^(es|game|map|strategy|bare|test|stopping)\s+(\w+)", re.M)
_SET = re.compile(r"\{([^}]*)\}")


def _set_of(line):
    return frozenset(_SET.search(line).group(1).split())


def _check_listing(res, names):
    """`esg check` prints one "ok NAME: ..." line per definition, in order."""
    code, out = res
    got = [ln.split(":")[0] for ln in out.splitlines()]
    return _expect((code, got), (0, [f"ok {n}" for n in names]), "check")


def _strategy_events(out):
    """Number of event lines in the last definition printed."""
    block = out.strip().split("\n\n")[-1]
    return sum(1 for ln in block.splitlines() if ln.startswith("  event "))


def _history_count(d):
    """Distinct labelled histories: labels are injective on a configuration,
    so a history is fixed by its labels, its order and its top."""
    below, label = d["below"], d["label"]
    return len({(label[e], frozenset((label[a], label[b])
                                     for b in below[e] for a in below[b] if a != b))
                for e in d["events"]})


def _write_families(path, rng):
    """Write the families file; return the move the `miss` strategy lacks."""
    ms = _names(rng, CLI_CONCURRENT, "m")
    missing = rng.choice(ms)
    xs, ys = _names(rng, CLI_CONFLICTS, "x"), _names(rng, CLI_CONFLICTS, "y")
    ps = _names(rng, 2 * CLI_CLIMBER_DEPTH, "p")
    out = ["game conc {"] + [f"  event {e} +;" for e in ms] + ["}"]
    for nm, evs in (("full", ms), ("miss", [e for e in ms if e != missing])):
        out += [f"strategy {nm} : conc {{"] + [f"  event {e} +;" for e in evs]
        out += [f"  assign {e} -> {e};" for e in evs] + ["}"]
    out += ["game pairs {"] + [f"  event {e} +;" for e in xs + ys]
    out += [f"  conflict {x} ~ {y};" for x, y in zip(xs, ys)] + ["}"]
    out += ["strategy confl : pairs {"] + [f"  event {e} +;" for e in xs + ys]
    out += [f"  conflict {x} ~ {y};" for x, y in zip(xs, ys)]
    out += [f"  assign {e} -> {e};" for e in xs + ys] + ["}"]
    out += ["game chain {"]
    out += [f"  event {e} {'+' if i % 2 == 0 else '-'};" for i, e in enumerate(ps)]
    out += [f"  cause {a} < {b};" for a, b in zip(ps, ps[1:])] + ["}"]
    for nm, extra in (("climb", False), ("climbx", True)):
        lengths = [2 * j for j in range(1, CLI_CLIMBER_DEPTH + 1)]
        lengths += [2 * CLI_CLIMBER_DEPTH] if extra else []
        ev = {(ci, k): f"q{ci}_{k}" for ci, ln in enumerate(lengths)
              for k in range(1, ln + 1)}
        out += [f"strategy {nm} : chain {{"]
        out += [f"  event {v} {'+' if k % 2 else '-'};" for (ci, k), v in ev.items()]
        out += [f"  cause {ev[ci, k - 1]} < {v};" for (ci, k), v in ev.items() if k > 1]
        out += [f"  conflict {ev[e]} ~ {ev[f]};" for e in ev for f in ev if e[0] < f[0]]
        out += [f"  assign {v} -> {ps[k - 1]};" for (ci, k), v in ev.items()] + ["}"]
        out += [f"stopping {nm}_st {{", f"  strategy {nm};"]
        out += ["  stop { " + " ".join(ev[e] for e in sorted(x)) + " };"
                for x in oracles.climber_stopping(lengths)] + ["}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return missing


class CliWorkload:
    """Each operation runs one esg command in a fresh interpreter.

    Untraced, the command line is the one the installed `esg` script runs.
    Traced, it is cli_probe.py, which times `import esgames.cli` and runs
    main with the wrappers in place; its spans join the caller's trace.
    """

    def __init__(self, seed, workdir, tracer):
        self.tracer = tracer
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")
        self.fam = os.path.relpath(os.path.join(workdir, "families.esg"), ROOT)
        self.missing = _write_families(os.path.join(ROOT, self.fam),
                                       _rng("cli", seed, "files"))
        fx = {}
        for name in FIXTURES:
            ws = parse_file(os.path.join(ROOT, "fixtures", name))
            text = open(os.path.join(ROOT, "fixtures", name), encoding="utf-8").read()
            fx[name] = (ws, [m.group(2) for m in _DEF.finditer(text)])
        self.fx = fx
        self.ops = self._fixture_ops() + self._family_ops()

    def _call(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-c", ESG_MAIN] + argv
            out = None
        else:
            out = os.path.join(self.workdir, "probe.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_probe.py"), out] + argv
        p = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                           text=True, timeout=120)
        if out is not None:
            with open(out, encoding="utf-8") as fh:
                probe = json.load(fh)
            os.remove(out)
            self.tracer.import_times.append(probe["import_s"])
            self.tracer.adopt(probe["spans"])
        return p.returncode, p.stdout

    def _op(self, kind, argv, check):
        return Op(kind, lambda: self._call(argv), check)

    def _fixture_ops(self):
        hd = os.path.join("fixtures", FIXTURES[0])
        nt = os.path.join("fixtures", FIXTURES[1])
        ws, defs = self.fx[FIXTURES[0]]
        sigma_or = definition(ws.get("sigma_or").obj)
        sigma_b2 = definition(ws.get("sigma_b2").obj)
        tau = definition(ws.get("tau_bc").obj)
        gb = ws.get("GB").obj.es
        ops = []

        def lines(out):
            return out.splitlines()

        ops.append(self._op("check", ["-f", hd, "check"],
                            lambda r: _check_listing(r, defs)))
        want_cfgs = {frozenset(x) for x in oracle_configs(sigma_or)}
        ops.append(self._op(
            "configs", ["-f", hd, "configs", "sigma_or"],
            lambda r: _expect((r[0], {_set_of(ln) for ln in lines(r[1])}),
                              (0, want_cfgs), "configurations")))
        conc = {frozenset((a, b)) for a, b in combinations(gb.events, 2)
                if a not in gb.below(b) and b not in gb.below(a)
                and any({a, b} <= m for m in gb.maxcons)}
        ops.append(self._op(
            "relations", ["-f", hd, "relations", "GB"],
            lambda r: _expect((r[0], {frozenset(ln.split()[1::2]) for ln in lines(r[1])
                                      if ln.startswith("concurrent")}),
                              (0, conc), "concurrent pairs")))
        ops.append(self._op(
            "compose", ["-f", hd, "compose", "tau_bc", "sigma_or"],
            lambda r: _expect((r[0], _strategy_events(r[1])),
                              (0, oracles.HIDDEN_DEADLOCK_COMPOSITE_EVENTS),
                              "composite events")))
        stops = {frozenset(x) for x in oracles.plus_maximal(
            oracle_configs(tau), tau["events"], tau["below"], tau["pol"])}
        ops.append(self._op(
            "st", ["-f", hd, "st", "tau_bc"],
            lambda r: _expect((r[0], {_set_of(ln) for ln in lines(r[1])
                                      if ln.startswith("  stop")}),
                              (0, stops), "stopping family")))
        missing = oracle_traces(sigma_or) - oracle_traces(sigma_b2)
        shortest = min(map(len, missing))
        gaps = {"gap trace: " + " ".join(u[1] for u in tr)
                for tr in missing if len(tr) == shortest}
        for key, (code, first) in oracles.README_VERDICTS.items():
            fname, argv = key[0], list(key[1:])
            path = hd if fname == FIXTURES[0] else nt

            def check(r, code=code, first=first, argv=argv):
                bad = _expect((r[0], lines(r[1])[:1]), (code, [first]), " ".join(argv))
                if bad is None and argv == ["may-preorder", "sigma_or", "sigma_b2"] \
                        and lines(r[1])[1] not in gaps:
                    return f"gap line {lines(r[1])[1]!r} is not a shortest gap"
                return bad
            ops.append(self._op(argv[0], ["-f", path] + argv, check))
        n_or = len(sigma_or["events"])
        conflicts = sum(1 for a, b in combinations(sigma_or["events"], 2)
                        if not any({a, b} <= m for m in sigma_or["maxcons"]))
        ops.append(self._op(
            "dot", ["-f", hd, "dot", "sigma_or"],
            lambda r: _expect((r[0], sum("[label=" in ln for ln in lines(r[1])),
                               sum("style=dashed" in ln for ln in lines(r[1]))),
                              (0, n_or, conflicts), "dot nodes and conflicts")))
        ops.append(self._op(
            "copycat", ["-f", hd, "copycat", "GB"],
            lambda r: _expect((r[0], _strategy_events(r[1])),
                              (0, 2 * len(gb.events)), "copycat events")))
        ops.append(self._op(
            "rigid-image", ["-f", hd, "rigid-image", "sigma_or"],
            lambda r: _expect((r[0], _strategy_events(r[1])),
                              (0, _history_count(sigma_or)), "rigid image events")))
        return ops

    def _family_ops(self):
        f = self.fam
        defs = ["conc", "full", "miss", "pairs", "confl", "chain",
                "climb", "climb_st", "climbx", "climbx_st"]
        want = oracles.CLIMBERS_MUST_EQUIVALENT
        verdict = "true" if want else "false"
        code = 0 if want else 1
        return [
            self._op("check", ["-f", f, "check"],
                     lambda r: _check_listing(r, defs)),
            self._op("configs", ["-f", f, "configs", "full"],
                     lambda r: _expect((r[0], len(r[1].splitlines())),
                                       (0, oracles.concurrent_configs(CLI_CONCURRENT)),
                                       "configurations")),
            self._op("configs", ["-f", f, "configs", "confl"],
                     lambda r: _expect((r[0], len(r[1].splitlines())),
                                       (0, oracles.conflict_configs(CLI_CONFLICTS)),
                                       "configurations")),
            self._op("may-preorder", ["-f", f, "may-preorder", "full", "miss"],
                     lambda r: _expect((r[0], r[1].splitlines()[:2]),
                                       (1, ["false", f"gap trace: {self.missing}"]),
                                       "may preorder against the gap")),
            self._op("may-preorder", ["-f", f, "may-preorder", "miss", "full"],
                     lambda r: _expect((r[0], r[1].splitlines()[:1]), (0, ["true"]),
                                       "may preorder into the full strategy")),
            self._op("must-preorder", ["-f", f, "must-preorder", "climb_st", "climbx_st"],
                     lambda r: _expect((r[0], r[1].splitlines()[:1]), (code, [verdict]),
                                       "climbers must preorder")),
            self._op("must-preorder", ["-f", f, "must-preorder", "climbx_st", "climb_st"],
                     lambda r: _expect((r[0], r[1].splitlines()[:1]), (code, [verdict]),
                                       "climbers must preorder")),
            self._op("synth-may", ["-f", f, "synth-may", "full", "miss"],
                     lambda r: _expect(
                         (r[0], r[1].splitlines()[:1]),
                         (0, ["separating test found: full passes, miss fails"]),
                         "synthesis")),
        ]

    def round(self, seed, rnd):
        ops = list(self.ops)
        _rng("cli", seed, rnd).shuffle(ops)
        return ops


def make(workload, seed, workdir, tracer):
    """The workload's round function: (seed, round index) -> operations.
    Only cli needs the tracer, to collect the spans of its child processes."""
    if workload == "cli":
        return CliWorkload(seed, workdir, tracer).round
    return {"bounded-tests": bounded_tests_round,
            "compose": compose_round}[workload]
