"""Spans around calls into the public functions of esgames, and the per-layer
metrics read from them.

The wrappers are installed from the benchmark's own code; esgames itself is
not changed. A wrapped function is replaced under every name that refers to
it in every loaded esgames module (a `from .x import f` binding would
otherwise bypass the wrapper), and in any extra module passed in. Hot
predicates such as `is_consistent` stay unwrapped.
"""

import contextlib
import functools
import gzip
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute, size of the result counted for the span)
TARGETS = [
    ("structures.configurations", "esgames.structures",
     "EventStructure.configurations", len),
    ("structures.event_structure", "esgames.structures", "event_structure", None),
    ("structures.validate_map", "esgames.structures", "validate_map", None),
    ("structures.find_isomorphism", "esgames.structures", "find_isomorphism", None),
    ("games.parallel", "esgames.games", "parallel", None),
    ("games.copycat", "esgames.games", "copycat", None),
    ("games.is_race_free", "esgames.games", "is_race_free", None),
    ("strategies.validate_bare_strategy", "esgames.strategies",
     "validate_bare_strategy", lambda diags: int(not diags)),
    ("strategies.stop_of", "esgames.strategies", "stop_of", None),
    ("interaction.interact", "esgames.interaction", "interact",
     lambda inter: len(inter.primes_of)),
    ("interaction.pair_configs", "esgames.interaction", "pair_configs",
     lambda got: int(got is not None)),
    ("interaction.compose_stopping", "esgames.interaction", "compose_stopping", None),
    ("testing.traces_of", "esgames.testing", "traces_of", len),
    ("testing.may_pass", "esgames.testing", "may_pass", None),
    ("testing.must_pass", "esgames.testing", "must_pass", None),
    ("testing.may_preorder", "esgames.testing", "may_preorder", None),
    ("testing.must_preorder", "esgames.testing", "must_preorder", None),
    ("testing.enumerate_tests", "esgames.testing", "enumerate_tests", len),
    ("testing.synthesize", "esgames.testing", "synthesize_may_test", None),
    ("testing.synthesize", "esgames.testing", "synthesize_must_test", None),
    ("rigid.rigid_image", "esgames.rigid", "rigid_image", None),
    ("fileformat.parse", "esgames.fileformat", "parse", None),
    ("fileformat.print_workspace", "esgames.fileformat", "print_workspace", None),
    ("cli.main", "esgames.cli", "main", None),
]

# Per-layer metrics: (name, unit, better, span name, statistic). Counts and
# ratios are taken over the first round of a run, which a seed fixes; self
# times are the median over the run's rounds of the time spent in the named
# spans minus the time their child spans cover.
LAYER_METRICS = [
    ("structures.configurations.calls", "count", "lower",
     "structures.configurations", "calls"),
    ("structures.configurations.configs", "count", "lower",
     "structures.configurations", "size"),
    ("structures.configurations.self_s", "s", "lower",
     "structures.configurations", "self_s"),
    ("structures.event_structure.self_s", "s", "lower",
     "structures.event_structure", "self_s"),
    ("structures.validate_map.self_s", "s", "lower",
     "structures.validate_map", "self_s"),
    ("structures.find_isomorphism.self_s", "s", "lower",
     "structures.find_isomorphism", "self_s"),
    ("games.parallel.self_s", "s", "lower", "games.parallel", "self_s"),
    ("games.copycat.self_s", "s", "lower", "games.copycat", "self_s"),
    ("games.is_race_free.self_s", "s", "lower", "games.is_race_free", "self_s"),
    ("strategies.validate_bare_strategy.calls", "count", "lower",
     "strategies.validate_bare_strategy", "calls"),
    ("strategies.validate_bare_strategy.valid_ratio", "ratio", "higher",
     "strategies.validate_bare_strategy", "ratio"),
    ("strategies.validate_bare_strategy.self_s", "s", "lower",
     "strategies.validate_bare_strategy", "self_s"),
    ("strategies.stop_of.calls", "count", "lower", "strategies.stop_of", "calls"),
    ("strategies.stop_of.self_s", "s", "lower", "strategies.stop_of", "self_s"),
    ("interaction.interact.calls", "count", "lower", "interaction.interact", "calls"),
    ("interaction.interact.bijections", "count", "lower",
     "interaction.interact", "size"),
    ("interaction.interact.self_s", "s", "lower", "interaction.interact", "self_s"),
    ("interaction.pair_configs.calls", "count", "lower",
     "interaction.pair_configs", "calls"),
    ("interaction.pair_configs.defined_ratio", "ratio", "higher",
     "interaction.pair_configs", "ratio"),
    ("interaction.pair_configs.self_s", "s", "lower",
     "interaction.pair_configs", "self_s"),
    ("interaction.compose_stopping.self_s", "s", "lower",
     "interaction.compose_stopping", "self_s"),
    ("testing.traces_of.calls", "count", "lower", "testing.traces_of", "calls"),
    ("testing.traces_of.traces", "count", "lower", "testing.traces_of", "size"),
    ("testing.traces_of.self_s", "s", "lower", "testing.traces_of", "self_s"),
    ("testing.may_pass.calls", "count", "lower", "testing.may_pass", "calls"),
    ("testing.may_pass.self_s", "s", "lower", "testing.may_pass", "self_s"),
    ("testing.must_pass.calls", "count", "lower", "testing.must_pass", "calls"),
    ("testing.must_pass.self_s", "s", "lower", "testing.must_pass", "self_s"),
    ("testing.may_preorder.self_s", "s", "lower", "testing.may_preorder", "self_s"),
    ("testing.must_preorder.self_s", "s", "lower", "testing.must_preorder", "self_s"),
    ("testing.enumerate_tests.calls", "count", "lower",
     "testing.enumerate_tests", "calls"),
    ("testing.enumerate_tests.tests", "count", "lower",
     "testing.enumerate_tests", "size"),
    ("testing.enumerate_tests.self_s", "s", "lower",
     "testing.enumerate_tests", "self_s"),
    ("testing.synthesize.self_s", "s", "lower", "testing.synthesize", "self_s"),
    ("rigid.rigid_image.self_s", "s", "lower", "rigid.rigid_image", "self_s"),
    ("fileformat.parse.self_s", "s", "lower", "fileformat.parse", "self_s"),
    ("fileformat.print_workspace.self_s", "s", "lower",
     "fileformat.print_workspace", "self_s"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self_s"),
]

# Span fields, in order.
NAME, START, END, PARENT, ROUND, SIZE = range(6)


class Tracer:
    """Records one span per wrapped call made while active.

    Spans are (name, start, end, parent index or -1, round, result size or
    None) in call order; a span's parent is the innermost span open when it
    started. `import_times` holds the times of `import esgames.cli` that
    cli_probe.py processes measured.
    """

    def __init__(self):
        self.spans = []
        self.import_times = []
        self.stack = []
        self.active = False
        self.round = 0

    def wrap(self, name, fn, size=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                n = size(result) if returned and size is not None else None
                spans[sid] = (name, t0, t1, parent, tracer.round, n)

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record a span of the benchmark's own, such as one operation, with
        the engine calls made inside it as its children."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.round, None)

    def adopt(self, spans):
        """Append spans recorded by another process under the open span."""
        base = len(self.spans)
        top = self.stack[-1] if self.stack else -1
        for name, t0, t1, parent, _, n in spans:
            self.spans.append((name, t0, t1, parent + base if parent >= 0 else top,
                               self.round, n))

    def write(self, path):
        """Write every span as gzipped CSV, one line each."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,round,size\n")
            for s in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in s) + "\n")


def install(tracer, extra_modules=()):
    """Wrap every target and rebind each name that refers to an original."""
    replaced = {}
    for name, modname, attr, size in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, orig, size))
        else:
            orig = getattr(mod, attr)
            replaced[id(orig)] = (orig, tracer.wrap(name, orig, size))
    modules = [m for n, m in list(sys.modules.items())
               if n == "esgames" or n.startswith("esgames.")]
    for mod in modules + list(extra_modules):
        for key, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, key, hit[1])


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s[START], s[END]
        covered = 0.0
        reach = t0
        for c0, c1 in sorted((max(t0, spans[c][START]), min(t1, spans[c][END]))
                             for c in children[i]):
            c0 = max(c0, reach)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(t1 - t0 - covered)
    return out


def layer_metrics(spans, rounds):
    """Every per-layer metric from the spans of a run of whole rounds.

    A layer the run never called reads 0.
    """
    selfs = self_times(spans)
    per_round = defaultdict(lambda: [0.0] * rounds)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    for s, st in zip(spans, selfs):
        if s[ROUND] < rounds:
            per_round[s[NAME]][s[ROUND]] += st
        if s[ROUND] == 0:
            calls[s[NAME]] += 1
            sizes[s[NAME]] += s[SIZE] or 0
    out = {}
    for metric, unit, _, span, stat in LAYER_METRICS:
        if stat == "calls":
            value = calls[span]
        elif stat == "size":
            value = sizes[span]
        elif stat == "ratio":
            value = sizes[span] / calls[span] if calls[span] else 0.0
        else:
            value = statistics.median(per_round[span]) if span in per_round else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
