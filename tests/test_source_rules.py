"""Rules the source keeps, checked by scanning its syntax trees.

Each test lists every violation it finds, one `path:line` a line, with paths
relative to the repository root.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sources(*dirs):
    """(path relative to the root, syntax tree) of every .py file under dirs,
    in path order."""
    paths = sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))
    return [(p.relative_to(ROOT), ast.parse(p.read_text())) for p in paths]


def test_no_assert_statements_in_src():
    # public APIs raise typed errors: an assert vanishes under python -O
    found = [f"{path}:{node.lineno}"
             for path, tree in sources("src")
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, "\n".join(found)


def test_no_unread_parameters_in_src():
    # a parameter no body reads is a setting nothing honours; the _cmd_*
    # handlers share one dispatch signature, and pair_configs takes padding
    # for callers of the padded construction
    EXEMPT = {("pair_configs", "padding")}
    found = []
    for path, tree in sources("src"):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.name == "cli.py" and fn.name.startswith("_cmd_"):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            found += [f"{path}:{fn.lineno}: {fn.name}({p})"
                      for p in params
                      if p not in read and (fn.name, p) not in EXEMPT]
    assert not found, "\n".join(found)


def test_no_unused_imports_in_src_or_tests():
    # an import nothing reads only costs load time and hides real use
    found = []
    for path, tree in sources("src", "tests"):
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    name = (a.asname or a.name).split(".")[0]
                    imported.setdefault(name, node.lineno)
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{path}:{line}: {name}"
                  for name, line in imported.items() if name not in loaded]
    assert not found, "\n".join(found)


def test_no_unbounded_caches_in_src():
    # every kept table is bounded or weak: an unbounded cache over a
    # function with parameters grows, and keeps its arguments alive, for
    # the life of the process
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)

    def unbounded(dec):
        if name(dec) == "cache":
            return True
        if isinstance(dec, ast.Call) and name(dec.func) == "lru_cache":
            size = dec.args[:1] + [k.value for k in dec.keywords
                                   if k.arg == "maxsize"]
            return any(isinstance(v, ast.Constant) and v.value is None
                       for v in size)
        return False

    found = []
    for path, tree in sources("src"):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            takes = a.posonlyargs or a.args or a.kwonlyargs \
                or a.vararg or a.kwarg
            if takes and any(map(unbounded, fn.decorator_list)):
                found.append(f"{path}:{fn.lineno}: {fn.name}")
    assert not found, "\n".join(found)


def test_no_value_errors_raised_in_src():
    # bad arguments raise BadArgument, with their data, like every other
    # typed error of the engine
    found = [f"{path}:{node.lineno}"
             for path, tree in sources("src")
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and "ValueError" in {getattr(n, "id", None)
                                  for n in ast.walk(node.exc)}]
    assert not found, "\n".join(found)


def test_no_writes_to_another_objects_private_attributes_in_src():
    # what an object keeps it writes itself, as a cached_property or in its
    # own methods: a write from outside bypasses the owner's rule for a
    # later, smaller cap
    found = []
    for path, tree in sources("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                owner, name = node.value, node.attr
            elif isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) in ("setattr", "delattr") \
                    and isinstance(node.args[1], ast.Constant):
                owner, name = node.args[0], node.args[1].value
            else:
                continue
            if name.startswith("_") and getattr(owner, "id", None) != "self":
                found.append(f"{path}:{node.lineno}: {name}")
    assert not found, "\n".join(found)


def test_strategy_sources_are_enumerated_through_bare_strategy_configurations():
    # a strategy's configurations and their extensions are enumerated once
    # and kept on it: no reader but BareStrategy.configurations goes to its
    # source's configurations or configuration_graph
    found = []
    for path, tree in sources("src"):
        exempt = {id(n) for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  and cls.name == "BareStrategy"
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "configurations"
                  for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if (not isinstance(node, ast.Call) or id(node) in exempt
                    or not isinstance(node.func, ast.Attribute)
                    or node.func.attr not in ("configurations",
                                              "configuration_graph")):
                continue
            owner = node.func.value
            if isinstance(owner, ast.Attribute) and owner.attr == "es":
                owner = owner.value
            if isinstance(owner, ast.Attribute) and owner.attr == "source":
                found.append(f"{path}:{node.lineno}")
    assert not found, "\n".join(found)


def test_testing_imports_nothing_from_interaction():
    # a run decides each pairing from the kept orders on the game, so the
    # may and must commands never load the pullback layer
    found = []
    for path, tree in sources("src"):
        if path.name != "testing.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "interaction" for n in names):
                found.append(f"{path}:{node.lineno}")
    assert not found, "\n".join(found)


def test_strategy_targets_are_built_only_by_shared_target():
    # dual(A) || N || B is one object per value of the three games: every
    # reader takes it from strategies.shared_target, which alone builds it
    def named(node, name):
        f = node.func
        return (getattr(f, "id", None) or getattr(f, "attr", None)) == name

    found = []
    for path, tree in sources("src"):
        exempt = {id(n) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef)
                  and path.name == "strategies.py"
                  and fn.name == "shared_target"
                  for n in ast.walk(fn)}
        found += [f"{path}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in exempt
                  and named(node, "parallel") and len(node.args) == 3
                  and isinstance(node.args[0], ast.Call)
                  and named(node.args[0], "dual")]
    assert not found, "\n".join(found)


def test_no_nested_function_in_src_names_itself():
    # a nested function that names itself holds its own closure cell: a
    # reference cycle that keeps all it captures alive until the cycle
    # collector runs, so recursion lives in module-level helpers
    def functions(node):
        return [n for n in ast.walk(node)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]

    found = set()
    for path, tree in sources("src"):
        for outer in functions(tree):
            for fn in functions(outer):
                if fn is not outer and any(
                        isinstance(n, ast.Name) and n.id == fn.name
                        for stmt in fn.body for n in ast.walk(stmt)):
                    found.add(f"{path}:{fn.lineno}: {fn.name}")
    assert not found, "\n".join(sorted(found))


def test_src_calls_the_padded_oracle_nowhere():
    # interact reads the strategies' parts in place: the padded
    # juxtapositions interaction._padding builds are the tests' oracle only
    found = [f"{path}:{node.lineno}"
             for path, tree in sources("src")
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None)
                  or getattr(node.func, "attr", None)) == "_padding"]
    assert not found, "\n".join(found)


def test_every_kept_table_is_accounted_for():
    # every table the engine keeps earned its place in an A/B that removed
    # it (see the README on derived data): a cached_property, or a
    # module-level table that starts empty and fills at run time. Each
    # entry names the reader it serves; a new table comes with its A/B
    KEPT = {
        "strategies._targets": "shared_target: one dual(A) || N || B"
                               " per value of the games",
        "testing._kept": "enumerate_tests: enumerations of tests",
        "_StrategyMap.target": "BareStrategy.target and sigma.dst",
        "BareStrategy.is_strategy": "BareStrategy.visible and the"
                                    " neutral-free checks",
        "BareStrategy._hidden": "BareStrategy.visible",
        "BareStrategy._by_image": "configurations_by_image",
        "BareStrategy._stop": "stop_of",
        "BareStrategy._ticking": "ticking_runs",
        "StoppingStrategy._hidden": "StoppingStrategy.visible",
        "StoppingStrategy._by_image": "stopping_by_image",
        "StoppingStrategy.nonticking_runs": "must_pass's test runs",
        "Polarised._hash": "Polarised.__hash__",
    }

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)

    def filled_at_run_time(value):
        if isinstance(value, ast.Dict):
            return not value.keys
        return isinstance(value, ast.Call) and name(value.func) in (
            "dict", "OrderedDict", "WeakValueDictionary")

    found = set()
    for path, tree in sources("src"):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found |= {f"{node.name}.{fn.name}" for fn in node.body
                          if isinstance(fn, ast.FunctionDef)
                          and "cached_property" in map(name,
                                                       fn.decorator_list)}
            elif isinstance(node, ast.Assign) and \
                    filled_at_run_time(node.value):
                found |= {f"{path.stem}.{t.id}" for t in node.targets
                          if isinstance(t, ast.Name)}
    assert found == set(KEPT), "\n".join(
        [f"not accounted for: {t}" for t in sorted(found - set(KEPT))]
        + [f"no longer kept: {t}" for t in sorted(set(KEPT) - found)])
