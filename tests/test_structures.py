"""Core event-structure behaviour against hand-computed expectations."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import esgames

from esgames.errors import (
    ConsistencyNotDownClosed,
    CycleInCause,
    EndpointMismatch,
    InconsistentSingleton,
    InvalidStructure,
    SearchBudgetExceeded,
    SizeBoundExceeded,
    UnknownEvent,
)
from esgames.limits import EngineLimits
from esgames.structures import (
    ESMap,
    event_structure,
    factorize,
    find_isomorphism,
    project,
    validate_map,
)


def fs(*xs):
    return frozenset(xs)


def chain(*names):
    return event_structure(names, causes=list(zip(names, names[1:])))


def test_chain_configurations():
    es = chain("a", "b", "c")
    assert es.configurations() == [
        fs(), fs("a"), fs("a", "b"), fs("a", "b", "c")]
    assert es.maxcons == (fs("a", "b", "c"),)


def test_concurrent_configurations():
    es = event_structure(["a", "b"])
    assert es.configurations() == [fs(), fs("a"), fs("b"), fs("a", "b")]


def test_conflict_is_hereditary():
    # c sits above b, so the a~b conflict propagates to a~c
    es = event_structure(["a", "b", "c"], causes=[("b", "c")],
                         conflicts=[("a", "b")])
    assert set(es.maxcons) == {fs("a"), fs("b", "c")}
    assert es.configurations() == [fs(), fs("a"), fs("b"), fs("b", "c")]
    assert not es.is_consistent({"a", "c"})


def test_consistent_blocks_override_conflicts():
    es = event_structure(["a", "b", "c"], consistent=[{"a", "b"}, {"b", "c"}])
    assert set(es.maxcons) == {fs("a", "b"), fs("b", "c")}
    assert not es.is_consistent({"a", "c"})


def test_consistent_block_closure_must_be_declared():
    with pytest.raises(InvalidStructure) as exc:
        event_structure(["a", "b"], causes=[("a", "b")], consistent=[{"b"}, {"a"}])
    assert any(isinstance(d, ConsistencyNotDownClosed)
               for d in exc.value.diagnostics)


def test_cause_cycle_rejected():
    with pytest.raises(InvalidStructure) as exc:
        event_structure(["a", "b"], causes=[("a", "b"), ("b", "a")])
    assert any(isinstance(d, CycleInCause) for d in exc.value.diagnostics)


def test_cause_cycle_does_not_depend_on_string_hashing():
    # two cycles through e1 and e4; which one is reported, and from where,
    # must not change with the hash seed of the process
    src = Path(esgames.__file__).resolve().parent.parent
    code = ("from esgames.structures import diagnose_structure\n"
            "diags, _ = diagnose_structure(\n"
            "    ['e0', 'e1', 'e2', 'e3', 'e4'],\n"
            "    [('e0', 'e2'), ('e1', 'e0'), ('e1', 'e3'), ('e1', 'e4'),\n"
            "     ('e3', 'e4'), ('e4', 'e0'), ('e4', 'e1'), ('e4', 'e2')])\n"
            "print(diags[0].data['cycle'])")
    cycles = {subprocess.run([sys.executable, "-c", code], cwd=src,
                             env={**os.environ, "PYTHONHASHSEED": str(seed)},
                             check=True, capture_output=True, text=True,
                             timeout=60).stdout
              for seed in range(6)}
    assert len(cycles) == 1


def test_a_clash_names_its_conflict_as_declared():
    for pair in (("a", "b"), ("b", "a")):
        with pytest.raises(InvalidStructure) as exc:
            event_structure(["a", "b", "c"], [("a", "c"), ("b", "c")], [pair])
        (diag,) = exc.value.diagnostics
        assert diag.data == {"event": "c", "pair": pair}
        assert str(diag) == f"event 'c' is above conflicting events" \
            f" {pair[0]!r} ~ {pair[1]!r}"


def test_self_conflict_rejected():
    with pytest.raises(InvalidStructure) as exc:
        event_structure(["a"], conflicts=[("a", "a")])
    assert any(isinstance(d, InconsistentSingleton) for d in exc.value.diagnostics)


def test_event_above_both_sides_of_a_conflict_rejected():
    # d above both a and b cannot have a consistent singleton
    with pytest.raises(InvalidStructure) as exc:
        event_structure(["a", "b", "d"], causes=[("a", "d"), ("b", "d")],
                        conflicts=[("a", "b")])
    assert any(isinstance(d, InconsistentSingleton) for d in exc.value.diagnostics)


def test_unknown_event_in_cause():
    with pytest.raises(InvalidStructure) as exc:
        event_structure(["a"], causes=[("a", "z")])
    assert any(isinstance(d, UnknownEvent) for d in exc.value.diagnostics)


def test_relations_on_fork_shape():
    es = event_structure(["a", "b", "c", "d"],
                         causes=[("a", "c"), ("b", "c"), ("b", "d")])
    assert es.immediate_pairs() == fs(("a", "c"), ("b", "c"), ("b", "d"))
    assert es.concurrent_pairs() == fs(("a", "b"), ("a", "d"), ("c", "d"))


def test_immediate_skips_transitive_edges():
    es = event_structure(["a", "b", "c"],
                         causes=[("a", "b"), ("b", "c"), ("a", "c")])
    assert es.immediate_pairs() == fs(("a", "b"), ("b", "c"))


def test_down_closure():
    es = chain("a", "b", "c")
    assert es.down_closure({"c"}) == fs("a", "b", "c")
    assert es.down_closure({"b"}) == fs("a", "b")
    with pytest.raises(UnknownEvent):
        es.down_closure({"nope"})


def test_inconsistent_and_minimal_conflict_pairs():
    # b1 and b2 inherit a1's conflict with a2; only a1 ~ a2 is minimal
    es = event_structure(["a1", "a2", "b1", "b2", "c"],
                         causes=[("a1", "b1"), ("a2", "b2")],
                         conflicts=[("a2", "a1")])
    assert es.inconsistent_pairs() == [
        ("a1", "a2"), ("a1", "b2"), ("a2", "b1"), ("b1", "b2")]
    assert es.minimal_conflicts() == [("a1", "a2")]
    assert chain("a", "b").inconsistent_pairs() == []


def test_configuration_cap():
    es = event_structure(["a", "b", "c"])
    with pytest.raises(SizeBoundExceeded):
        es.configurations(EngineLimits(max_configs=4))


def test_configuration_cap_counts_the_empty_configuration():
    with pytest.raises(SizeBoundExceeded) as err:
        event_structure([]).configurations(EngineLimits(max_configs=0))
    assert err.value.data == {"cap": 0}
    one = event_structure(["a"])
    with pytest.raises(SizeBoundExceeded) as err:
        one.configurations(EngineLimits(max_configs=1))
    assert err.value.data == {"cap": 1}
    assert one.configurations(EngineLimits(max_configs=2)) == [fs(), fs("a")]


def test_restrict_keeps_reachable_order():
    es = event_structure(["a", "b", "c"], causes=[("a", "b"), ("b", "c")],
                         conflicts=[])
    sub = es.restrict({"a", "c"})
    assert sub.events == fs("a", "c")
    assert sub.leq("a", "c")
    assert sub.configurations() == [fs(), fs("a"), fs("a", "c")]


# ---- maps ---------------------------------------------------------------------


def test_map_valid_total_but_not_rigid():
    src = chain("a", "b")
    dst = event_structure(["x", "y"])
    m = ESMap(src, dst, {"a": "x", "b": "y"})
    rep = validate_map(m)
    assert rep.valid and rep.total and not rep.rigid


def test_map_rigid():
    src = chain("a", "b")
    dst = chain("x", "y")
    m = ESMap(src, dst, {"a": "x", "b": "y"})
    rep = validate_map(m)
    assert rep.valid and rep.total and rep.rigid


def test_map_image_must_be_configuration():
    src = event_structure(["a"])
    dst = chain("x", "y")
    m = ESMap(src, dst, {"a": "y"})
    rep = validate_map(m)
    assert not rep.valid
    assert any("not a configuration" in d.message for d in rep.diagnostics)


def test_map_local_injectivity():
    src = event_structure(["a", "b"])
    dst = event_structure(["x"])
    m = ESMap(src, dst, {"a": "x", "b": "x"})
    rep = validate_map(m)
    assert not rep.valid

    # conflicting events may share an image: they never co-occur
    src2 = event_structure(["a", "b"], conflicts=[("a", "b")])
    m2 = ESMap(src2, dst, {"a": "x", "b": "x"})
    assert validate_map(m2).valid


def test_partial_map_and_factorisation():
    src = chain("a", "b", "c")
    dst = chain("x", "y")
    m = ESMap(src, dst, {"a": "x", "c": "y"})
    rep = validate_map(m)
    assert rep.valid and not rep.total
    p, f1 = factorize(m)
    assert p.src is src and f1.dst is dst
    assert f1.is_total
    assert p.then(f1).mapping == m.mapping
    # the projection keeps the induced order
    assert f1.src.leq("a", "c")


def test_project_restricts_consistency():
    es = event_structure(["a", "b", "c"], conflicts=[("a", "b")])
    sub, p = project(es, {"a", "b"})
    assert not sub.is_consistent({"a", "b"})
    assert p.mapping == {"a": "a", "b": "b"}


# ---- isomorphism ----------------------------------------------------------------


def test_iso_chain():
    e1 = chain("a", "b", "c")
    e2 = chain("x", "y", "z")
    assert find_isomorphism(e1, e2) == {"a": "x", "b": "y", "c": "z"}


def test_iso_respects_labels():
    e1 = event_structure(["a", "b"])
    e2 = event_structure(["x", "y"])
    iso = find_isomorphism(e1, e2, label1={"a": 1, "b": 2},
                           label2={"y": 1, "x": 2})
    assert iso == {"a": "y", "b": "x"}
    assert find_isomorphism(e1, e2, label1={"a": 1, "b": 1},
                            label2={"x": 1, "y": 2}) is None


def test_iso_distinguishes_conflict_from_concurrency():
    e1 = event_structure(["a", "b"], conflicts=[("a", "b")])
    e2 = event_structure(["x", "y"])
    assert find_isomorphism(e1, e2) is None


def test_iso_needs_full_consistency_family_match():
    # pairwise consistency agrees, three-way does not
    e1 = event_structure(["a", "b", "c"],
                         consistent=[{"a", "b"}, {"b", "c"}, {"a", "c"}])
    e2 = event_structure(["x", "y", "z"])
    assert find_isomorphism(e1, e2) is None


def test_iso_budget():
    e1 = event_structure(list("abcdef"))
    e2 = event_structure(list("uvwxyz"))
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(e1, e2, budget=0)


def test_map_composition_needs_meeting_endpoints():
    a = event_structure(["a"])
    b = event_structure(["b"])
    f = ESMap(a, b, {"a": "b"})
    assert f.then(ESMap(b, a, {"b": "a"})).mapping == {"a": "a"}
    with pytest.raises(EndpointMismatch):
        f.then(ESMap(a, b, {"a": "b"}))


def test_unknown_events_and_uncovered_events_are_reported():
    es = chain("a", "b")
    with pytest.raises(UnknownEvent) as err:
        es.below("z")
    assert err.value.data == {"event": "z"}
    with pytest.raises(UnknownEvent) as err:
        es.restrict({"a", "z"})
    assert err.value.data == {"events": fs("z")}
    rep = validate_map(ESMap(es, es, {"a": "a", "b": "b", "z": "a"}))
    assert [(type(d), d.data) for d in rep.diagnostics] \
        == [(UnknownEvent, {"event": "z"})]
    with pytest.raises(InvalidStructure) as err:
        event_structure(["a", "b"], consistent=[["a"]])
    assert [(type(d), d.data) for d in err.value.diagnostics] \
        == [(InconsistentSingleton, {"event": "b"})]
