"""Rigid collapse of strategy sources and the stopping-set lint."""

import pytest

from esgames import fixtures as fx
from esgames.errors import BadArgument
from esgames.rigid import (
    DOMINATED_MAXIMAL_NOT_STOPPING,
    NO_STOPPING_EXTENSION,
    PLUS_MAXIMAL_NOT_STOPPING,
    STOPPING_NOT_PLUS_MAXIMAL,
    PointedAugmentation,
    lint_stopping,
    prime_of,
    rigid_image,
    rigid_image_stopping,
)
from esgames.strategies import (
    StoppingStrategy,
    copycat_strategy,
    saturate_stopping,
    stop_of,
    validate_two_cell,
)
from esgames.structures import find_isomorphism
from esgames.testing import finite_traces, must_preorder, stopping_traces


def fs(*xs):
    return frozenset(xs)


def strat_iso(a, b):
    return find_isomorphism(a.source.es, b.source.es,
                            label1=a.sigma.mapping,
                            label2=b.sigma.mapping) is not None


def test_pointed_augmentation_checks_its_shape():
    with pytest.raises(BadArgument) as e:
        PointedAugmentation(fs("a"), frozenset(), "b")
    assert e.value.data == {"top": "b", "carrier": fs("a")}
    with pytest.raises(BadArgument) as e:
        PointedAugmentation(fs("a", "b"), frozenset(), "b")
    assert e.value.data == {"top": "b", "order": frozenset()}
    cyclic = fs(("a", "b"), ("b", "a"))
    with pytest.raises(BadArgument) as e:
        PointedAugmentation(fs("a", "b"), cyclic, "b")
    assert e.value.data == {"order": cyclic}
    aug = PointedAugmentation(fs("a", "b"), fs(("a", "b")), "b")
    assert aug.restrict("a") == PointedAugmentation(fs("a"), frozenset(), "a")


def test_pointed_augmentations_are_immutable_values():
    aug = PointedAugmentation(fs("a", "b"), fs(("a", "b")), "b")
    same = PointedAugmentation(fs("a", "b"), fs(("a", "b")), "b")
    assert aug == same and len({aug, same}) == 1
    assert aug != (aug.carrier, aug.order, aug.top)
    assert repr(aug) == "aug('b'; 'a'<'b')"
    with pytest.raises(AttributeError):
        aug.top = "a"
    with pytest.raises(AttributeError):
        del aug.top
    assert aug.top == "b"


def test_prime_records_the_image_history():
    relay = fx.relay_b2_to_c()
    p = prime_of(relay, "t3")
    assert p.carrier == fs((1, "b2"), (3, "c"))
    assert p.order == fs(((1, "b2"), (3, "c")))
    assert p.top == (3, "c")


def test_equal_branches_merge():
    s0, f = rigid_image(fx.double_press_c())
    assert len(s0.source.events) == 1
    assert f["x1"] == f["x2"]
    assert validate_two_cell(f, fx.double_press_c(), s0, kind="rigid_epi") == []
    assert strat_iso(s0, fx.press_c())


def test_distinct_histories_stay_apart():
    cc = copycat_strategy(fx.one_shot())
    c0, f = rigid_image(cc)
    assert len(c0.source.events) == 2
    assert strat_iso(c0, cc)
    assert validate_two_cell(f, cc, c0, kind="rigid_epi") == []


def test_non_rigid_strategy_can_be_its_own_image():
    relay = fx.relay_b2_to_c()
    r0, _ = rigid_image(relay)
    assert strat_iso(r0, relay)
    br = fx.two_by_two_branching()
    b0, _ = rigid_image(br)
    assert strat_iso(b0, br)


def test_image_is_idempotent():
    for st in (fx.double_press_c(), fx.relay_b2_to_c(), fx.press_either(),
               stop_of(fx.ladder_two_stalls()).strat):
        s0, f0 = rigid_image(st)
        s1, f1 = rigid_image(s0)
        assert strat_iso(s0, s1)
        # collapsing first changes nothing about the final image
        composed = {s: f1[f0[s]] for s in st.source.events}
        assert validate_two_cell(composed, st, s1, kind="rigid_epi") == []


def test_rejects_sources_with_internal_steps():
    with pytest.raises(AssertionError):
        rigid_image(fx.shot_or_stall())


def test_traces_survive_the_collapse():
    cases = [
        fx.chain_shadow(),
        saturate_stopping(fx.double_press_c()),
        saturate_stopping(fx.two_by_two_branching()),
        stop_of(fx.ladder_one_stall()),
        stop_of(fx.shot_or_stall()),
    ]
    for st in cases:
        ri = rigid_image_stopping(st)
        assert finite_traces(st.strat) == finite_traces(ri.strat)
        assert stopping_traces(st) == stopping_traces(ri)
        assert must_preorder(st, ri) == (True, None)
        assert must_preorder(ri, st) == (True, None)


def test_shadow_image_is_the_bare_chain():
    from esgames.games import PLUS, Polarised
    from esgames.strategies import in_game_strategy
    from esgames.structures import event_structure

    sh = fx.chain_shadow()
    ri = rigid_image_stopping(sh)
    assert len(ri.strat.source.events) == 2
    assert sorted(len(y) for y in ri.stopping) == [1, 2]
    climb = in_game_strategy(
        Polarised(event_structure(["q1", "q2"], causes=[("q1", "q2")]),
                  {"q1": PLUS, "q2": PLUS}),
        sh.strat.B, {"q1": "e1", "q2": "e2"})
    assert strat_iso(ri.strat, climb)


def test_lint_flags_only_the_transported_stop():
    sh = fx.chain_shadow()
    assert lint_stopping(sh) == []
    notes = lint_stopping(rigid_image_stopping(sh))
    assert [n.code for n in notes] == [STOPPING_NOT_PLUS_MAXIMAL]
    assert notes[0].advisory


def test_lint_axioms_fire_on_bad_stopping_sets():
    from esgames.games import PLUS, Polarised
    from esgames.strategies import in_game_strategy
    from esgames.structures import event_structure

    g = fx.two_lamps()
    src = Polarised(event_structure(["x", "y"]), {"x": PLUS, "y": PLUS})
    play = in_game_strategy(src, g, {"x": "a", "y": "b"})
    st = StoppingStrategy(play, {fs("x")})
    codes = {f.code for f in lint_stopping(st)}
    assert NO_STOPPING_EXTENSION in codes  # {x, y} extends to nothing stopping
    assert PLUS_MAXIMAL_NOT_STOPPING in codes
    assert STOPPING_NOT_PLUS_MAXIMAL in codes  # {x} alone can still add y

    dominated = StoppingStrategy(
        fx.press_either(), {fs(), fs("s1"), fs("s2")})
    codes = {f.code for f in lint_stopping(dominated)}
    assert DOMINATED_MAXIMAL_NOT_STOPPING not in codes
    assert NO_STOPPING_EXTENSION not in codes

    gappy = StoppingStrategy(play, {fs(), fs("x", "y")})
    codes = {f.code for f in lint_stopping(gappy)}
    assert DOMINATED_MAXIMAL_NOT_STOPPING not in codes  # nothing +-max below
    half = StoppingStrategy(
        fx.two_by_two_id(), {fs(), fs("m1", "p1", "m2", "p2")})
    codes = {f.code for f in lint_stopping(half)}
    assert DOMINATED_MAXIMAL_NOT_STOPPING in codes  # {m1, p1} sits below


def test_stopping_images_transport_pointwise():
    st = stop_of(fx.ladder_two_stalls())
    ri = rigid_image_stopping(st)
    _, f = rigid_image(st.strat)
    assert ri.stopping == {frozenset(f[s] for s in y) for y in st.stopping}


def test_rigid_image_refuses_bare_strategies():
    with pytest.raises(BadArgument):
        rigid_image(fx.shot_after_step())
