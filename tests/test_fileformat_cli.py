"""The .esg text format and the esg command line driver."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgames import cli
from esgames import fixtures as fx
from esgames.errors import ParseError
from esgames.fileformat import (Definition, Workspace, export_dot, parse,
                                parse_file, print_workspace)
from esgames.games import MINUS, PLUS, game
from esgames.randgen import (random_bare, random_game, random_stopping,
                             random_strategy)
from esgames.strategies import copycat_strategy, stop_of
from esgames.structures import event_structure
from esgames.testing import may_pass

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
DEADLOCK = str(FIXDIR / "hidden_deadlock.esg")
NEUTRAL = str(FIXDIR / "neutral_test.esg")


def run(*argv):
    return cli.main(list(argv))


# ---- parsing ------------------------------------------------------------------


def test_shipped_deadlock_file_has_five_definitions():
    ws = parse_file(DEADLOCK)
    assert [(d.kind, d.name) for d in ws] == [
        ("game", "GB"), ("game", "GC"), ("strategy", "sigma_or"),
        ("strategy", "sigma_b2"), ("bare", "tau_bc")]


def test_round_trip_is_stable_on_shipped_files():
    for path in (DEADLOCK, NEUTRAL):
        text = print_workspace(parse_file(path))
        assert print_workspace(parse(text)) == text


def test_duplicate_name_rejected():
    with pytest.raises(ParseError, match="duplicate name"):
        parse("game G { event a +; }\ngame G { event b +; }")


def test_unknown_reference_rejected():
    with pytest.raises(ParseError, match="unknown name"):
        parse("strategy s : nowhere { }")


_ONE_STRATEGY = "game G { event a +; }\nstrategy s : G { event t +; assign t -> a; }\n"


@pytest.mark.parametrize("text, message, line, col", [
    ("game G { event a x; }", "expected polarity + - or 0, got 'x'", 1, 18),
    ("game G {\n  event a +;\n  event a -;\n}", "event 'a' declared twice",
     3, 3),
    ("game G { widget a; }", "unknown item 'widget'", 1, 10),
    ("es E {\n  event a 0;\n  assign a -> a;\n}",
     "assign/stop do not belong in an es or game body", 1, 1),
    (_ONE_STRATEGY + "stopping S { stop { }; }",
     "stopping 'S' needs a `strategy REF;` item", 3, 1),
    (_ONE_STRATEGY + "stopping S { strategy s; event u +; }",
     "a stopping body holds only strategy and stop items", 3, 1),
])
def test_malformed_bodies_are_located(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == f"{message} at {line}:{col}"
    assert err.value.data == {"line": line, "col": col}


def test_receptivity_violation_carries_location():
    text = """game H {
  event req -;
  event ack +;
}
strategy sluggish : H {
  event a +;
  assign a -> ack;
}
"""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "sluggish" in str(err.value)
    assert err.value.line == 5


def test_syntax_error_position():
    with pytest.raises(ParseError, match="at 2:9"):
        parse("game G {\n  event &;\n}")


def test_cause_cycle_forwarded():
    with pytest.raises(ParseError, match="invalid 'G'"):
        parse("game G { event a +; event b +; cause a < b; cause b < a; }")


def test_stop_item_outside_stopping_rejected():
    with pytest.raises(ParseError, match="stopping definitions"):
        parse("game G { event a +; }\n"
              "strategy s : G { event x +; assign x -> a; stop { x }; }")


def test_stopping_member_must_be_configuration():
    text = """game G { event a +; event b +; cause a < b; }
strategy s : G {
  event x +;
  event y +;
  cause x < y;
  assign x -> a;
  assign y -> b;
}
stopping bad { strategy s; stop { y }; }
"""
    with pytest.raises(ParseError, match="invalid 'bad'"):
        parse(text)


def test_stopping_over_wrong_kind():
    with pytest.raises(ParseError, match="expected strategy"):
        parse("game G { event a +; }\nstopping s { strategy G; stop { }; }")


def test_round_trip_is_a_fixpoint_on_random_strategies():
    # strategies, bare strategies and stopping strategies, each emitted as
    # esg emits a computed result, print back to the same text
    rng = random.Random(505)
    for i in range(30):
        a, b = random_game(rng, 3), random_game(rng, 3)
        bare = random_bare(rng, a, b)
        out = cli._Out(Workspace())
        out.strategy_def(random_strategy(rng, a, b), "sigma")
        out.strategy_def(bare, "bare")
        out.stopping_def(random_stopping(rng, random_strategy(rng, a, b)),
                         "stopping")
        out.stopping_def(stop_of(bare), "bare_st")
        text = print_workspace(out.ws)
        assert print_workspace(parse(text)) == text, i


def test_consistent_blocks_survive_round_trip():
    text = """es votes {
  event x +;
  event y +;
  event z +;
  consistent { x y };
  consistent { x z };
  consistent { y z };
}
"""
    ws = parse(text)
    es = ws.get("votes").obj.es
    assert not es.is_consistent({"x", "y", "z"})
    assert es.is_consistent({"x", "y"})
    printed = print_workspace(ws)
    assert printed.count("consistent {") == 3
    assert print_workspace(parse(printed)) == printed


def test_map_parse_and_print():
    text = """game A { event a +; event b +; }
game B { event m +; }
map f : A -> B {
  a -> m;
  b -> _;
}
"""
    ws = parse(text)
    m = ws.get("f").obj
    assert m.mapping == {"a": "m"}
    printed = print_workspace(ws)
    assert "b -> _;" in printed
    assert print_workspace(parse(printed)) == printed


def test_names_led_by_an_underscore_print_and_parse_back():
    # _a and _1 are identifiers, as the printer writes them; a lone _ stays
    # the symbol of an empty middle or an unmapped event, so an event named
    # _ is printed under another name
    g = game(event_structure(["_a", "_1", "b"], causes=[("_a", "b")]),
             {"_a": PLUS, "_1": MINUS, "b": PLUS})
    ws = Workspace()
    ws.add(Definition("game", "G", g))
    printed = print_workspace(ws)
    assert "event _a +;" in printed and "cause _a < b;" in printed
    assert parse(printed).get("G").obj == g
    assert print_workspace(parse(printed)) == printed
    lone = game(event_structure(["_", "b"]), {"_": PLUS, "b": MINUS})
    ws = Workspace()
    ws.add(Definition("game", "G", lone))
    printed = print_workspace(ws)
    assert "event _ " not in printed
    assert len(parse(printed).get("G").obj.events) == 2


def test_map_local_injectivity_checked():
    with pytest.raises(ParseError, match="invalid 'f'"):
        parse("game A { event a +; event b +; }\n"
              "game B { event m +; }\n"
              "map f : A -> B { a -> m; b -> m; }")


def test_bare_with_named_middle():
    text = """game GC { event c +; }
es step { event w 0; }
bare probe : GC | step | GC {
  event u -;
  event w 0;
  event v +;
  cause u < w;
  cause w < v;
  assign u -> a.c;
  assign w -> n.w;
  assign v -> b.c;
}
"""
    ws = parse(text)
    bs = ws.get("probe").obj
    assert bs.assigned("w") == (2, "w")
    assert not bs.is_strategy
    printed = print_workspace(ws)
    assert print_workspace(parse(printed)) == printed


def test_middle_must_be_neutral():
    with pytest.raises(ParseError, match="all neutral"):
        parse("game GC { event c +; }\n"
              "es loud { event w +; }\n"
              "bare b : GC | loud | GC { }")


# ---- DOT export ----------------------------------------------------------------


def test_dot_single_move_game():
    ws = parse("game G { event m +; }")
    dot = export_dot(ws.get("G"))
    assert dot.count("[label=") == 1
    assert "style=filled" in dot
    assert "->" not in dot.replace("dir=none", "")


def test_dot_three_event_test_shape():
    ws = parse_file(NEUTRAL)
    dot = export_dot(ws.get("TAU"))
    assert dot.count("[label=") == 3
    solid = [ln for ln in dot.splitlines() if "->" in ln and "dashed" not in ln]
    dashed = [ln for ln in dot.splitlines() if "dashed" in ln]
    assert len(solid) == 1 and len(dashed) == 1
    assert "shape=ellipse" in dot


def test_dot_copycat_of_buttons():
    cc = copycat_strategy(fx.buttons())
    dot = export_dot(Definition("bare", "cc", cc))
    assert dot.count("[label=") == 4
    solid = [ln for ln in dot.splitlines() if "->" in ln and "dashed" not in ln]
    assert len(solid) == 2


# ---- command line ----------------------------------------------------------------


def test_cli_check_lists_definitions(capsys):
    assert run("-f", DEADLOCK, "check") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ok GB: game, 2 events"
    assert len(out.splitlines()) == 5


def test_cli_may_preorder_true(capsys):
    assert run("-f", DEADLOCK, "may-preorder", "sigma_b2", "sigma_or") == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_may_preorder_false_prints_gap(capsys):
    assert run("-f", DEADLOCK, "may-preorder", "sigma_or", "sigma_b2") == 1
    out = capsys.readouterr().out
    assert "false" in out and "gap trace: b1" in out
    assert "realised by { s1 }" in out


def test_cli_must_verdicts(capsys):
    assert run("-f", NEUTRAL, "must", "S1", "TAU") == 0
    assert capsys.readouterr().out.strip() == "pass"
    assert run("-f", NEUTRAL, "must", "S2", "TAU") == 1
    out = capsys.readouterr().out
    assert out.startswith("fail")
    assert "counterexample" in out


def test_cli_may_pass_with_witness(capsys):
    assert run("-f", NEUTRAL, "may", "S2", "TAU") == 0
    out = capsys.readouterr().out
    assert out.startswith("pass")
    assert "witness" in out


def test_cli_compose_writes_single_event_strategy(capsys, tmp_path):
    target = tmp_path / "composed.esg"
    assert run("-f", DEADLOCK, "compose", "tau_bc", "sigma_or",
               "--out", str(target)) == 0
    ws = parse_file(str(target))
    d = ws.get("tau_bc_after_sigma_or")
    assert d.kind == "strategy"
    assert len(d.obj.source.events) == 1


def test_cli_st_shows_hidden_deadlock(capsys):
    assert run("-f", DEADLOCK, "st", "tau_bc") == 0
    out = capsys.readouterr().out
    assert out.count("stop {") == 4
    assert print_workspace(parse(out)) == out


def test_cli_interact_output_reparses(capsys):
    assert run("-f", DEADLOCK, "interact", "tau_bc", "sigma_or") == 0
    out = capsys.readouterr().out
    ws = parse(out)
    bs = ws.get("tau_bc_with_sigma_or").obj
    assert len(bs.source.events) == 3
    assert not bs.is_strategy


def test_cli_synth_may_separates(capsys):
    assert run("-f", DEADLOCK, "synth-may", "sigma_or", "sigma_b2") == 0
    out = capsys.readouterr().out
    assert "sigma_or passes, sigma_b2 fails" in out
    body = out[out.index("game"):]
    test = parse(body).get("sep_sigma_or_sigma_b2").obj
    assert may_pass(fx.press_either(), test)
    assert not may_pass(fx.press_b2(), test)


def test_cli_synth_when_preorder_holds(capsys):
    assert run("-f", DEADLOCK, "synth-may", "sigma_b2", "sigma_or") == 1
    assert "no gap" in capsys.readouterr().out


def test_cli_must_preorder_requires_stopping(capsys):
    assert run("-f", DEADLOCK, "must-preorder", "sigma_or", "sigma_b2") == 2
    assert "stopping" in capsys.readouterr().err


def test_cli_par_and_dual(capsys):
    assert run("-f", DEADLOCK, "par", "GB", "GC") == 0
    out = capsys.readouterr().out
    assert "game GB_par_GC {" in out
    assert out.count("event") == 3 and "event c +;" in out
    assert run("-f", DEADLOCK, "dual", "GB") == 0
    out = capsys.readouterr().out
    assert "event b1 -;" in out and "event b2 -;" in out


def test_cli_configs_and_relations(capsys):
    assert run("-f", DEADLOCK, "configs", "sigma_or") == 0
    assert capsys.readouterr().out == "{ }\n{ s1 }\n{ s2 }\n"
    assert run("-f", DEADLOCK, "relations", "GB") == 0
    assert capsys.readouterr().out == "concurrent b1 | b2\n"
    assert run("-f", NEUTRAL, "configs", "S2") == 0
    assert capsys.readouterr().out == "{ }\n{ s }\n"


def test_cli_copycat_round_trip(capsys, tmp_path):
    target = tmp_path / "cc.esg"
    assert run("-f", DEADLOCK, "copycat", "GB", "--out", str(target)) == 0
    ws = parse_file(str(target))
    cc = ws.get("cc_GB").obj
    assert len(cc.source.events) == 4
    assert cc.is_strategy


def test_cli_saturate(capsys):
    assert run("-f", DEADLOCK, "saturate", "sigma_or") == 0
    out = capsys.readouterr().out
    assert "stop { s1 };" in out and "stop { s2 };" in out
    assert "stop { };" not in out


def test_cli_rigid_image_merges_duplicate_histories(capsys, tmp_path):
    text = """game climb2 { event g1 +; event g2 +; cause g1 < g2; }
strategy two_runs : climb2 {
  event a1 +;
  event b1 +;
  event b2 +;
  cause b1 < b2;
  conflict a1 ~ b1;
  assign a1 -> g1;
  assign b1 -> g1;
  assign b2 -> g2;
}
stopping runs { strategy two_runs; stop { a1 }; stop { b1 b2 }; }
"""
    path = tmp_path / "climb.esg"
    path.write_text(text)
    assert run("-f", str(path), "rigid-image", "runs") == 0
    out = capsys.readouterr().out
    ws = parse(out)
    ri = ws.get("runs_ri").obj
    assert len(ri.strat.source.events) == 2
    assert [sorted(s) for s in ri.sorted_stopping()] == [["e1"], ["e1", "e2"]]


def test_cli_unknown_name_exits_2(capsys):
    assert run("-f", DEADLOCK, "configs", "nosuch") == 2
    assert "unknown name" in capsys.readouterr().err


def test_cli_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.esg"
    bad.write_text("game G { event a &; }")
    assert run("-f", str(bad), "check") == 2
    err = capsys.readouterr().err
    assert "bad.esg" in err and "at 1:18" in err


def test_cli_mixed_compose_exits_2(capsys):
    assert run("-f", NEUTRAL, "compose", "S2", "play_c") == 2
    assert "mixture" in capsys.readouterr().err


def test_cli_dot_command(capsys):
    assert run("-f", DEADLOCK, "dot", "GC") == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "GC"')
    assert out.count("[label=") == 1


def test_cli_import_leaves_networkx_out():
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, esgames.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


# the layers only some commands run, and dataclasses, which none needs
DEFERRED = ("esgames.interaction", "esgames.testing", "esgames.rigid",
            "dataclasses")


@pytest.mark.parametrize("command, loaded", [
    ("check", ""),
    ("configs sigma_or", ""),
    ("st tau_bc", ""),
    ("dot sigma_or", ""),
    ("copycat GB", ""),
    ("compose tau_bc sigma_or", "esgames.interaction"),
    ("rigid-image sigma_or", "esgames.rigid"),
    ("may-preorder sigma_b2 sigma_or", "esgames.testing"),
    ("must sigma_or tau_bc", "esgames.testing"),
    ("synth-may sigma_or sigma_b2", "esgames.testing"),
])
def test_cli_commands_load_only_the_layers_they_run(command, loaded):
    argv = ["-f", "fixtures/hidden_deadlock.esg", *command.split()]
    code = ("import sys; from esgames.cli import main; code = main(sys.argv[1:]);"
            f" print(code, *sorted(set({DEFERRED!r}) & set(sys.modules)))")
    root = FIXDIR.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=root,
                         env=env, check=True, capture_output=True, text=True,
                         timeout=60)
    got, *modules = out.stdout.splitlines()[-1].split()
    golden = (root / "tests" / "golden" / "esg_fixtures.txt").read_text()
    want = next(line.split()[0] for line in golden.splitlines()
                if line.split(" ", 3)[3] == " ".join(argv))
    assert (got, modules) == (want, loaded.split())


def test_cli_strategy_only_commands_refuse_bare_tests(capsys):
    # TAU has a neutral event: a usage error with a message, exit code 2
    for command in ("saturate", "rigid-image"):
        assert run("-f", NEUTRAL, command, "TAU") == 2
        assert "neutral-free strategy" in capsys.readouterr().err



def test_cli_configs_of_a_map_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "map.esg"
    path.write_text("game A { event a +; }\nmap f : A -> A { a -> a; }\n")
    assert run("-f", str(path), "configs", "f") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: configs expects a structure or strategy name\n"


# ---- exact output text ------------------------------------------------------------

# Canonical text of one definition of each strategy kind: a strategy, a bare
# strategy with a named middle, and a test with n. and tick targets.
CANONICAL = """game GC {
  event c +;
}

es step {
  event w 0;
}

strategy play : GC {
  event s +;
  assign s -> c;
}

bare probe : GC | step | GC {
  event u -;
  event v +;
  event w 0;
  cause u < w;
  cause w < v;
  assign u -> a.c;
  assign v -> b.c;
  assign w -> n.w;
}

test TAU : GC {
  event tick +;
  event u -;
  event w 0;
  cause u < w;
  conflict tick ~ w;
  assign tick -> tick;
  assign u -> g.c;
  assign w -> n.w;
}
"""


def test_printer_writes_each_strategy_kind_exactly():
    assert print_workspace(parse(CANONICAL)) == CANONICAL


def test_dot_labels_each_strategy_kind_exactly():
    ws = parse(CANONICAL)
    assert export_dot(ws.get("play")) == """digraph "play" {
  "s" [label="s\\nc", shape=box, style=filled, fillcolor="#bbbbbb"];
}
"""
    assert export_dot(ws.get("probe")) == """digraph "probe" {
  "u" [label="u\\na.c", shape=box];
  "v" [label="v\\nb.c", shape=box, style=filled, fillcolor="#bbbbbb"];
  "w" [label="w\\nn.w", shape=ellipse];
  "u" -> "w";
  "w" -> "v";
}
"""
    assert export_dot(ws.get("TAU")) == """digraph "TAU" {
  "tick" [label="tick\\ntick", shape=box, style=filled, fillcolor="#bbbbbb"];
  "u" [label="u\\ng.c", shape=box];
  "w" [label="w\\nn.w", shape=ellipse];
  "u" -> "w";
  "tick" -> "w" [style=dashed, dir=none];
}
"""


def test_cli_par_suffixes_clashing_names(capsys):
    assert run("-f", DEADLOCK, "par", "GB", "GB") == 0
    assert capsys.readouterr().out == """game GB_par_GB {
  event b1 +;
  event b1_2 +;
  event b2 +;
  event b2_2 +;
}
"""


def test_cli_interact_numbers_computed_events(capsys):
    assert run("-f", DEADLOCK, "interact", "tau_bc", "sigma_or") == 0
    assert capsys.readouterr().out == """game tau_bc_with_sigma_or_A {
}

es tau_bc_with_sigma_or_mid {
  event e_2_b1 0;
  event e_2_b2 0;
}

game GC {
  event c +;
}

bare tau_bc_with_sigma_or : tau_bc_with_sigma_or_A | tau_bc_with_sigma_or_mid | GC {
  event e1 0;
  event e2 0;
  event e3 +;
  cause e2 < e3;
  conflict e1 ~ e2;
  assign e1 -> n.e_2_b1;
  assign e2 -> n.e_2_b2;
  assign e3 -> b.c;
}
"""


@pytest.mark.parametrize("body, message", [
    ("strategy s : G { event x +; assign x -> a.m; }",
     "assign target a.m not allowed here (use plain) at 2:41"),
    ("bare s : G | _ | G { event x +; assign x -> m; }",
     "assign target m not allowed here (use a/n/b) at 2:45"),
    ("test s : G { event x -; assign x -> b.m; }",
     "assign target b.m not allowed here (use g/n/plain) at 2:37"),
    ("test s : G { event x -; assign x -> m; }",
     "bare target 'm'; use g. n. or tick at 2:37"),
])
def test_wrong_assign_prefix_message_and_position(body, message):
    with pytest.raises(ParseError) as err:
        parse("game G { event m +; }\n" + body)
    assert str(err.value) == message


@pytest.mark.parametrize("body, message", [
    ("strategy s : G { event x +;\n  assign x -> m;\n  assign x -> m; }",
     "event 'x' assigned twice at 4:3"),
    ("strategy s : G { event x +; assign x -> m; }\n"
     "stopping k {\n  strategy s;\n  strategy s;\n  stop { x }\n}",
     "strategy item given twice at 5:3"),
])
def test_repeated_item_message_and_position(body, message):
    with pytest.raises(ParseError) as err:
        parse("game G { event m +; }\n" + body)
    assert str(err.value) == message


def test_cli_cap_flags_are_the_two_engine_caps(capsys):
    flags = {s for action in cli._build_parser()._actions
             for s in action.option_strings if s.startswith("--max-")}
    assert flags == {"--max-configs", "--max-primes"}
    readme = " ".join((FIXDIR.parent / "README.md").read_text().split())
    sentence = re.search(r"[^.]*tighten the engine caps", readme).group()
    assert set(re.findall(r"--max-[a-z-]+", sentence)) == flags
    with pytest.raises(SystemExit) as exit_:
        run("--max-test-size", "3", "check")
    assert exit_.value.code == 2
    assert "esg: error:" in capsys.readouterr().err
    for flag in sorted(flags):
        for bad in ("-1", "x"):
            with pytest.raises(SystemExit) as exit_:
                run(flag, bad, "-f", DEADLOCK, "configs", "sigma_or")
            assert exit_.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"esg: error: argument {flag}: expected an integer of at least"
                f" 0, got {bad!r}\n")
    assert run("--max-configs", "0", "-f", DEADLOCK, "check") == 2
    assert "more than 0 configurations" in capsys.readouterr().err


# ---- unreadable input and stray characters -------------------------------------------


def test_non_ascii_letter_is_an_unexpected_character(tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse("game G { event é +; }")
    assert str(err.value) == "unexpected character 'é' at 1:16"
    path = tmp_path / "accent.esg"
    path.write_text("game G { event é +; }", encoding="utf-8")
    assert run("-f", str(path), "check") == 2
    assert capsys.readouterr().err == (
        f"error: {path}: unexpected character 'é' at 1:16\n")


# grammar words, so that draws reach past the tokenizer, and a few strays
WORDS = ("es game map strategy bare test stopping event cause conflict"
         " consistent assign stop tick G H a b c g.a n.w a.a b.a { } ; : |"
         " ~ < -> + - 0 _ . é 1 #").split()


def _one_replaced(path):
    text = Path(path).read_text()
    return st.tuples(st.integers(0, len(text) - 1), st.characters()).map(
        lambda ic: text[:ic[0]] + ic[1] + text[ic[0] + 1:])


@given(st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(WORDS), max_size=24).map(" ".join),
                 _one_replaced(DEADLOCK), _one_replaced(NEUTRAL)))
@settings(max_examples=150, deadline=None)
def test_parse_returns_or_raises_a_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


def _latin1_file(tmp):
    path = tmp / "latin1.esg"
    path.write_bytes(b"game G { event \xe9 +; }")
    return path


@pytest.mark.parametrize("make", [
    lambda tmp: tmp / "missing.esg",
    lambda tmp: tmp,
    _latin1_file,
], ids=["missing", "directory", "invalid-utf8"])
def test_cli_unreadable_file_is_a_usage_error(tmp_path, capsys, make):
    path = make(tmp_path)
    assert run("-f", str(path), "check") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["dual", "GB"], ["dot", "GB"]])
def test_cli_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys,
                                                           command):
    target = tmp_path / "nowhere" / "out.txt"
    assert run("-f", DEADLOCK, *command, "--out", str(target)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {target}: No such file or directory\n"


# ---- exact output of paths the fixtures do not reach ---------------------------------

def _stopping_pair_file(tmp_path):
    text = Path(DEADLOCK).read_text() + """
stopping S {
  strategy sigma_or;
  stop { s1 };
  stop { s2 };
}

stopping T {
  strategy tau_bc;
  stop { t1 };
  stop { t2 t3 };
}
"""
    path = tmp_path / "stopping_pair.esg"
    path.write_text(text)
    return str(path)


def test_cli_compose_of_stopping_definitions_exactly(tmp_path, capsys):
    assert run("-f", _stopping_pair_file(tmp_path), "compose", "T", "S") == 0
    assert capsys.readouterr().out == """game GC {
  event c +;
}

strategy T_after_S_strat : GC {
  event e1 +;
  assign e1 -> c;
}

stopping T_after_S {
  strategy T_after_S_strat;
  stop { };
  stop { e1 };
}
"""


def test_cli_interact_of_stopping_definitions_exactly(tmp_path, capsys):
    # t1 answers s1 and stops; t2 answers s2 and t3 follows
    assert run("-f", _stopping_pair_file(tmp_path), "interact", "T", "S") == 0
    out = capsys.readouterr().out
    assert out == """game T_with_S_strat_A {
}

es T_with_S_strat_mid {
  event e_2_b1 0;
  event e_2_b2 0;
}

game GC {
  event c +;
}

bare T_with_S_strat : T_with_S_strat_A | T_with_S_strat_mid | GC {
  event e1 0;
  event e2 0;
  event e3 +;
  cause e2 < e3;
  conflict e1 ~ e2;
  assign e1 -> n.e_2_b1;
  assign e2 -> n.e_2_b2;
  assign e3 -> b.c;
}

stopping T_with_S {
  strategy T_with_S_strat;
  stop { e1 };
  stop { e2 e3 };
}
"""
    assert print_workspace(parse(out)) == out


def test_cli_relations_lists_causes_conflicts_and_concurrency(tmp_path,
                                                              capsys):
    # b inherits a's conflict with c, so only a ~ c is minimal
    path = tmp_path / "relations.esg"
    path.write_text("game G { event a +; event b +; event c -; event d -;"
                    " cause a < b; conflict a ~ c; }")
    assert run("-f", str(path), "relations", "G") == 0
    assert capsys.readouterr().out == (
        "cause a < b\nconflict a ~ c\n"
        "concurrent a | d\nconcurrent b | d\nconcurrent c | d\n")


def test_cli_check_counts_map_entries_and_stopping_configurations(tmp_path,
                                                                   capsys):
    path = tmp_path / "map.esg"
    path.write_text("game A { event a +; }\nmap f : A -> A { a -> a; }\n")
    assert run("-f", str(path), "check", "f") == 0
    assert capsys.readouterr().out == "ok f: map, 1 entries\n"
    assert run("-f", NEUTRAL, "check", "S1", "S2") == 0
    assert capsys.readouterr().out == (
        "ok S1: stopping, 1 stopping configurations\n"
        "ok S2: stopping, 2 stopping configurations\n")


def test_cli_dot_renders_no_map(tmp_path, capsys):
    path = tmp_path / "map.esg"
    path.write_text("game A { event a +; }\nmap f : A -> A { a -> a; }\n")
    with pytest.raises(ParseError) as err:
        export_dot(parse_file(path).get("f"))
    assert err.value.data == {"line": None, "col": None}
    assert run("-f", str(path), "dot", "f") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot render a map as DOT\n"


def test_cli_rigid_image_of_a_plain_strategy_exactly(capsys):
    assert run("-f", DEADLOCK, "rigid-image", "sigma_or") == 0
    assert capsys.readouterr().out == """game GB {
  event b1 +;
  event b2 +;
}

strategy sigma_or_ri : GB {
  event e1 +;
  event e2 +;
  conflict e1 ~ e2;
  assign e1 -> b1;
  assign e2 -> b2;
}
"""


def test_cli_dot_out_writes_the_rendering(tmp_path, capsys):
    target = tmp_path / "gc.dot"
    assert run("-f", DEADLOCK, "dot", "GC", "--out", str(target)) == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    assert target.read_text() == export_dot(parse_file(DEADLOCK).get("GC"))


def test_cli_stopping_member_errors_do_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "fork.esg"
    path.write_text("""game G { event x +; event y +; event z +;
         cause x < y; cause x < z; }
strategy s : G { event x +; event y +; event z +; cause x < y; cause x < z;
                 assign x -> x; assign y -> y; assign z -> z; }
stopping S { strategy s; stop { y }; stop { z }; stop { y z }; }
""")
    src = Path(cli.__file__).resolve().parent.parent
    errs = set()
    for seed in range(6):
        got = subprocess.run(
            [sys.executable, "-m", "esgames.cli", "-f", str(path), "check"],
            cwd=src, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert got.returncode == 2
        errs.add(got.stderr)
    assert len(errs) == 1
    members = re.findall(r"stopping member (\(.*?\)) is not", errs.pop())
    assert members == ["('y',)", "('z',)", "('y', 'z')"]
