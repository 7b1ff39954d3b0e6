"""Pinned esg output on the shipped fixtures.

Every command runs on every definition, and every two-name command on every
ordered pair of definitions, of each fixture, with and without
--max-configs 2. tests/golden/esg_fixtures.txt holds one line per command:
its argv, exit code and short SHA-256 digests of stdout and stderr. A change
that keeps the printed bytes keeps this file.

Regenerate the file with `PYTHONPATH=src python tests/test_esg_golden.py`.
"""

import contextlib
import hashlib
import io
import os
import shlex
from pathlib import Path

from esgames import cli
from esgames.fileformat import parse_file

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "esg_fixtures.txt"
FIXTURES = ("fixtures/hidden_deadlock.esg", "fixtures/neutral_test.esg")
ONE_NAME = ("check", "configs", "relations", "copycat", "dual", "st",
            "saturate", "rigid-image", "dot")
TWO_NAMES = ("par", "compose", "interact", "may", "must", "may-preorder",
             "must-preorder", "synth-may", "synth-must")


def commands():
    """The argv of every pinned command, paths relative to the repo root."""
    out = []
    for caps in ((), ("--max-configs", "2")):
        for path in FIXTURES:
            names = [d.name for d in parse_file(ROOT / path)]
            head = ["-f", path, *caps]
            out.append(head + ["check"])
            out += [head + [cmd, n] for cmd in ONE_NAME for n in names]
            out += [head + [cmd, a, b] for cmd in TWO_NAMES
                    for a in names for b in names]
    return out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run(argv):
    """(golden line, stdout, stderr) of one in-process esg call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    line = (f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())}"
            f" {shlex.join(argv)}")
    return line, out.getvalue(), err.getvalue()


def test_esg_output_matches_the_golden_file(monkeypatch):
    monkeypatch.chdir(ROOT)
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    argvs = commands()
    assert [shlex.split(w.split(" ", 3)[3]) for w in want] == argvs, (
        "the pinned command list changed: regenerate the golden file")
    for argv, expected in zip(argvs, want):
        line, out, err = run(argv)
        assert line == expected, (
            f"esg {shlex.join(argv)}\nwant: {expected}\ngot:  {line}\n"
            f"--- stdout ---\n{out}--- stderr ---\n{err}")


if __name__ == "__main__":
    os.chdir(ROOT)
    lines = [run(argv)[0] for argv in commands()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)} ({len(lines)} commands)")
