"""Scale checks, each in a child process of its own under a 20 s timeout:
the structure builders on many independent conflicts, and, under a capped
address space, the pullback of a copycat square and the preorders on many
concurrent moves."""

import subprocess
import sys
from pathlib import Path

import pytest

import esgames

SRC = Path(esgames.__file__).resolve().parent.parent


def conflict_pairs(name, n):
    """A game of n independent conflicts x_i ~ y_i, Player moves only."""
    lines = [f"game {name} {{"]
    lines += [f"  event x{i} +;\n  event y{i} +;" for i in range(n)]
    lines += [f"  conflict x{i} ~ y{i};" for i in range(n)]
    return "\n".join(lines + ["}"]) + "\n"


# builders hand over families that are already antichains: n independent
# conflicts have 2^n maximal sets, and pruning them pairwise took over 20 s
# for both commands
@pytest.mark.parametrize("name, n, before, after", [
    ("conflicts15", 15, ["--max-configs", "10"], ["check"]),
    ("pairs7", 7, [], ["copycat", "pairs7"]),
])
def test_structure_builders_scale(tmp_path, name, n, before, after):
    path = tmp_path / f"{name}.esg"
    path.write_text(conflict_pairs(name, n))
    got = subprocess.run([sys.executable, "-m", "esgames.cli", *before,
                          "-f", str(path), *after],
                         cwd=SRC, capture_output=True, timeout=20)
    assert got.returncode == 0, got.stderr


# the pullback keeps each secured bijection as one int: 4^8 of them fit in
# far less than the 96 MB address space the child is given
COPYCAT_SQUARE = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (96 << 20, hard))
from esgames.games import MINUS, PLUS, game
from esgames.interaction import interact
from esgames.strategies import copycat_strategy
from esgames.structures import event_structure
names = [f"c{i}" for i in range(8)]
g = game(event_structure(names),
         {e: (PLUS, MINUS)[i % 2] for i, e in enumerate(names)})
cc = copycat_strategy(g)
inter = interact(cc, cc)
print(len(inter._bijections), len(inter.source.events))
"""


def test_copycat_square_on_8_concurrent_moves_in_96_mb():
    got = subprocess.run([sys.executable, "-c", COPYCAT_SQUARE], cwd=SRC,
                         capture_output=True, text=True, timeout=20)
    assert got.stdout.split() == ["65536", "24"], got.stderr[-2000:]


# every configuration of n concurrent moves is covered by the one with its
# image, or has none, so no trace is listed: listing them took 8.5 s and
# 354 MB for may_preorder(s, s) at n = 9. 14 moves have about 2.4e11
# traces, more than either cap. The caps bound the work done, not the
# traces that would be listed, so under both the preorders walk the 2^14
# configurations, list no trace and decide
CONCURRENT_PREORDERS = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, hard))
from esgames.errors import SizeBoundExceeded
from esgames.games import PLUS, Polarised, game
from esgames.limits import EngineLimits
from esgames.strategies import in_game_strategy, stop_of
from esgames.structures import event_structure
from esgames.testing import may_preorder, must_preorder
moves = [f"m{i:02}" for i in range(14)]
g = game(event_structure(moves), dict.fromkeys(moves, PLUS))
def playing(ms):
    src = Polarised(event_structure(ms), dict.fromkeys(ms, PLUS))
    return in_game_strategy(src, g, {m: m for m in ms})
full, miss = playing(moves), playing(moves[1:])
for limits in (EngineLimits(), EngineLimits(max_configs=2 ** 40)):
    for preorder, a, b in ((may_preorder, full, full),
                           (may_preorder, full, miss),
                           (must_preorder, stop_of(full), stop_of(full))):
        try:
            print(preorder(a, b, limits))
        except SizeBoundExceeded as e:
            print(e.data)
"""


def test_preorders_on_14_concurrent_moves_in_256_mb():
    got = subprocess.run([sys.executable, "-c", CONCURRENT_PREORDERS],
                         cwd=SRC, capture_output=True, text=True, timeout=20)
    assert got.stdout.splitlines() == 2 * [
        "(True, None)", "(False, (frozenset({'m00'}), ((3, 'm00'),)))",
        "(True, None)"], got.stderr[-2000:]
