"""Shared example games and strategies, used by the tests.

Names describe behaviour. Every builder fully validates what it builds. The
builders without parameters are cached, chain_game and chain_climbers keep
their last few results, and idle(g) builds anew on each call.
"""

from functools import cache, lru_cache

from .games import (EMPTY, MINUS, NEUTRAL, PLUS, TICK, Polarised, game,
                    success_game)
from .strategies import (StoppingStrategy, bare_strategy, in_game_strategy,
                         strategy)
from .structures import event_structure

# ---- games ----------------------------------------------------------------------


@cache
def buttons():
    """Two concurrent Player moves b1, b2."""
    return game(event_structure(["b1", "b2"]), {"b1": PLUS, "b2": PLUS},
                name="buttons")


@cache
def click():
    """A single Player move c."""
    return game(event_structure(["c"]), {"c": PLUS}, name="click")


@cache
def one_shot():
    """A single Player move p."""
    return game(event_structure(["p"]), {"p": PLUS}, name="one-shot")


@cache
def two_lamps():
    """Two concurrent Player moves a, b."""
    return game(event_structure(["a", "b"]), {"a": PLUS, "b": PLUS},
                name="two-lamps")


@cache
def ladder5():
    """Alternating chain a:+ < b:- < c:+ < d:- < e:+."""
    names = ["a", "b", "c", "d", "e"]
    pol = {"a": PLUS, "b": MINUS, "c": PLUS, "d": MINUS, "e": PLUS}
    return game(event_structure(names, causes=list(zip(names, names[1:]))),
                pol, name="ladder5")


@cache
def handshake():
    """One Opponent request and one Player acknowledgement, independent."""
    return game(event_structure(["req", "ack"]), {"req": MINUS, "ack": PLUS},
                name="handshake")


@cache
def neutral_step():
    """One neutral event, the middle shared by the small bare fixtures."""
    return Polarised(event_structure(["u"]), {"u": NEUTRAL}, name="step")


@cache
def neutral_steps2():
    """Two concurrent neutral events."""
    return Polarised(event_structure(["u1", "u2"]),
                     {"u1": NEUTRAL, "u2": NEUTRAL}, name="steps2")


# ---- strategies over buttons / click ----------------------------------------------


@cache
def press_either():
    """Nondeterministically press one of the two buttons."""
    src = Polarised(event_structure(["s1", "s2"], conflicts=[("s1", "s2")]),
                    {"s1": PLUS, "s2": PLUS})
    return in_game_strategy(src, buttons(), {"s1": "b1", "s2": "b2"},
                            name="press-either")


@cache
def press_b1():
    src = Polarised(event_structure(["s"]), {"s": PLUS})
    return in_game_strategy(src, buttons(), {"s": "b1"}, name="press-b1")


@cache
def press_b2():
    src = Polarised(event_structure(["s"]), {"s": PLUS})
    return in_game_strategy(src, buttons(), {"s": "b2"}, name="press-b2")


@cache
def relay_b2_to_c():
    """From buttons to click: fire c once b2 has been seen."""
    src = Polarised(event_structure(["t1", "t2", "t3"], causes=[("t2", "t3")]),
                    {"t1": MINUS, "t2": MINUS, "t3": PLUS})
    return strategy(src, buttons(), click(),
                    {"t1": (1, "b1"), "t2": (1, "b2"), "t3": (3, "c")},
                    name="relay-b2-to-c")


@cache
def press_c():
    src = Polarised(event_structure(["s"]), {"s": PLUS})
    return in_game_strategy(src, click(), {"s": "c"}, name="press-c")


@cache
def double_press_c():
    """Two conflicting internal ways of pressing the same c."""
    src = Polarised(event_structure(["x1", "x2"], conflicts=[("x1", "x2")]),
                    {"x1": PLUS, "x2": PLUS})
    return in_game_strategy(src, click(), {"x1": "c", "x2": "c"},
                            name="double-press-c")


def idle(g):
    """The empty-source strategy in g; valid only when g has no Opponent move."""
    return in_game_strategy(Polarised(event_structure([]), {}), g, {},
                            name="idle")


# ---- the single-move bare trio -----------------------------------------------------


@cache
def shot_now():
    """Plays p outright; the middle event stays unused."""
    src = Polarised(event_structure(["s"]), {"s": PLUS})
    return bare_strategy(src, EMPTY, neutral_step(), one_shot(),
                         {"s": (3, "p")}, name="shot-now")


@cache
def shot_after_step():
    """One internal step, then p."""
    src = Polarised(event_structure(["n", "s"], causes=[("n", "s")]),
                    {"n": NEUTRAL, "s": PLUS})
    return bare_strategy(src, EMPTY, neutral_step(), one_shot(),
                         {"n": (2, "u"), "s": (3, "p")},
                         name="shot-after-step")


@cache
def shot_or_stall():
    """Internal choice: stall forever, or step and then play p."""
    src = Polarised(event_structure(["m", "n", "s"], causes=[("n", "s")],
                                    conflicts=[("m", "n")]),
                    {"m": NEUTRAL, "n": NEUTRAL, "s": PLUS})
    return bare_strategy(src, EMPTY, neutral_step(), one_shot(),
                         {"m": (2, "u"), "n": (2, "u"), "s": (3, "p")},
                         name="shot-or-stall")


# ---- the ladder pair and its probe --------------------------------------------------


@cache
def ladder_one_stall():
    """Follows the ladder but may stall instead of the third move."""
    names = ["a", "b", "c", "d", "e", "v1"]
    src = Polarised(
        event_structure(names,
                        causes=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
                        conflicts=[("v1", "c")]),
        {"a": PLUS, "b": MINUS, "c": PLUS, "d": MINUS, "e": PLUS,
         "v1": NEUTRAL})
    assign = {e: (3, e) for e in "abcde"}
    assign["v1"] = (2, "u")
    return bare_strategy(src, EMPTY, neutral_step(), ladder5(), assign,
                         name="ladder-one-stall")


@cache
def ladder_two_stalls():
    """May stall instead of the third move and also instead of the fifth."""
    names = ["a", "b", "c", "d", "e", "v1", "v2"]
    src = Polarised(
        event_structure(names,
                        causes=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
                        conflicts=[("v1", "c"), ("v2", "e")]),
        {"a": PLUS, "b": MINUS, "c": PLUS, "d": MINUS, "e": PLUS,
         "v1": NEUTRAL, "v2": NEUTRAL})
    assign = {e: (3, e) for e in "abcde"}
    assign["v1"] = (2, "u1")
    assign["v2"] = (2, "u2")
    return bare_strategy(src, EMPTY, neutral_steps2(), ladder5(), assign,
                         name="ladder-two-stalls")


# ---- the weak-bisimilar lamp trio ---------------------------------------------------


@cache
def lamp_choice():
    """Directly light one of the two lamps."""
    src = Polarised(event_structure(["a", "b"], conflicts=[("a", "b")]),
                    {"a": PLUS, "b": PLUS})
    return bare_strategy(src, EMPTY, neutral_step(), two_lamps(),
                         {"a": (3, "a"), "b": (3, "b")}, name="lamp-choice")


@cache
def lamp_choice_staged():
    """Choose internally first, then light the chosen lamp."""
    src = Polarised(
        event_structure(["n1", "n2", "a", "b"],
                        causes=[("n1", "a"), ("n2", "b")],
                        conflicts=[("n1", "n2")]),
        {"n1": NEUTRAL, "n2": NEUTRAL, "a": PLUS, "b": PLUS})
    return bare_strategy(src, EMPTY, neutral_step(), two_lamps(),
                         {"n1": (2, "u"), "n2": (2, "u"),
                          "a": (3, "a"), "b": (3, "b")},
                        name="lamp-choice-staged")


@cache
def lamp_choice_biased():
    """One internal step guards the first lamp and excludes the second."""
    src = Polarised(
        event_structure(["n", "a", "b"], causes=[("n", "a")],
                        conflicts=[("n", "b")]),
        {"n": NEUTRAL, "a": PLUS, "b": PLUS})
    return bare_strategy(src, EMPTY, neutral_step(), two_lamps(),
                         {"n": (2, "u"), "a": (3, "a"), "b": (3, "b")},
                         name="lamp-choice-biased")


# ---- the deadlocking pair ------------------------------------------------------------


@cache
def responder():
    """In the handshake game: acknowledge after the request."""
    src = Polarised(event_structure(["r", "s"], causes=[("r", "s")]),
                    {"r": MINUS, "s": PLUS})
    return in_game_strategy(src, handshake(), {"r": "req", "s": "ack"},
                            name="responder")


@cache
def demander():
    """From the handshake game to nothing: request only after the
    acknowledgement, creating a causal cycle against responder."""
    src = Polarised(event_structure(["x", "y"], causes=[("x", "y")]),
                    {"x": MINUS, "y": PLUS})
    return strategy(src, handshake(), EMPTY,
                    {"x": (1, "ack"), "y": (1, "req")}, name="demander")


# ---- tests over the small games ------------------------------------------------------


@cache
def tick2_probe():
    """Over buttons: succeed only once the second button has been pressed."""
    src = Polarised(
        event_structure(["u1", "u2", "tick"], causes=[("u2", "tick")]),
        {"u1": MINUS, "u2": MINUS, "tick": PLUS})
    return strategy(src, buttons(), success_game(),
                    {"u1": (1, "b1"), "u2": (1, "b2"), "tick": (3, TICK)},
                    name="tick2-probe")


@cache
def free_probe():
    """Over buttons: succeed unconditionally."""
    src = Polarised(event_structure(["u1", "u2", "tick"]),
                    {"u1": MINUS, "u2": MINUS, "tick": PLUS})
    return strategy(src, buttons(), success_game(),
                    {"u1": (1, "b1"), "u2": (1, "b2"), "tick": (3, TICK)},
                    name="free-probe")


@cache
def summons():
    """A single Opponent move m."""
    return game(event_structure(["m"]), {"m": MINUS}, name="summons")


@cache
def receiver():
    """In the summons game: accept the move, volunteer nothing."""
    src = Polarised(event_structure(["r"]), {"r": MINUS})
    return in_game_strategy(src, summons(), {"r": "m"}, name="receiver")


@cache
def wait_free_probe():
    """Over summons: offer the move and succeed regardless of it."""
    src = Polarised(event_structure(["u", "tick"]),
                    {"u": PLUS, "tick": PLUS})
    return strategy(src, summons(), success_game(),
                    {"u": (1, "m"), "tick": (3, TICK)}, name="wait-free-probe")


@cache
def neutral_probe():
    """Over click: an internal step after c races the success move."""
    src = Polarised(
        event_structure(["u", "w", "tick"], causes=[("u", "w")],
                        conflicts=[("w", "tick")]),
        {"u": MINUS, "w": NEUTRAL, "tick": PLUS})
    middle = Polarised(event_structure(["w"]), {"w": NEUTRAL})
    return bare_strategy(src, click(), middle, success_game(),
                         {"u": (1, "c"), "w": (2, "w"), "tick": (3, TICK)},
                         name="neutral-probe")


@cache
def ladder_probe():
    """Over ladder5: an early success chance cut off by the fourth move, and a
    late one after the full climb."""
    src = Polarised(
        event_structure(
            ["a", "b", "c", "d", "e", "t1", "t2"],
            causes=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                    ("a", "t1"), ("e", "t2")],
            conflicts=[("t1", "d")]),
        {"a": MINUS, "b": PLUS, "c": MINUS, "d": PLUS, "e": MINUS,
         "t1": PLUS, "t2": PLUS})
    assign = {x: (1, x) for x in "abcde"}
    assign |= {"t1": (3, TICK), "t2": (3, TICK)}
    return strategy(src, ladder5(), success_game(), assign,
                    name="ladder-probe")


# ---- the two-by-two pair -------------------------------------------------------------


@cache
def two_by_two_game():
    """Two independent Opponent-then-Player exchanges."""
    return game(event_structure(["m1", "p1", "m2", "p2"],
                                causes=[("m1", "p1"), ("m2", "p2")]),
                {"m1": MINUS, "p1": PLUS, "m2": MINUS, "p2": PLUS},
                name="two-by-two")


@cache
def two_by_two_id():
    """Answer each exchange on its own."""
    g = two_by_two_game()
    src = Polarised(event_structure(list(g.events),
                                    causes=[("m1", "p1"), ("m2", "p2")]),
                    dict(g.pol))
    return in_game_strategy(src, g, {e: e for e in g.events},
                            name="two-by-two-id")


@cache
def two_by_two_branching():
    """Extra answer branches that wait for both Opponent moves."""
    src = Polarised(
        event_structure(
            ["a", "b", "c", "d", "e", "f"],
            causes=[("d", "a"), ("c", "b"), ("d", "b"),
                    ("c", "e"), ("d", "e"), ("c", "f")],
            conflicts=[("a", "b"), ("e", "f")]),
        {"a": PLUS, "b": PLUS, "c": MINUS, "d": MINUS, "e": PLUS, "f": PLUS})
    return in_game_strategy(src, two_by_two_game(),
                            {"a": "p1", "b": "p1", "c": "m2", "d": "m1",
                             "e": "p2", "f": "p2"},
                            name="two-by-two-branching")


@cache
def chain_shadow():
    """Prefixes of lengths 1 and 2 over a two-step Player chain, every
    +-maximal configuration stopping. Collapsing the two length-1 histories
    leaves a stopping configuration that is no longer +-maximal."""
    g = game(event_structure(["e1", "e2"], causes=[("e1", "e2")]),
             {"e1": PLUS, "e2": PLUS}, name="climb2")
    events = [(0, 1), (1, 1), (1, 2)]
    src = Polarised(
        event_structure(events, causes=[((1, 1), (1, 2))],
                        conflicts=[((0, 1), (1, 1))]),
        {e: PLUS for e in events})
    st = in_game_strategy(src, g, {(0, 1): "e1", (1, 1): "e1", (1, 2): "e2"},
                          name="chain-shadow")
    return StoppingStrategy(
        st, {frozenset({(0, 1)}), frozenset({(1, 1), (1, 2)})})


# ---- truncated climbing pair ---------------------------------------------------------


@lru_cache(maxsize=8)
def chain_game(pairs):
    """Alternating Player/Opponent chain with the given number of exchanges."""
    names = []
    pol = {}
    for i in range(1, pairs + 1):
        names += [f"p{i}", f"m{i}"]
        pol[f"p{i}"] = PLUS
        pol[f"m{i}"] = MINUS
    return game(event_structure(names, causes=list(zip(names, names[1:]))),
                pol, name=f"chain{pairs}")


@lru_cache(maxsize=8)
def chain_climbers(pairs, extra_full_copy):
    """Sum of one climber per even stopping depth, as conflicting components.

    With extra_full_copy a second copy of the longest climber is added; every
    behaviour of the copy is already present, so the two variants share all
    their traces and stopping traces.
    """
    g = chain_game(pairs)
    names = [f"{t}{i}" for i in range(1, pairs + 1) for t in ("p", "m")]
    lengths = [2 * j for j in range(1, pairs + 1)]
    if extra_full_copy:
        lengths = lengths + [2 * pairs]
    events = []
    causes = []
    pol = {}
    assign = {}
    for ci, ln in enumerate(lengths):
        comp = [(ci, k) for k in range(1, ln + 1)]
        events += comp
        causes += list(zip(comp, comp[1:]))
        for k in range(1, ln + 1):
            pol[(ci, k)] = PLUS if k % 2 else MINUS
            assign[(ci, k)] = names[k - 1]
    conflicts = [(e, f) for e in events for f in events if e[0] < f[0]]
    src = Polarised(event_structure(events, causes, conflicts), pol)
    return in_game_strategy(
        src, g, assign,
        name=f"climbers{pairs}+" if extra_full_copy else f"climbers{pairs}")
