"""Reference answers the benchmark checks the engine against.

Nothing here imports esgames. A structure is given by its definition only:
its events, the causal down-closure of each event (the event included) and
its maximal consistent sets. Everything else is computed from that
definition by brute force, or taken from a closed form or from a verdict the
README and the acceptance checklist document.
"""


def configurations(events, below, maxcons):
    """Every down-closed subset of events that lies inside some maximal
    consistent set, by brute force over all subsets."""
    evs = list(events)
    index = {e: i for i, e in enumerate(evs)}
    down = [_mask(below[e], index) for e in evs]
    cons = [_mask(m, index) for m in maxcons]
    out = set()
    for x in range(1 << len(evs)):
        if not any(x & ~m == 0 for m in cons):
            continue
        if all(down[i] & ~x == 0 for i in range(len(evs)) if x >> i & 1):
            out.add(frozenset(evs[i] for i in range(len(evs)) if x >> i & 1))
    return out


def _mask(xs, index):
    m = 0
    for e in xs:
        m |= 1 << index[e]
    return m


def linear_extensions(x, below):
    """Every ordering of the events of x that lists each event after all the
    events strictly below it."""
    x = frozenset(x)
    out = []

    def grow(prefix, placed):
        if len(prefix) == len(x):
            out.append(tuple(prefix))
            return
        for e in x - placed:
            if below[e] - {e} <= placed:
                prefix.append(e)
                grow(prefix, placed | {e})
                prefix.pop()

    grow([], frozenset())
    return out


def traces(configs, below, label):
    """The labelled linear extensions of the given configurations."""
    return {tuple(label[e] for e in ext)
            for x in configs for ext in linear_extensions(x, below)}


def plus_maximal(configs, events, below, pol):
    """Configurations no Player ("+") or neutral ("0") event extends."""
    configs = set(configs)
    return {x for x in configs
            if not any(pol[e] in "+0" and x | {e} in configs
                       for e in set(events) - x)}


def is_isomorphism(iso, one, two):
    """Whether iso maps structure one onto structure two.

    A structure is a dict with keys events, below, maxcons and label; the map
    must be a bijection of events that keeps the causal order both ways,
    sends maximal consistent sets onto maximal consistent sets, and keeps
    labels.
    """
    if iso is None or set(iso) != set(one["events"]):
        return False
    if sorted(map(repr, iso.values())) != sorted(map(repr, two["events"])) \
            or len(set(iso.values())) != len(iso):
        return False
    for b in one["events"]:
        if {iso[a] for a in one["below"][b]} != set(two["below"][iso[b]]):
            return False
        if one["label"][b] != two["label"][iso[b]]:
            return False
    return ({frozenset(iso[e] for e in m) for m in one["maxcons"]}
            == {frozenset(m) for m in two["maxcons"]})


# ---- closed forms of the parametrised families ---------------------------------


def concurrent_configs(n):
    """Configurations of n pairwise concurrent moves: every subset."""
    return 2 ** n


def conflict_configs(n):
    """Configurations of n independent binary conflicts: each pair gives
    neither, the left or the right event."""
    return 3 ** n


def copycat_square_concurrent(n):
    """Secured bijections of copycat interacted with copycat on n concurrent
    Player moves: each move is absent or reached in one of three stages."""
    return 4 ** n


def copycat_square_chain(m):
    """Secured bijections of copycat interacted with copycat on a causal
    chain of m moves."""
    return 3 * m + 1


def climber_stopping(lengths):
    """Stopping configurations the saturation of a chain climber family has:
    in each conflicting component of the given length, the prefixes after
    which Opponent is to move and the full component. Components are
    numbered from 0 and their events are (component, position), position
    counted from 1; odd positions are Player moves."""
    out = []
    for ci, ln in enumerate(lengths):
        for j in range(1, ln + 1):
            if j % 2 == 0 or j == ln:
                out.append(frozenset((ci, k) for k in range(1, j + 1)))
    return out


# ---- documented verdicts ------------------------------------------------------------

# The README's esg commands on the shipped fixtures: exit code and first line.
README_VERDICTS = {
    ("hidden_deadlock.esg", "may-preorder", "sigma_b2", "sigma_or"): (0, "true"),
    ("hidden_deadlock.esg", "may-preorder", "sigma_or", "sigma_b2"): (1, "false"),
    ("hidden_deadlock.esg", "synth-may", "sigma_or", "sigma_b2"):
        (0, "separating test found: sigma_or passes, sigma_b2 fails"),
    ("neutral_test.esg", "must", "S2", "TAU"): (1, "fail"),
    ("neutral_test.esg", "must", "S1", "TAU"): (0, "pass"),
}

# README, quick tour and acceptance item 1: composing away the relay's middle
# leaves a single-event strategy either way.
HIDDEN_DEADLOCK_COMPOSITE_EVENTS = 1

# Acceptance item 12: chain-climber truncations stay must-equivalent.
CLIMBERS_MUST_EQUIVALENT = True
