"""Engine size caps, and the one error every cap raises."""

from collections import namedtuple

from .errors import SizeBoundExceeded

# max_configs caps configurations, secured bijections and traces;
# max_primes caps the primes of a pullback
EngineLimits = namedtuple("EngineLimits", "max_configs max_primes",
                          defaults=[2 ** 20, 4096])

DEFAULT_LIMITS = EngineLimits()


def over_cap(cap, what):
    """The error for more than cap of what; each site compares, then raises
    this."""
    return SizeBoundExceeded(f"more than {cap} {what}", cap=cap)
