"""Engine size caps, threaded through every enumeration."""

from collections import namedtuple

# max_configs caps configurations, secured bijections and traces;
# max_primes caps the primes of a pullback
EngineLimits = namedtuple("EngineLimits", "max_configs max_primes",
                          defaults=[2 ** 20, 4096])

DEFAULT_LIMITS = EngineLimits()
