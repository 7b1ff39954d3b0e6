"""Engine size caps, threaded through every enumeration."""

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineLimits:
    max_configs: int = 2 ** 20    # configuration / secured-bijection / trace cap
    max_primes: int = 4096        # pullback prime cap


DEFAULT_LIMITS = EngineLimits()
