"""Error and diagnostic types shared by all modules.

Every failure mode has its own class so callers can match on type. Validation
routines collect instances without raising (diagnostics); builders raise
`InvalidStructure` carrying the collected list.
"""


class EsgError(Exception):
    """Base class. `data` keeps the witness values named by the validator."""

    def __init__(self, message="", **data):
        super().__init__(message)
        self.message = message
        self.data = data

    def __repr__(self):
        return f"{type(self).__name__}({self.message!r}, {self.data!r})"


class InvalidStructure(EsgError):
    """Raised by builders; `diagnostics` is the list of collected errors."""

    def __init__(self, diagnostics):
        lines = "; ".join(f"{type(d).__name__}: {d.message}" for d in diagnostics)
        super().__init__(f"invalid structure: {lines}")
        self.diagnostics = list(diagnostics)


# ---- es-core ---------------------------------------------------------------

class CycleInCause(EsgError):
    pass


class InconsistentSingleton(EsgError):
    pass


class ConsistencyNotDownClosed(EsgError):
    pass


class UnknownEvent(EsgError):
    pass


class SizeBoundExceeded(EsgError):
    pass


class ImageNotConfiguration(EsgError):
    pass


class LocalInjectivityViolation(EsgError):
    pass


class SearchBudgetExceeded(EsgError):
    pass


# ---- games / strategies ----------------------------------------------------

class PolarityMismatch(EsgError):
    pass


class MapNotTotal(EsgError):
    pass


class NotAConfiguration(EsgError):
    pass


class NotReceptive(EsgError):
    pass


class PlusInnocenceViolation(EsgError):
    pass


class MinusInnocenceViolation(EsgError):
    pass


class TriangleBroken(EsgError):
    pass


class StoppingNotPreserved(EsgError):
    pass


class NotPlusReflecting(EsgError):
    pass


class NotRigid(EsgError):
    pass


class NotEpi(EsgError):
    pass


class BadArgument(EsgError):
    """An entry point was given an argument outside what it accepts."""


class EndpointMismatch(BadArgument):
    """Two maps that should meet at one structure do not."""


# ---- interaction -----------------------------------------------------------

class ImageMismatch(EsgError):
    pass


class Cycle(EsgError):
    pass


class MiddleGameMismatch(EsgError):
    pass


class NotRaceFree(EsgError):
    pass


# ---- testing ---------------------------------------------------------------

class GameMismatch(EsgError):
    pass


class NotAGap(EsgError):
    pass


# ---- cli / format ----------------------------------------------------------

class ParseError(EsgError):
    """Syntax or resolution failure; carries line/column when known."""

    def __init__(self, message, line=None, col=None, **data):
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(message + where, line=line, col=col, **data)
        self.line = line
        self.col = col
