"""Exception types shared across the package."""


class SeymourError(Exception):
    """Base class for all package-specific errors."""


class VertexRangeError(SeymourError, ValueError):
    """A vertex id is outside 0..n-1."""


class LoopArcError(SeymourError, ValueError):
    """An arc (v, v) was supplied."""


class DigonError(SeymourError, ValueError):
    """Both (u, v) and (v, u) were supplied."""


class NotDisjointStarsError(SeymourError, ValueError):
    """The missing graph is not a disjoint union of stars."""


class NotGoodDigraphError(SeymourError, ValueError):
    """An operation requiring a good digraph received one that is not."""


class ExactBoundExceededError(SeymourError, ValueError):
    """A solver was asked for more than its cap allows: the exact solver's
    vertex cap, the local repair's MAX_LOCAL_N, or the dependency digraph's
    MAX_MISSING_EDGES."""


class UnrealizableError(SeymourError, ValueError):
    """The requested object provably does not exist (e.g. all-kings on 4 vertices)."""


class HypothesisFailedError(SeymourError, ValueError):
    """A theorem procedure was applied to an instance violating its hypotheses."""

    def __init__(self, theorem_id: str, clause: str, evidence: str = ""):
        self.theorem_id = theorem_id
        self.clause = clause
        self.evidence = evidence
        msg = f"{theorem_id}: hypothesis failed: {clause}"
        if evidence:
            msg += f" ({evidence})"
        super().__init__(msg)


class ConsistencyError(SeymourError, RuntimeError):
    """A runtime check of a proved statement failed; indicates a bug or bad input."""


class ParseError(SeymourError, ValueError):
    """An instance file could not be parsed."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
