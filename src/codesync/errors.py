"""Exception hierarchy and the resource caps shared across the package."""

SUBSET_CAP = 2 ** 20  # distinct subsets per search, read by the two search kernels
INSTANCE_CAP = 2 ** 24  # candidates per exhaustive enumeration
DEFAULT_COLORING_SEED = 0xC0DE


class CodesyncError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CodesyncError):
    """Malformed language or automaton input."""


class EpsilonNotAllowed(CodesyncError):
    """The empty word is present where a code-theoretic operation forbids it."""


class NotACode(CodesyncError):
    """A language required to be a code failed unique-factorization."""


class NotInStar(CodesyncError):
    """A word required to lie in X* does not."""


class NotComplete(CodesyncError):
    """A language required to be complete is incomplete."""


class NotSynchronizing(CodesyncError):
    """A language or pair failed a synchronization precondition."""


class AutomatonContractError(CodesyncError):
    """An automaton does not satisfy an operation's structural precondition."""


class SubsetCapExceeded(CodesyncError):
    """A subset-space search visited more distinct subsets than its cap.

    The exponential worst case of these searches is made explicit rather than
    silently looping; the cap is the constant :data:`SUBSET_CAP`.
    """

    def __init__(self, limit, context=""):
        self.cap = limit
        self.context = context
        msg = f"subset search exceeded cap of {limit} distinct subsets"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class SearchBudgetExceeded(CodesyncError):
    """An enumerative search ran out of budget before reaching a decision."""


class InternalInvariantError(CodesyncError):
    """A theory-guaranteed assertion failed; indicates an implementation bug.

    Carries a diagnostic payload so the offending run can be reconstructed.
    """

    def __init__(self, message, details=None):
        self.details = details or {}
        super().__init__(message)
