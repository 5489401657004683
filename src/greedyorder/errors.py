"""Exception hierarchy shared across the package.

Each class declares the CLI exit code it maps to in ``exit_code``.
UsageError exits 1.  The internal invariant violations,
MatchingNotAlignedError, MissingArcError and PropositionViolatedError,
exit 3.  Every other class is a data error
(schema, bad family parameters, infeasible inputs) and exits 2.
"""


class GreedyOrderError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InvalidGraphError(GreedyOrderError):
    """Graph construction rejected the input (range, duplicates, shape)."""


class DimensionMismatchError(GreedyOrderError):
    """Sizes of a graph and a permutation (or two structures) disagree."""


class NoPerfectMatchingError(GreedyOrderError):
    """The graph does not admit a perfect matching."""


class MatchingNotAlignedError(GreedyOrderError):
    """A matching was expected to pair index i with index i but does not."""

    exit_code = 3


class MissingArcError(GreedyOrderError):
    """A path-cover operation requires an arc that is not present."""

    exit_code = 3


class PropositionViolatedError(GreedyOrderError):
    """An internal counting invariant failed; indicates a bug."""

    exit_code = 3


class FamilyShapeError(GreedyOrderError):
    """A structured-family adversary or audit found the wrong shape."""


class HallInfeasibleError(GreedyOrderError):
    """A required system of distinct representatives does not exist."""


class GenerationError(GreedyOrderError):
    """A family name or parameter was unusable, or a randomized generator
    exhausted its rejection/repair budget."""


class AnalysisParamError(GreedyOrderError):
    """Analysis parameters fell outside a lemma's stated domain."""


class SchemaError(GreedyOrderError):
    """A JSON document violated the wire format, or a file could not be read or written."""


class UsageError(GreedyOrderError):
    """Bad command-line usage."""

    exit_code = 1
