"""Exception types shared across the package."""


class CapforestError(Exception):
    """Base class for every error this package raises deliberately."""


class GraphConstructionError(CapforestError):
    """Rejected graph: non-integer or negative vertex count, an edge that is
    not a triple, loop, duplicate vertex pair, non-integer or out-of-range
    vertex id."""


class EmptyGraphError(CapforestError):
    """The operation needs a graph with at least one vertex."""


class MissingCapacityError(CapforestError):
    """A color was queried that has neither a capacity entry nor a default.

    A zero budget is meaningful (it bans the color outright), so missing
    colors are never silently treated as zero.
    """


class PreconditionError(CapforestError):
    """Arguments violate an operation's contract."""


class OracleLimitError(PreconditionError):
    """Instance too large for exhaustive cross-checking."""


class InternalSolverError(CapforestError):
    """The solver contradicted itself; this signals a bug, not bad input."""


class InstanceParseError(CapforestError):
    """Malformed instance or capacity file; the message carries file:line."""
