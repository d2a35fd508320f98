"""Exception types shared across the package.

Every error raised by the library derives from CircuitMapError so callers
(and the CLI) can map failure families to exit codes without matching on
message text.
"""


class CircuitMapError(Exception):
    """Base class for all library errors."""


# --- input / construction errors -------------------------------------------

class FormatError(CircuitMapError):
    """A JSON document does not have the expected shape."""


class LoopEdgeError(CircuitMapError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(CircuitMapError):
    """The same unordered endpoint pair appears twice."""


class UnknownVertexError(CircuitMapError):
    """A vertex label is not part of the graph."""


class UnknownEdgeError(CircuitMapError):
    """An endpoint pair does not name an edge of the graph."""


class ForeignEdgeSetError(CircuitMapError):
    """An edge set is hosted on a different graph than the operation target."""


class NotABijectionError(CircuitMapError):
    """A map that must be bijective is not."""


class IsolatedVertexError(CircuitMapError):
    """A vertex with no incident edges where at least one is required."""


# --- circuit and connectivity errors ---------------------------------------

class TooManyCircuitsError(CircuitMapError):
    """Circuit enumeration would exceed the configured bound."""


class NotTwoConnectedError(CircuitMapError):
    """The graph is not 2-connected where 2-connectivity is required."""


class NotThreeConnectedError(CircuitMapError):
    """The graph is not 3-connected where 3-connectivity is required."""


class NoTwoPathsError(CircuitMapError):
    """No two internally disjoint paths join the requested endpoints."""


# --- verification / structure errors ---------------------------------------

class HypothesisViolationError(CircuitMapError):
    """A stated precondition of an operation does not hold for the input."""


class DecompositionViolationError(CircuitMapError):
    """Deleting a star preimage did not split the source into two sides
    joined only by crossing edges; the map was not a circuit injection."""


class InvalidWitnessError(CircuitMapError):
    """A structural witness fails its validity checks."""


class NotInducedError(CircuitMapError):
    """No vertex isomorphism induces the edge map.

    Carries the first source vertex whose star image is not the full star
    of a single target vertex, together with its classification.
    """

    def __init__(self, message, vertex=None, star_class=None):
        super().__init__(message)
        self.vertex = vertex
        self.star_class = star_class


# --- generator errors -------------------------------------------------------

class InvalidPrimeError(CircuitMapError):
    """The counterexample family needs a prime parameter greater than 2."""


class UnknownNameError(CircuitMapError):
    """The graph catalog has no entry under the requested name."""


class GenerationFailedError(CircuitMapError):
    """Random generation could not satisfy its postcondition."""
