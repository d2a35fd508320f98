"""Exception types shared across the package.

Six classes, named by who is at fault. The CLI maps each one to an exit
code, so callers match on the class, never on message text:

* InputError (exit 1): a file, argument or object the caller supplied is
  malformed or inconsistent; every count, size and seed passes _require_int.
* PreconditionError (exit 4): well-formed input outside an operation's
  hypotheses, such as a connectivity guard, the circuit budget or a
  generator's edge bound.
* NotInducedError (exit 3, reconstruct) and DecompositionViolationError
  (exit 2, decompose): verdicts that carry their own report.
* InternalError (exit 5): a postcondition of the library's own
  construction failed; a bug, never the caller's input.
"""


class CircuitMapError(Exception):
    """Base class for all library errors."""


class InputError(CircuitMapError, ValueError):
    """A document, parameter or object from the caller is malformed or
    inconsistent. Also a ValueError, so `except ValueError` catches it."""


class PreconditionError(CircuitMapError):
    """Valid input outside an operation's hypotheses: a connectivity guard,
    the circuit-count budget, a generator's edge bound, or endpoints with
    no two disjoint paths.
    Every refused k-connectivity guard sets `k` and `separator`: fewer than
    k sorted vertex labels whose deletion disconnects the graph (None if
    n <= k). Every other refusal leaves both None."""

    def __init__(self, message, separator=None, k=None):
        super().__init__(message)
        self.separator = separator
        self.k = k


# The benchmark's pool scripts catch the circuit budget under this name.
TooManyCircuitsError = PreconditionError


class NotInducedError(CircuitMapError):
    """No vertex isomorphism induces the edge map.

    Carries the first source vertex whose star image is not the full star
    of a single target vertex, together with its classification.
    """

    def __init__(self, message, vertex=None, star_class=None):
        super().__init__(message)
        self.vertex = vertex
        self.star_class = star_class


class DecompositionViolationError(CircuitMapError):
    """Deleting a star preimage did not split the source into two sides
    joined only by crossing edges; the map was not a circuit injection."""


class InternalError(CircuitMapError):
    """A result the library built failed its own validity check."""


def _require_int(value, least=None, message=None, name=None) -> None:
    """InputError(message) for a bool, another non-int or an int below least;
    given name, a wrong type reads "<name> must be an integer, got <value!r>"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}" if name else message)
    if least is not None and value < least:
        raise InputError(message)
