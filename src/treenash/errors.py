"""Exception types shared across the package."""


class TreenashError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGame(TreenashError):
    """Game data violates a structural invariant (shapes, signs, duplicate edges)."""


class NotATree(TreenashError):
    """The edge set is not a tree: wrong edge count, cycle, or disconnection."""


class InvalidPlayerId(TreenashError):
    """A player id is outside [0, num_players)."""


class MissingNeighborStrategy(TreenashError):
    """A neighbor-strategy map does not cover exactly the neighbors of a player."""


class InvalidEpsilon(TreenashError):
    """Approximation parameter outside the supported range (0, 1]."""


class SetTooLarge(TreenashError):
    """Enumerating the uniform-strategy set would exceed the configured cap."""


class CapExceeded(TreenashError):
    """An exhaustive scan would exceed its configured budget."""


class NoEquilibriumFound(TreenashError):
    """The search grid contains no extendable strategy at the configured scale."""


class InternalSoundnessViolation(TreenashError):
    """A solver result failed its own verification; must never happen."""


class SchemaError(TreenashError):
    """A JSON document does not match the documented interchange schema."""
