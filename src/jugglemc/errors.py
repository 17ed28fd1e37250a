"""Shared exception types."""


class JuggleError(Exception):
    """Base class for all engine errors."""


class RowSumError(JuggleError):
    """A transition row does not sum to 1."""


class UnknownSuccessor(JuggleError):
    """A transition targets a state outside the enumerated state list."""


class ReducibleChain(JuggleError):
    """The nonzero pattern is not strongly connected; the stationary
    distribution would not be unique, so the solver refuses."""


class DegenerateParams(JuggleError):
    """A parameter choice makes a required denominator vanish."""


class NotNormalized(JuggleError):
    """An operation requires the throw weights to sum to exactly 1."""
