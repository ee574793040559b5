"""Shared exception types.

HypothesisNotMet separates "the theorem's hypotheses do not hold here,
so the engine refuses to compute" from MathCheckFailure, a genuine
mathematical failure: an identity the engine verified came out false.
"""


class HypothesisNotMet(RuntimeError):
    """An operation's preconditions are not established for this input."""


class MathCheckFailure(AssertionError):
    """An exact identity the engine verifies turned out false."""


def _integer(value, what):
    """value when it is an int (a bool is not), else ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value
