"""Shared exception types.

HypothesisNotMet separates "the theorem's hypotheses do not hold here,
so the engine refuses to compute" from MathCheckFailure, a genuine
mathematical failure: an identity the engine verified came out false.
"""


class HypothesisNotMet(RuntimeError):
    """An operation's preconditions are not established for this input."""


class MathCheckFailure(AssertionError):
    """An exact identity the engine verifies turned out false."""
