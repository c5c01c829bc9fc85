"""Shared exception types."""

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A computation degenerated numerically (vanishing mass, cap hit, non-finite value)."""
