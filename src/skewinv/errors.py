"""Exceptions shared across the package."""

from __future__ import annotations


class SkewInvError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SkewInvError, ValueError):
    """Invalid parameters (bad group data, malformed series input, ...)."""


class CycloDivisionError(SkewInvError, ZeroDivisionError):
    """Division by zero in a cyclotomic field."""


class InvalidAutomorphismError(SkewInvError, ValueError):
    """A group element's key does not act on the given algebra."""


class InternalInconsistencyError(SkewInvError, RuntimeError):
    """Two computation paths that must agree disagreed (corresponds to CLI exit 2)."""
