"""Parameterization of Caratheodory coefficients.

Functions with positive real part and p(0) = 1 have first coefficients
(c1, c2, c3) that can be written in terms of a triple (p1, p2, p3) with
p1 in [0, 1] and p2, p3 in the closed unit disk.  This module provides that
map.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Slack absorbing floating-point representation error of unimodular inputs.
_DISK_SLACK = 1e-12

#: Classical coefficient bound |c_n| <= 2 with numerical slack.
_COEFF_SLACK = 1e-9


class InvalidParameterError(ValueError):
    """A Schur-type parameter lies outside its admissible region."""


@dataclass(frozen=True)
class SchurParams:
    """Parameters (p1, p2, p3) in [0,1] x closed-disk x closed-disk."""

    p1: float
    p2: complex
    p3: complex

    def __post_init__(self):
        if not (-_DISK_SLACK <= self.p1 <= 1.0 + _DISK_SLACK):
            raise InvalidParameterError(f"p1 must lie in [0, 1], got {self.p1!r}")
        if not abs(self.p2) <= 1.0 + _DISK_SLACK:
            raise InvalidParameterError(f"|p2| must be <= 1, got {abs(self.p2)!r}")
        if not abs(self.p3) <= 1.0 + _DISK_SLACK:
            raise InvalidParameterError(f"|p3| must be <= 1, got {abs(self.p3)!r}")


@dataclass(frozen=True)
class CTriple:
    """First three Taylor coefficients of a Caratheodory function."""

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            if not abs(getattr(self, name)) <= 2.0 + _COEFF_SLACK:
                raise InvalidParameterError(f"|{name}| must be <= 2")


def c_from_params(params: SchurParams) -> CTriple:
    """Coefficients (c1, c2, c3) realized by the parameters (p1, p2, p3)."""
    p1, p2, p3 = params.p1, params.p2, params.p3
    t = 1.0 - p1 * p1
    c1 = 2.0 * p1
    c2 = 2.0 * p1 * p1 + 2.0 * t * p2
    c3 = (
        2.0 * p1 ** 3
        + 4.0 * t * p1 * p2
        - 2.0 * t * p1 * p2 * p2
        + 2.0 * t * (1.0 - abs(p2) ** 2) * p3
    )
    return CTriple(c1, c2, c3)
