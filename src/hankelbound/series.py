"""Truncated complex power-series arithmetic.

A :class:`PowerSeries` holds the Taylor coefficients of an analytic function
up to a fixed order; all operations truncate consistently, so the series
behave like elements of C[[z]]/(z^(order+1)).  The logarithm and exponential
are computed by the standard O(n^2) recurrences derived from the differential
identities s'a = a' (for s = log a) and b' = s'b (for b = exp s), which are
exact at the coefficient level.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

#: Default truncation order: the highest index any caller reads is 3
#: (a4 is the z^3 coefficient of f(z)/z, or of f'(z) divided by 4).
DEFAULT_ORDER = 3

_UNIT_ATOL = 1e-12

Coeffs = Union[Sequence[complex], np.ndarray]


class SeriesDomainError(ValueError):
    """A series operation was applied outside its domain of definition."""


class PowerSeries:
    """Taylor coefficients ``coeffs[n]`` of z^n, n = 0..order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty one-dimensional sequence")
        self.coeffs = c.copy()

    @classmethod
    def from_poly(cls, coeffs: Coeffs, order: int = DEFAULT_ORDER) -> "PowerSeries":
        """Series of a polynomial, zero-padded (or cut) to the given order."""
        if order < 0:
            raise ValueError("order must be non-negative")
        src = np.asarray(coeffs, dtype=complex)
        out = np.zeros(order + 1, dtype=complex)
        n = min(src.size, order + 1)
        out[:n] = src[:n]
        return cls(out)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __getitem__(self, n: int) -> complex:
        return complex(self.coeffs[n])

    def __len__(self) -> int:
        return self.coeffs.size

    def __repr__(self) -> str:
        return f"PowerSeries({self.coeffs.tolist()!r})"


def log_unit(a: PowerSeries) -> PowerSeries:
    """log of a series with constant term 1 (principal branch at z = 0)."""
    if not abs(a[0] - 1.0) <= _UNIT_ATOL:
        raise SeriesDomainError("log_unit requires constant term 1")
    n = a.order
    s = np.zeros(n + 1, dtype=complex)
    ac = a.coeffs
    # n*s_n = n*a_n - sum_{k=1}^{n-1} k*s_k*a_{n-k}, from s'a = a'.
    for m in range(1, n + 1):
        acc = m * ac[m]
        for k in range(1, m):
            acc -= k * s[k] * ac[m - k]
        s[m] = acc / m
    return PowerSeries(s)


def exp_unit(a: PowerSeries) -> PowerSeries:
    """exp of a series with constant term 0."""
    if not abs(a[0]) <= _UNIT_ATOL:
        raise SeriesDomainError("exp_unit requires constant term 0")
    n = a.order
    b = np.zeros(n + 1, dtype=complex)
    b[0] = 1.0
    ac = a.coeffs
    # n*b_n = sum_{k=1}^{n} k*a_k*b_{n-k}, from b' = a'b.
    for m in range(1, n + 1):
        acc = 0.0 + 0.0j
        for k in range(1, m + 1):
            acc += k * ac[k] * b[m - k]
        b[m] = acc / m
    return PowerSeries(b)
