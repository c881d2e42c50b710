"""The three function families and their coefficient machinery.

The families come in two kinds.  Spirallike functions satisfy
zf'/f = 1 + k(p - 1) with the complex factor k = (1 - alpha) cos(beta)
e^{i*beta}.  The curvature classes satisfy zf''/f' = (m/2)(p - 1) with a
real m: m = -nu for Ozaki's class and m = 2*lambda + 1 for the Robertson
class.  Every curvature formula below is written once, in m, and no other
module tells the kinds apart: the search envelope is here too.  ``cli``
builds every member from the tag table ``FAMILIES``.

Coefficients (a2, a3, a4) are available through two independent routes:

* ``coeffs_closed_form`` -- explicit polynomials in (c1, c2, c3);
* ``coeffs_ode_oracle``  -- a series-level solve of the defining relation.

The extremal function of each family is one point (p1, p2, p3) of the
parameterization, so ``extremal_coeffs`` is the closed form at that point.

For the bounded-curvature (Ozaki) family the relation solved directly gives
a2 = -nu*c1/4; the opposite sign convention amounts to composing with the
rotation f(z) -> -f(-z), which flips a2 and a4 simultaneously and leaves
|H_{2,1}| untouched.  This module standardizes on the direct-solve signs so
that both routes agree componentwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, NamedTuple, Union

from .caratheodory import CTriple, SchurParams, c_from_params
from .series import PowerSeries, SeriesDomainError, exp_unit

_HALF_PI = math.pi / 2.0


class ParameterRangeError(ValueError):
    """A family parameter lies outside its admissible range."""


@dataclass(frozen=True)
class Spirallike:
    """beta-spirallike of order alpha: Re(e^{-i*beta} zf'/f) > alpha*cos(beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterRangeError(f"alpha must lie in [0, 1), got {self.alpha!r}")
        if not -_HALF_PI < self.beta < _HALF_PI:
            raise ParameterRangeError(f"beta must lie in (-pi/2, pi/2), got {self.beta!r}")

    @property
    def k(self) -> complex:
        """k = (1 - alpha) * cos(beta) * e^{i*beta}; then zf'/f = 1 + k(p - 1)."""
        return (1.0 - self.alpha) * math.cos(self.beta) * cmath.exp(1j * self.beta)


@dataclass(frozen=True)
class Ozaki:
    """Bounded-curvature class: Re(1 + zf''/f') < 1 + nu/2, 0 < nu <= 1."""

    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ParameterRangeError(f"nu must lie in (0, 1], got {self.nu!r}")

    @property
    def m(self) -> float:
        """Curvature parameter: zf''/f' = (m/2)(p - 1) with m = -nu."""
        return -self.nu


@dataclass(frozen=True)
class Robertson:
    """Re(1 + zf''/f') > 1/2 - lambda, 1/2 <= lambda <= 1 (lambda=1/2: convex)."""

    lam: float

    def __post_init__(self):
        if not 0.5 <= self.lam <= 1.0:
            raise ParameterRangeError(f"lambda must lie in [1/2, 1], got {self.lam!r}")

    @property
    def m(self) -> float:
        """Curvature parameter: zf''/f' = (m/2)(p - 1) with m = 2*lambda + 1."""
        return 2.0 * self.lam + 1.0


FamilySpec = Union[Spirallike, Ozaki, Robertson]

#: Family tag -> (class, {CLI/JSON parameter name: attribute}).
FAMILIES = {
    "spirallike": (Spirallike, {"alpha": "alpha", "beta": "beta"}),
    "ozaki": (Ozaki, {"nu": "nu"}),
    "robertson": (Robertson, {"lambda": "lam"}),
}


def family_fields(spec: FamilySpec) -> dict[str, Any]:
    """{"family": tag, <parameter name>: value, ...} in CLI/JSON names."""
    tag, names = next((t, n) for t, (cls, n) in FAMILIES.items() if cls is type(spec))
    return {"family": tag, **{name: getattr(spec, attr) for name, attr in names.items()}}


@dataclass(frozen=True)
class CoeffTriple:
    """Taylor coefficients (a2, a3, a4) of a normalized function."""

    a2: complex
    a3: complex
    a4: complex


def coeffs_closed_form(spec: FamilySpec, c: CTriple) -> CoeffTriple:
    """Coefficients as explicit polynomials in (c1, c2, c3)."""
    c1, c2, c3 = c.c1, c.c2, c.c3
    if isinstance(spec, Spirallike):
        k = spec.k
        a2 = k * c1
        a3 = (k * k * c1 * c1 + k * c2) / 2.0
        a4 = (k ** 3 * c1 ** 3 + 3.0 * k * k * c1 * c2 + 2.0 * k * c3) / 6.0
        return CoeffTriple(a2, a3, a4)
    m = spec.m
    a2 = m * c1 / 4.0
    a3 = m * (2.0 * c2 + m * c1 * c1) / 24.0
    a4 = m * (8.0 * c3 + 6.0 * m * c1 * c2 + m * m * c1 ** 3) / 192.0
    return CoeffTriple(a2, a3, a4)


def coeffs_ode_oracle(spec: FamilySpec, p: PowerSeries) -> CoeffTriple:
    """Solve the defining relation coefficient-by-coefficient.

    For the spirallike relation zf'/f = 1 + k(p - 1) the log-derivative
    integrates to log(f/z) = sum_n k*p_n/n z^n.  For the curvature relations
    zf''/f' = (m/2)(p - 1) the same identity gives log f' = sum_n (m/2)p_n/n
    z^n, and f' = 1 + 2 a2 z + 3 a3 z^2 + 4 a4 z^3 + ...  Either way the
    coefficients come out of a single exp of a known series, with no
    reference to the closed-form polynomials above.
    """
    if abs(p[0] - 1.0) > 1e-12:
        raise SeriesDomainError("driving function must have constant term 1")
    if p.order < 3:
        raise ValueError("driving series must retain at least order 3")
    if isinstance(spec, Spirallike):
        w, denom = spec.k, (1.0, 1.0, 1.0)  # exp gives f(z)/z
    else:
        w, denom = spec.m / 2.0, (2.0, 3.0, 4.0)  # exp gives f'(z)
    s = exp_unit(PowerSeries([0.0] + [w * p[n] / n for n in (1, 2, 3)]))
    return CoeffTriple(s[1] / denom[0], s[2] / denom[1], s[3] / denom[2])


class Envelope(NamedTuple):
    """H_{2,1} = scale*(e0 + e1*p2 + e2*p2^2 + e3*(1 - |p2|^2)*p3) at one p1,
    up to a rotation: floats at a float p1, e0..e3 arrays at an array p1."""

    scale: Any
    e0: Any
    e1: Any
    e2: Any
    e3: Any


def envelope_arrays(spec: FamilySpec, p1) -> Envelope:
    """The search envelope at p1, a float or an array, bit for bit the same at
    a shared node: p1^4 is a product, as numpy's array power and libm's pow
    can differ in the last bit."""
    q = 1.0 - p1 * p1
    if isinstance(spec, Spirallike):
        scale = (1.0 - spec.alpha) ** 2 * math.cos(spec.beta) ** 2 / 12.0
        e0 = p1 * p1 * (p1 * p1)
        e1 = 2.0 * q * p1 * p1
        e2 = -q * (3.0 + p1 * p1)
        e3 = 4.0 * p1 * q
    else:
        m = spec.m
        scale = m * m / 2304.0
        e0 = (-m * m + 4.0 * m + 8.0) * (p1 * p1 * (p1 * p1))
        e1 = 4.0 * (m + 4.0) * q * p1 * p1
        e2 = -8.0 * (2.0 + p1 * p1) * q
        e3 = 24.0 * p1 * q
    return Envelope(scale, e0, e1, e2, e3)


def s_critical(spec: FamilySpec) -> float:
    """Location in (0, 1) of the interior maximum of the reduced objective."""
    if isinstance(spec, Spirallike):
        raise ParameterRangeError("no interior critical point for the spirallike family")
    m = spec.m
    return math.sqrt(-2.0 * (m + 2.0) / (m * m - 8.0 * m - 32.0))


def extremal_coeffs(spec: FamilySpec) -> CoeffTriple:
    """Coefficients of the function attaining the sharp bound: the closed form
    at the paper's point (p1, p2) of the parameterization, where p3 is free
    because |p2| = 1.  Spirallike takes (0, 1), p = (1 + z^2)/(1 - z^2); the
    curvature kind takes (s_critical, -1), p = (1 - z^2)/(1 - 2sz + z^2)."""
    p1, p2 = (0.0, 1.0) if isinstance(spec, Spirallike) else (s_critical(spec), -1.0)
    return coeffs_closed_form(spec, c_from_params(SchurParams(p1, p2, 1.0)))


def sharp_bound(spec: FamilySpec) -> float:
    """Closed-form sharp bound on |H_{2,1}| for the family."""
    if isinstance(spec, Spirallike):
        return (1.0 - spec.alpha) ** 2 * math.cos(spec.beta) ** 2 / 4.0
    m = spec.m
    return m * m * (m * m - 12.0 * m - 44.0) / (192.0 * (m * m - 8.0 * m - 32.0))
