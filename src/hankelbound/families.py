"""The three function families and their coefficient machinery.

Every family member is a row (kind, B1, B2, B3) of a subordination class of
Ma & Minda, phi(z) = 1 + B1 z + B2 z^2 + B3 z^3 + ...: kind "S*" is S*(phi),
zf'/f = phi(w), and kind "C" is C(phi), 1 + zf''/f' = phi(w), with the
Schwarz function w = (p - 1)/(p + 1).  Only B1, B2 and B3 enter H_{2,1}.
Spirallike is S*(phi) with B = 2k(1, 1, 1), k = (1 - alpha) cos(beta)
e^{i*beta}; Ozaki and Robertson are C(phi) with B = m(1, 1, 1), m = -nu and
m = 2*lambda + 1.  Each kind is written once, in (B1, B2, B3), and picked by
the row's kind; no other module tells the kinds apart.  The search envelope
is one polynomial in p1 for both kinds, and the kind picks only its p1-free
factor row.  ``cli`` builds every member from the tag table ``FAMILIES``.

Coefficients (a2, a3, a4) come by two independent routes: the polynomials
in (c1, c2, c3) of ``coeffs_closed_form``, and the series solve of the
defining relation in ``coeffs_ode_oracle``.  The extremal function of each
family is one point (p1, p2, p3) of the parameterization, so
``extremal_coeffs`` is the closed form at that point.  Ozaki's a2 = -nu*c1/4
is the sign of the direct solve; the opposite convention, f(z) -> -f(-z),
flips a2 and a4 and leaves |H_{2,1}| untouched.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple, Union

from .caratheodory import CTriple, SchurParams, c_from_params
from .series import PowerSeries, SeriesDomainError, exp_unit

_HALF_PI = math.pi / 2.0

#: Kind -> divisors of (s1, s2, s3), the exp series being f(z)/z or f'(z).
_DIVISORS = {"S*": (1.0, 1.0, 1.0), "C": (2.0, 3.0, 4.0)}


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

    @cached_property
    def row(self) -> tuple:
        """("S*", 2k, 2k, 2k) with k = (1 - alpha) cos(beta) e^{i*beta}."""
        b = 2.0 * (1.0 - self.alpha) * math.cos(self.beta) * cmath.exp(1j * self.beta)
        return ("S*", b, b, b)


@dataclass(frozen=True)
class Ozaki:
    """Bounded-curvature class: Re(1 + zf''/f') < 1 + nu/2, 0 < nu <= 1."""

    nu: float

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ParameterRangeError(f"nu must lie in (0, 1], got {self.nu!r}")

    @cached_property
    def row(self) -> tuple:
        """("C", m, m, m) with m = -nu."""
        return ("C", -self.nu, -self.nu, -self.nu)


@dataclass(frozen=True)
class Robertson:
    """Re(1 + zf''/f') > 1/2 - lambda, 1/2 <= lambda <= 1 (lambda=1/2: convex)."""

    lam: float

    def __post_init__(self):
        if not 0.5 <= self.lam <= 1.0:
            raise ParameterRangeError(f"lambda must lie in [1/2, 1], got {self.lam!r}")

    @cached_property
    def row(self) -> tuple:
        """("C", m, m, m) with m = 2*lambda + 1."""
        m = 2.0 * self.lam + 1.0
        return ("C", m, m, m)


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
    """Coefficients as polynomials in (c1, c2, c3), one formula for both kinds.
    As (p - 1)/2 = w + w^2 + w^3 + ... for w = (p - 1)/(p + 1) = w1 z + w2 z^2
    + ..., phi(w) - 1 = B1 ((p - 1)/2 + r2 w^2 + r3 w^3) + O(z^4) with
    r_n = (B_n - B1)/B1: its coefficients are B1 (w1, t2, t3).  s1..s3 of
    exp(sum B1 t_n z^n/n), over the kind's divisors, are (a2, a3, a4).  Rows
    with B1 = B2 = B3 have r_n = 0 exactly and round as the formulas in m did."""
    kind, B1, B2, B3 = spec.row
    c1, c2, c3 = c.c1, c.c2, c.c3
    r2, r3 = (B2 - B1) / B1, (B3 - B1) / B1
    w1 = c1 / 2.0
    w2 = (c2 - c1 * w1) / 2.0
    t2 = c2 / 2.0 + r2 * w1 * w1
    t3 = c3 / 2.0 + (2.0 * r2 * w2 + r3 * w1 * w1) * w1
    n2, n3, n4 = _DIVISORS[kind]
    return CoeffTriple(B1 * w1 / n2, B1 * (t2 + B1 * w1 * w1) / (2.0 * n3),
                       B1 * (2.0 * t3 + 3.0 * B1 * w1 * t2 + B1 * B1 * c1 ** 3 / 8.0)
                       / (6.0 * n4))


def coeffs_ode_oracle(spec: FamilySpec, p: PowerSeries) -> CoeffTriple:
    """Solve the defining relation coefficient-by-coefficient, with no
    reference to the closed form: log(f/z) for S*(phi), or log f' for C(phi),
    is sum_n (B1/2) p_n/n z^n, and one exp gives f(z)/z or f'(z).  It uses
    phi(w) - 1 = (B1/2)(p - 1), which holds only for rows with B1 = B2 = B3;
    composing phi with w = (p - 1)/(p + 1), by ``div`` of tests/reference.py, lifts that."""
    if not abs(p[0] - 1.0) <= 1e-12:
        raise SeriesDomainError("driving function must have constant term 1")
    if p.order < 3:
        raise ValueError("driving series must retain at least order 3")
    kind, B1 = spec.row[:2]
    w, denom = B1 / 2.0, _DIVISORS[kind]
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


def envelope_factors(spec: FamilySpec) -> tuple:
    """The row's (scale, k0, k1, k2, c2, k3) of ``envelope_poly``.  S*(phi) needs
    B2/B1, B3/B1 real, C(phi) B real; B1 = B2 = B3 rows round as in m alone."""
    kind, B1, B2, B3 = spec.row
    if kind == "S*":
        b2, b3 = (B2 / B1).real, (B3 / B1).real
        return abs(B1) ** 2 / 48.0, 4.0 * b3 - 3.0 * b2 * b2, 2.0 * b2, -1.0, 3.0, 4.0
    b2 = B2 / B1
    return (B1 * B1 / 2304.0, -B1 * B1 + 4.0 * B2 + (24.0 * (B3 / B1) - 16.0 * (b2 * b2)),
            4.0 * (B1 + 4.0 * b2), -8.0, 2.0, 24.0)


def envelope_poly(factors, p1) -> Envelope:
    """Both kinds' envelope, q = 1 - p1^2: e0 = k0 p1^4, e1 = k1 q p1^2, e2 =
    k2 (c2 + p1^2) q, e3 = k3 p1 q; factors are floats, or columns with a row per
    member.  p1^4 is a product: numpy's array power and libm's pow can differ."""
    scale, k0, k1, k2, c2, k3 = factors
    p1sq = p1 * p1
    q = 1.0 - p1sq
    return Envelope(scale, k0 * (p1sq * p1sq), k1 * q * p1 * p1, k2 * (c2 + p1sq) * q,
                    k3 * p1 * q)


def envelope_arrays(spec: FamilySpec, p1) -> Envelope:
    """``envelope_poly`` at the member's own factors, at a float or array p1."""
    return envelope_poly(envelope_factors(spec), p1)


def s_critical(spec: FamilySpec) -> float:
    """Location in (0, 1) of the interior maximum of the reduced objective,
    for C(phi) rows with B1 = B2 = B3."""
    kind, B1 = spec.row[:2]
    if kind == "S*":
        raise ParameterRangeError("no interior critical point for the spirallike family")
    return math.sqrt(-2.0 * (B1 + 2.0) / (B1 * B1 - 8.0 * B1 - 32.0))


def extremal_coeffs(spec: FamilySpec) -> CoeffTriple:
    """Coefficients of the function attaining the sharp bound: the closed form
    at the paper's point (p1, p2) of the parameterization, where p3 is free
    because |p2| = 1.  S*(phi) takes (0, 1), p = (1 + z^2)/(1 - z^2); C(phi)
    takes (s_critical, -1), p = (1 - z^2)/(1 - 2sz + z^2)."""
    p1, p2 = (0.0, 1.0) if spec.row[0] == "S*" else (s_critical(spec), -1.0)
    return coeffs_closed_form(spec, c_from_params(SchurParams(p1, p2, 1.0)))


def sharp_bound(spec: FamilySpec) -> float:
    """Closed-form sharp bound on |H_{2,1}|: |B1|^2/16 for S*(phi), and for
    C(phi) rows with B1 = B2 = B3 a rational function of B1."""
    kind, B1 = spec.row[:2]
    if kind == "S*":
        return abs(B1) ** 2 / 16.0
    return B1 * B1 * (B1 * B1 - 12.0 * B1 - 44.0) / (192.0 * (B1 * B1 - 8.0 * B1 - 32.0))
