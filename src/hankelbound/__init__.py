"""Certification toolkit for sharp bounds on the second Hankel determinant
of logarithmic coefficients of spirallike, bounded-curvature (Ozaki), and
Robertson-class functions."""

from .caratheodory import (
    CTriple,
    SchurParams,
    c_from_params,
    rep_degree1,
    rep_degree2,
    validate_caratheodory,
)
from .families import (
    CoeffTriple,
    Envelope,
    FamilySpec,
    Ozaki,
    ParameterRangeError,
    Robertson,
    Spirallike,
    coeffs_closed_form,
    coeffs_ode_oracle,
    extremal_coeffs,
    s_critical,
    sharp_bound,
)
from .hankel import GammaTriple, h21, h21_monomial, log_coeffs, rotate
from .search import SearchReport, envelope, global_max, p3_step, sweep
from .series import DEFAULT_ORDER, PowerSeries, SeriesDomainError
from .ymax import YCase, YResult, y_certify, y_closed_form, y_oracle

__version__ = "0.1.0"

__all__ = [
    "CTriple",
    "CoeffTriple",
    "DEFAULT_ORDER",
    "Envelope",
    "FamilySpec",
    "GammaTriple",
    "Ozaki",
    "ParameterRangeError",
    "PowerSeries",
    "Robertson",
    "SchurParams",
    "SearchReport",
    "SeriesDomainError",
    "Spirallike",
    "YCase",
    "YResult",
    "c_from_params",
    "coeffs_closed_form",
    "coeffs_ode_oracle",
    "envelope",
    "extremal_coeffs",
    "global_max",
    "h21",
    "h21_monomial",
    "log_coeffs",
    "p3_step",
    "rep_degree1",
    "rep_degree2",
    "rotate",
    "s_critical",
    "sharp_bound",
    "sweep",
    "validate_caratheodory",
    "y_certify",
    "y_closed_form",
    "y_oracle",
]
