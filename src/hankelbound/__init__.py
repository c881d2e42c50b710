"""Certification toolkit for sharp bounds on the second Hankel determinant
of logarithmic coefficients of spirallike, bounded-curvature (Ozaki), and
Robertson-class functions."""

__version__ = "0.1.0"
