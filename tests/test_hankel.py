import cmath

import numpy as np
import pytest

from hankelbound.caratheodory import SchurParams, c_from_params
from hankelbound.families import (
    CoeffTriple,
    Ozaki,
    Robertson,
    Spirallike,
    coeffs_closed_form,
)
from hankelbound.hankel import h21, h21_monomial, log_coeffs
from hankelbound.series import PowerSeries, log_unit
from reference import rotate

KOEBE = CoeffTriple(2.0, 3.0, 4.0)


def random_coeffs(rng, radius=4.0) -> CoeffTriple:
    r = rng.uniform(0, radius, 3)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    vals = r * phase
    return CoeffTriple(complex(vals[0]), complex(vals[1]), complex(vals[2]))


class TestLogCoeffs:
    def test_koebe(self):
        g = log_coeffs(KOEBE)
        assert g.g1 == pytest.approx(1.0)
        assert g.g2 == pytest.approx(0.5)
        assert g.g3 == pytest.approx(1.0 / 3.0)

    def test_identity_function(self):
        g = log_coeffs(CoeffTriple(0.0, 0.0, 0.0))
        assert g.g1 == g.g2 == g.g3 == 0.0

    def test_direct_substitution(self):
        g = log_coeffs(CoeffTriple(0.0, 1.0, 0.0))
        assert g.g1 == 0.0
        assert g.g2 == pytest.approx(0.5)
        assert g.g3 == 0.0


class TestH21:
    def test_koebe(self):
        assert h21(KOEBE) == pytest.approx(1.0 / 12.0)

    def test_zero(self):
        assert h21(CoeffTriple(0.0, 0.0, 0.0)) == 0.0

    def test_spirallike_extremal_value(self):
        value = h21(CoeffTriple(0.0, 1.0, 0.0))
        assert value == pytest.approx(-0.25)
        assert abs(value) == pytest.approx(0.25)


class TestRotate:
    def test_identity(self):
        a = rotate(KOEBE, 0.0)
        assert a.a2 == pytest.approx(2.0)
        assert a.a4 == pytest.approx(4.0)

    def test_half_turn(self):
        a = rotate(KOEBE, np.pi)
        assert a.a2 == pytest.approx(-2.0)
        assert a.a3 == pytest.approx(3.0)
        assert a.a4 == pytest.approx(-4.0)

    def test_quarter_turn_preserves_h21_modulus(self):
        assert h21(rotate(KOEBE, np.pi / 2)) == pytest.approx(1.0 / 12.0)


class TestInvariants:
    def test_rotation_equivariance(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            a = random_coeffs(rng)
            theta = rng.uniform(0, 2 * np.pi)
            lhs = h21(rotate(a, theta))
            rhs = cmath.exp(4j * theta) * h21(a)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_path_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            a = random_coeffs(rng)
            assert abs(h21(a) - h21_monomial(a)) <= 1e-13

    def test_gamma_matches_series_logarithm(self):
        rng = np.random.default_rng(32)
        specs = [Spirallike(0.3, 0.4), Ozaki(0.9), Robertson(0.75)]
        for i in range(100):
            p1 = rng.uniform(0, 1)
            p2 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p3 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            c = c_from_params(SchurParams(p1, p2, p3))
            a = coeffs_closed_form(specs[i % 3], c)
            fz = PowerSeries([1.0, a.a2, a.a3, a.a4])
            s = log_unit(fz)
            g = log_coeffs(a)
            assert abs(s[1] / 2.0 - g.g1) <= 1e-10
            assert abs(s[2] / 2.0 - g.g2) <= 1e-10
            assert abs(s[3] / 2.0 - g.g3) <= 1e-10
