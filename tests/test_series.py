import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelbound.series import (
    PowerSeries,
    SeriesDomainError,
    div,
    exp_unit,
    log_unit,
)


def coeffs_close(s: PowerSeries, expected, tol=1e-12):
    exp = np.asarray(expected, dtype=complex)
    assert s.coeffs.shape == exp.shape
    assert np.max(np.abs(s.coeffs - exp)) <= tol


class TestDiv:
    def test_geometric_factorization(self):
        num = PowerSeries.from_poly([1, 0, -1], 1)
        den = PowerSeries.from_poly([1, -1], 1)
        coeffs_close(div(num, den), [1, 1])

    def test_self_division(self):
        a = PowerSeries.from_poly([2, 1, -3, 0.5], 3)
        coeffs_close(div(a, a), [1, 0, 0, 0])

    def test_binomial_series(self):
        one = PowerSeries.one(3)
        den = PowerSeries.from_poly(np.convolve([1, -1], [1, -1]), 3)  # (1 - z)^2
        coeffs_close(div(one, den), [1, 2, 3, 4])

    def test_zero_constant_term_raises(self):
        with pytest.raises(SeriesDomainError):
            div(PowerSeries.one(3), PowerSeries.from_poly([0, 1], 3))


class TestLogExp:
    def test_log_of_one(self):
        coeffs_close(log_unit(PowerSeries.one(5)), np.zeros(6))

    def test_koebe_log_coefficients(self):
        # log(f/z) for the Koebe function, f/z = (1-z)^-2 = sum (n+1) z^n,
        # has coefficient 2/n of z^n.
        fz = PowerSeries(np.arange(1, 10))
        s = log_unit(fz)
        expected = [0.0] + [2.0 / n for n in range(1, 9)]
        coeffs_close(s, expected, tol=1e-12)

    def test_mercator_series(self):
        s = log_unit(PowerSeries.from_poly([1, 1], 3))
        coeffs_close(s, [0, 1, -0.5, 1.0 / 3.0])

    def test_exp_of_zero(self):
        coeffs_close(exp_unit(PowerSeries.from_poly([0], 4)), [1, 0, 0, 0, 0])

    def test_exp_series(self):
        e = exp_unit(PowerSeries.from_poly([0, 1], 3))
        coeffs_close(e, [1, 1, 0.5, 1.0 / 6.0])

    def test_exp_log_round_trip_simple(self):
        a = PowerSeries.from_poly([1, 1], 6)
        coeffs_close(exp_unit(log_unit(a)), a.coeffs, tol=1e-14)

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(SeriesDomainError):
            log_unit(PowerSeries.from_poly([2, 1], 3))

    def test_exp_requires_zero_constant_term(self):
        with pytest.raises(SeriesDomainError):
            exp_unit(PowerSeries.from_poly([1, 1], 3))


def _random_unit_series(rng, order):
    c = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    c[0] = 1.0
    return PowerSeries(c)


class TestInvariants:
    def test_exp_log_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = _random_unit_series(rng, int(rng.integers(1, 13)))
            back = exp_unit(log_unit(a))
            assert np.max(np.abs(back.coeffs - a.coeffs)) <= 1e-10

    def test_div_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            order = int(rng.integers(1, 11))
            a = _random_unit_series(rng, order)
            b = _random_unit_series(rng, order)
            if abs(b[0]) < 0.5:
                continue
            back = np.convolve(div(a, b).coeffs, b.coeffs)[: order + 1]
            assert np.max(np.abs(back - a.coeffs)) <= 1e-10


coeff_lists = st.lists(
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ),
    min_size=2,
    max_size=11,
)


@settings(deadline=None, max_examples=200)
@given(coeff_lists)
def test_round_trip_property(pairs):
    c = np.array([complex(re, im) for re, im in pairs])
    c[0] = 1.0
    a = PowerSeries(c)
    back = exp_unit(log_unit(a))
    assert np.max(np.abs(back.coeffs - a.coeffs)) <= 1e-10
