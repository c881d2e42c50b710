import numpy as np
import pytest

from hankelbound.caratheodory import (
    CTriple,
    InvalidParameterError,
    SchurParams,
    c_from_params,
    rep_degree1,
    rep_degree2,
    validate_caratheodory,
)
from hankelbound import search
from hankelbound.families import Ozaki, coeffs_ode_oracle
from hankelbound.series import PowerSeries, div, exp_unit, log_unit


def random_params(rng) -> SchurParams:
    p1 = rng.uniform(0, 1)
    p2 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p3 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return SchurParams(p1, p2, p3)


class TestCFromParams:
    def test_p1_one_collapses(self):
        c = c_from_params(SchurParams(1.0, 0.3 + 0.1j, -0.5j))
        assert c.c1 == pytest.approx(2.0)
        assert c.c2 == pytest.approx(2.0)
        assert c.c3 == pytest.approx(2.0)

    def test_p1_zero_p2_one(self):
        c = c_from_params(SchurParams(0.0, 1.0, 0.7j))
        assert c.c1 == pytest.approx(0.0)
        assert c.c2 == pytest.approx(2.0)
        assert c.c3 == pytest.approx(0.0)

    def test_hand_evaluation(self):
        c = c_from_params(SchurParams(0.5, 0.5, 1.0))
        assert c.c1 == pytest.approx(1.0)
        assert c.c2 == pytest.approx(1.25)
        assert c.c3 == pytest.approx(1.9375)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            SchurParams(1.5, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            SchurParams(0.5, 1.0 + 1e-6, 0.0)


class TestRepresentatives:
    def test_half_plane_function(self):
        p = rep_degree1(1.0, order=3)
        assert np.allclose(p.coeffs, [1, 2, 2, 2])

    def test_constant_one(self):
        p = rep_degree1(0.0, order=3)
        assert np.allclose(p.coeffs, [1, 0, 0, 0])

    def test_rotated_geometric(self):
        p = rep_degree1(1j, order=3)
        assert np.allclose(p.coeffs, [1, 2j, -2, -2j])

    def test_outside_disk_rejected(self):
        with pytest.raises(InvalidParameterError):
            rep_degree1(1.1)

    def test_degree2_real_axis_generator(self):
        # (s, -1) gives (1 - z^2) / (1 - 2sz + z^2).
        s = 0.37
        p = rep_degree2(s, -1.0, order=6)
        num = PowerSeries.from_poly([1, 0, -1], 6)
        den = PowerSeries.from_poly([1, -2 * s, 1], 6)
        assert np.max(np.abs(p.coeffs - div(num, den).coeffs)) <= 1e-12

    def test_degree2_even_expansions(self):
        p = rep_degree2(0.0, 1.0, order=4)
        assert np.allclose(p.coeffs, [1, 0, 2, 0, 2])
        p = rep_degree2(0.0, -1.0, order=4)
        assert np.allclose(p.coeffs, [1, 0, -2, 0, 2])


#: Radius and order of the positivity checks: the truncation tail
#: 2 r^(N+1) / (1 - r) is about 0.03, below Harnack's floor (1 - r)/(1 + r)
#: = 0.053 on the real part of a member, so the real-part test is live.
RADIUS, ORDER = 0.9, 60


class TestValidate:
    def test_half_plane_is_caratheodory(self):
        assert validate_caratheodory(rep_degree1(1.0, order=ORDER), RADIUS, 720)

    def test_real_part_violation(self):
        # 1 - 2z: |c1| = 2 passes the coefficient test, Re = -0.8 at z = 0.9.
        p = PowerSeries.from_poly([1, -2], ORDER)
        assert np.max(np.abs(p.coeffs[1:])) <= 2.0
        assert not validate_caratheodory(p, RADIUS, 720)

    def test_constant_one(self):
        assert validate_caratheodory(PowerSeries.one(4), 0.5, 16)

    def test_coefficient_bound_violation(self):
        assert not validate_caratheodory(PowerSeries.from_poly([1, 3], 4), 0.99, 720)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            validate_caratheodory(PowerSeries.one(4), 1.5, 16)


class TestInvariants:
    def test_degree2_matches_parameterization(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            params = random_params(rng)
            c = c_from_params(params)
            p = rep_degree2(params.p1, params.p2, order=3)
            assert abs(p[1] - c.c1) <= 1e-12
            assert abs(p[2] - c.c2) <= 1e-12

    def test_coefficients_stay_in_disk_of_radius_two(self):
        rng = np.random.default_rng(11)
        for _ in range(100_000):
            c = c_from_params(random_params(rng))
            assert abs(c.c1) <= 2 + 1e-12
            assert abs(c.c2) <= 2 + 1e-12
            assert abs(c.c3) <= 2 + 1e-12

    def test_representatives_have_positive_real_part(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            theta = rng.uniform(0, 2 * np.pi)
            p = rep_degree1(np.exp(1j * theta), order=ORDER)
            assert validate_caratheodory(p, RADIUS, 720)
            p1 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = rep_degree2(p1, np.exp(1j * rng.uniform(0, 2 * np.pi)), order=ORDER)
            assert validate_caratheodory(p, RADIUS, 720)

    def test_ctriple_rejects_oversized_coefficients(self):
        with pytest.raises(InvalidParameterError):
            CTriple(3.0, 0.0, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: SchurParams(0.5, NAN, 0.0), id="SchurParams-p2"),
    pytest.param(lambda: SchurParams(0.5, 0.0, complex(0.0, NAN)), id="SchurParams-p3"),
    pytest.param(lambda: SchurParams(NAN, 0.0, 0.0), id="SchurParams-p1"),
    pytest.param(lambda: CTriple(NAN, 0.0, 0.0), id="CTriple-c1"),
    pytest.param(lambda: CTriple(0.0, 0.0, complex(NAN, 0.0)), id="CTriple-c3"),
    pytest.param(lambda: rep_degree1(NAN), id="rep_degree1"),
    pytest.param(lambda: rep_degree2(0.5, NAN), id="rep_degree2"),
    pytest.param(lambda: search.p3_step(search.envelope(Ozaki(0.5), 0.5), NAN), id="p3_step"),
    pytest.param(lambda: coeffs_ode_oracle(Ozaki(0.5), PowerSeries([NAN, 0.0, 0.0, 0.0])),
                 id="coeffs_ode_oracle"),
    pytest.param(lambda: div(PowerSeries([1.0, 2.0]), PowerSeries([NAN, 1.0])), id="div"),
    pytest.param(lambda: exp_unit(PowerSeries([NAN, 1.0])), id="exp_unit"),
    pytest.param(lambda: log_unit(PowerSeries([NAN, 1.0])), id="log_unit"),
])
def test_range_checks_reject_nan(call):
    # abs(nan) > bound is False, so a check written that way lets NaN past.
    with pytest.raises(ValueError):
        call()
