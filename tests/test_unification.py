"""Symbolic checks of the two family kinds.

Every family member is a row (kind, B1, B2, B3) of S*(phi) or C(phi).  These
tests derive each kind's search envelope from the coefficient formula with
B1, B2 and B3 held symbolic, and compare the formulas at the curvature rows,
through the classes' own rows (B = m(1, 1, 1) with m = -nu and
m = 2*lambda + 1), with the per-family expressions in nu and lambda that are
kept here as the reference.
"""

import math
from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from hankelbound import caratheodory, families, hankel  # noqa: E402
from hankelbound.families import Ozaki, Robertson, Spirallike  # noqa: E402

P1 = sp.Symbol("p1", real=True)
P2, P3 = sp.symbols("p2 p3")
ABS_P2_SQ = sp.Symbol("abs_p2_sq", nonnegative=True)  # |p2|^2, a symbol of its own
C1, C2, C3 = sp.symbols("c1 c2 c3")
K = sp.Symbol("k")  # B1 of an S*(phi) row, which may be complex
B1, B2, B3 = sp.symbols("B1 B2 B3", real=True)
NU = sp.Symbol("nu", positive=True)
LAM = sp.Symbol("lam", positive=True)
S = sp.Symbol("s", positive=True)


def exact(expr):
    """The expanded expression with its float coefficients made rational.

    The formulas divide by float literals (x / 12.0), so the expanded
    coefficients carry rounding error; every true coefficient is a rational
    with a small denominator, and a residue below 1e-12 is a zero."""
    return sp.nsimplify(sp.expand(expr), tolerance=1e-12, rational=True)


def same(a, b) -> bool:
    return sp.simplify(exact(a) - exact(b)) == 0


def symbolic(cls, **params):
    """An instance of a family class holding symbols; the range check, which
    cannot order symbols, is skipped."""
    spec = object.__new__(cls)
    for name, value in params.items():
        object.__setattr__(spec, name, value)
    return spec


class RealSymbol(sp.Symbol):
    """A real symbol that answers ``.real`` as a float does: b2 = B2/B1 and
    b3 = B3/B1 of an S*(phi) row are real, and the envelope takes them so."""

    @property
    def real(self):
        return self


# -- the envelope, derived from coeffs_closed_form o c_from_params ------------

@pytest.fixture
def symbolic_ctriple(monkeypatch):
    """Let c_from_params return symbols: CTriple's |c_n| <= 2 check cannot
    decide an inequality between them."""
    monkeypatch.setattr(caratheodory, "CTriple",
                        lambda c1, c2, c3: SimpleNamespace(c1=c1, c2=c2, c3=c3))


def h21_symbolic(spec):
    """H_{2,1} of coeffs_closed_form(spec, c_from_params(p1, p2, p3))."""
    c = caratheodory.c_from_params(SimpleNamespace(p1=P1, p2=P2, p3=P3))
    h = exact(hankel.h21_monomial(families.coeffs_closed_form(spec, c)))
    return h.subs(sp.Abs(P2), sp.sqrt(ABS_P2_SQ))


def envelope_terms(h):
    """(e0, e1, e2, e3) with h = e0 + e1 p2 + e2 p2^2 + e3 (1 - |p2|^2) p3."""
    terms = dict(sp.Poly(sp.expand(h), P2, P3, ABS_P2_SQ).terms())
    e = [terms.pop(power, 0) for power in ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0))]
    assert sp.expand(terms.pop((0, 1, 1), 0) + e[3]) == 0
    assert not terms, f"terms outside the envelope form: {terms}"
    return e


def test_closed_form_is_the_composition():
    # zf'/f = phi(w) integrates to log(f/z) = int (phi(w) - 1)/z, and
    # 1 + zf''/f' = phi(w) to log f' by the same integral; expand in sympy.
    z = sp.Symbol("z")
    w = sp.series((C1 * z + C2 * z ** 2 + C3 * z ** 3) / (2 + C1 * z + C2 * z ** 2 + C3 * z ** 3),
                  z, 0, 4).removeO()
    d = sp.expand(B1 * w + B2 * w ** 2 + B3 * w ** 3)
    s = sp.series(sp.exp(sum(d.coeff(z, n) * z ** n / n for n in (1, 2, 3))), z, 0, 4).removeO()
    c = SimpleNamespace(c1=C1, c2=C2, c3=C3)
    for kind, divisors in (("S*", (1, 1, 1)), ("C", (2, 3, 4))):
        a = families.coeffs_closed_form(SimpleNamespace(row=(kind, B1, B2, B3)), c)
        for n, (got, divisor) in enumerate(zip((a.a2, a.a3, a.a4), divisors), start=1):
            assert same(got, s.coeff(z, n) / divisor), (kind, n)


@pytest.mark.usefixtures("symbolic_ctriple")
def test_curvature_envelope_from_coefficients():
    # C(phi) with B1, B2 and B3 free: H_{2,1} = B1^2/2304 * (...).
    spec = SimpleNamespace(row=("C", B1, B2, B3))
    scale, *e = families.envelope_arrays(spec, P1)
    assert same(scale, B1 ** 2 / 2304)
    derived = envelope_terms(h21_symbolic(spec) / exact(scale))
    for name, want, got in zip(("e0", "e1", "e2", "e3"), e, derived):
        assert same(want, got), name


@pytest.mark.usefixtures("symbolic_ctriple")
def test_spirallike_envelope_from_coefficients():
    # S*(phi) with B1 free and complex, and b2, b3 free and real:
    # H_{2,1} = B1^2/48 * (...).  The phase of B1^2 is the rotation the
    # search drops, and its modulus is the envelope scale.
    b2, b3 = RealSymbol("b2", real=True), RealSymbol("b3", real=True)
    spec = SimpleNamespace(row=("S*", K, b2 * K, b3 * K))
    scale, *e = families.envelope_arrays(spec, P1)
    assert same(scale, sp.Abs(K) ** 2 / 48)
    derived = envelope_terms(h21_symbolic(spec) * 48 / K ** 2)
    for name, want, got in zip(("e0", "e1", "e2", "e3"), e, derived):
        assert same(want, got), name
    # Spirallike is the row B = 2k(1, 1, 1): scale |k|^2/12.
    for alpha, beta in ((0.0, 0.0), (0.3, -1.1), (0.9, 0.7)):
        scale = families.envelope_arrays(Spirallike(alpha, beta), P1)[0]
        assert scale == pytest.approx((1 - alpha) ** 2 * math.cos(beta) ** 2 / 12, rel=1e-14)


# -- the curvature rows against the per-family formulas in nu and lambda -----

def _robertson_reference():
    m = 2 * LAM + 1
    return {
        "spec": symbolic(Robertson, lam=LAM),
        "closed_form": (m * C1 / 4, m * (2 * C2 + m * C1 ** 2) / 24,
                        m * (8 * C3 + 6 * m * C1 * C2 + m ** 2 * C1 ** 3) / 192),
        "s_squared": -2 * (2 * LAM + 3) / (4 * LAM ** 2 - 12 * LAM - 39),
        "extremal": (m * S / 2, m * ((m + 2) * S ** 2 - 1) / 6,
                     m * (m + 2) * ((m + 4) * S ** 2 - 3) * S / 24),
        "bound": (2 * LAM + 1) ** 2 * (12 * LAM ** 2 - 60 * LAM - 165)
        / (576 * (4 * LAM ** 2 - 12 * LAM - 39)),
    }


def _ozaki_reference():
    return {
        "spec": symbolic(Ozaki, nu=NU),
        "closed_form": (-NU * C1 / 4, NU * (NU * C1 ** 2 - 2 * C2) / 24,
                        NU * (6 * NU * C1 * C2 - 8 * C3 - NU ** 2 * C1 ** 3) / 192),
        "s_squared": 2 * (NU - 2) / (NU ** 2 + 8 * NU - 32),
        "extremal": (-NU * S / 2, NU * (1 + (NU - 2) * S ** 2) / 6,
                     -NU * (NU - 2) * S * (3 + (NU - 4) * S ** 2) / 24),
        "bound": NU ** 2 * (NU ** 2 + 12 * NU - 44) / (192 * (NU ** 2 + 8 * NU - 32)),
    }


@pytest.fixture(params=["ozaki", "robertson"])
def reference(request):
    return {"ozaki": _ozaki_reference, "robertson": _robertson_reference}[request.param]()


def test_closed_form(reference):
    a = families.coeffs_closed_form(reference["spec"], SimpleNamespace(c1=C1, c2=C2, c3=C3))
    for got, want in zip((a.a2, a.a3, a.a4), reference["closed_form"]):
        assert same(got, want)


def test_s_critical(reference, monkeypatch):
    monkeypatch.setattr(families, "math", SimpleNamespace(sqrt=sp.sqrt))
    s = families.s_critical(reference["spec"])
    assert same(s ** 2, reference["s_squared"])


@pytest.mark.usefixtures("symbolic_ctriple")
def test_extremal_coeffs(reference, monkeypatch):
    # With s held symbolic the coefficients are polynomials in s; SchurParams
    # cannot order s against 1, so it is skipped like CTriple.
    monkeypatch.setattr(families, "s_critical", lambda spec: S)
    monkeypatch.setattr(families, "SchurParams",
                        lambda p1, p2, p3: SimpleNamespace(p1=p1, p2=p2, p3=p3))
    a = families.extremal_coeffs(reference["spec"])
    for got, want in zip((a.a2, a.a3, a.a4), reference["extremal"]):
        assert same(got, want)


def test_sharp_bound(reference):
    assert same(families.sharp_bound(reference["spec"]), reference["bound"])


def test_curvature_parameter_values():
    assert Ozaki(0.25).row == ("C", -0.25, -0.25, -0.25)
    assert Robertson(0.5).row == ("C", 2.0, 2.0, 2.0)
    assert Robertson(1.0).row == ("C", 3.0, 3.0, 3.0)


def test_rows_are_built_once_per_member():
    # The closed form and the envelope read the row on every call.
    assert Spirallike(0.0, 0.0).row == ("S*", 2.0, 2.0, 2.0)
    for spec in (Spirallike(0.3, -0.4), Ozaki(0.5), Robertson(0.75)):
        assert spec.row is spec.row
