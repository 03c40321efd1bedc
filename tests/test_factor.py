"""The native factoriser of factor.py against sympy's factor_list.

factor_over_base and cubic_root_count are compared with sympy on every
discriminant the bundled models factor (E1, E2, Inose, the third
fibration's s-model and t-locus, the height denominators), on every cubic
whose roots the I0* fibres count, and on random products of irreducibles
over Q and over Q(sqrt5): repeated factors, non-monic leading
coefficients, and factors conjugate under sqrt5 -> -sqrt5.  sympy is a
test-only oracle: no module of dyk3 imports it.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dyk3 import models, tate
from dyk3.factor import factor_integer
from dyk3.numfield import TOWER, TowerElement
from dyk3.poly import Poly, QQ
from dyk3.tate import cubic_root_count, factor_over_base

T = sympy.Symbol("t")
SQRT5 = sympy.sqrt(5)


def _to_sympy(c):
    if isinstance(c, TowerElement):
        assert not any(x for i, x in enumerate(c.co) if i not in (0, 2))
        a, b = c.co[0], c.co[2]
        return (sympy.Rational(a.numerator, a.denominator)
                + sympy.Rational(b.numerator, b.denominator) * SQRT5)
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _from_sympy(expr, field):
    if field is QQ:
        r = sympy.Rational(expr)
        return Fraction(r.p, r.q)
    terms = dict(sympy.Poly(sympy.expand(expr), SQRT5).terms())
    a, b = (sympy.Rational(terms.get(m, 0)) for m in ((0,), (1,)))
    return TowerElement.k4(Fraction(a.p, a.q), 0, Fraction(b.p, b.q))


def _oracle(p: Poly, base_label: str):
    """Monic irreducible factors of p by sympy, each once, sorted as
    factor_over_base sorts them."""
    expr = sum(_to_sympy(c) * T ** i for i, c in enumerate(p.coeffs))
    ext = SQRT5 if base_label == "Qsqrt5" else None
    out = []
    for fac, _ in sympy.factor_list(expr, T, extension=ext)[1]:
        sp = sympy.Poly(fac, T)
        if sp.degree() > 0:
            cs = [_from_sympy(c, p.field) for c in reversed(sp.all_coeffs())]
            out.append(Poly(p.field, cs).monic())
    return sorted(out, key=lambda f: (f.degree(), repr(f)))


def _bundled_polys():
    """(name, polynomial, base label) for every polynomial the bundled
    models factor."""
    surfaces = [("E1", models.e1_surface()), ("E1/tower", models.e1_surface("tower")),
                ("E2", models.e2_surface()), ("Inose", models.inose_surface())]
    third = tate.analyze_quartic_double_cover(models.third_fibration_quartic())
    surfaces.append(("third@s", third["s_model"]))
    for name, E in surfaces:
        yield name, E.delta(), E.base_label
        yield name + "@inf", E.infinity_model().delta(), E.base_label
    yield "third t-locus", third["t_locus"], "Qsqrt5"
    for name, E, sections in (("E1", models.e1_surface(), models.e1_sections()),
                              ("E2", models.e2_surface(), models.e2_sections())):
        pts = list(sections)
        pts += [P + Q for i, P in enumerate(pts) for Q in pts[i:]]
        for k, P in enumerate(pts):
            if not P.is_zero:
                yield f"{name} section {k} x-denominator", P.x.den, E.base_label


def test_bundled_polynomials_factor_as_sympy_factors_them():
    wrong = [name for name, p, base_label in _bundled_polys()
             if factor_over_base(p, base_label) != _oracle(p, base_label)]
    assert wrong == []


def test_bundled_cubics_count_roots_as_sympy_does(monkeypatch):
    # every step-6 cubic of the bundled I0* fibres, as the models ask
    asked = []
    count = tate.cubic_root_count

    def recording(b, c, d, base_label="QQ"):
        asked.append((b, c, d, base_label))
        return count(b, c, d, base_label)

    monkeypatch.setattr(tate, "cubic_root_count", recording)
    for E in (models.e1_surface(), models.e1_surface("tower"),
              models.e2_surface(), models.inose_surface()):
        E.bad_fibres()
    tate.analyze_quartic_double_cover(models.third_fibration_quartic())
    assert {label for *_, label in asked} == {"QQ", "Qsqrt5"}
    for b, c, d, label in asked:
        F = QQ if label == "QQ" else TOWER
        cubic = Poly(F, [F.one * d, F.one * c, F.one * b, F.one])
        linear = sum(1 for f in _oracle(cubic, label) if f.degree() == 1)
        assert count(b, c, d, label) == linear


small = st.integers(-6, 6)
nonzero = small.filter(bool)


@st.composite
def _rational_factor(draw, max_degree=4):
    d = draw(st.integers(1, max_degree))
    return Poly.from_ints(QQ, draw(st.lists(small, min_size=d, max_size=d))
                          + [draw(nonzero)])


@st.composite
def _qsqrt5_factor(draw, max_degree=3):
    d = draw(st.integers(1, max_degree))
    pairs = draw(st.lists(st.tuples(small, small), min_size=d + 1, max_size=d + 1))
    pairs[-1] = (pairs[-1][0] or 1, pairs[-1][1])
    return Poly(TOWER, [TowerElement.k4(a, 0, b) for a, b in pairs])


def _conjugate(f: Poly):
    return Poly(TOWER, [c.conjugate_k4(1, -1) for c in f.coeffs])


@st.composite
def _product(draw, factor, field, conjugates=False):
    """A constant times 1-4 drawn factors, one of them maybe squared, and
    (over Q(sqrt5)) maybe times the conjugate of one."""
    fs = draw(st.lists(factor(), min_size=1, max_size=4))
    if draw(st.booleans()):
        fs.append(draw(st.sampled_from(fs)))
    if conjugates and draw(st.booleans()):
        fs.append(_conjugate(draw(st.sampled_from(fs))))
    p = Poly.const(field, field.one * Fraction(draw(nonzero), draw(st.integers(1, 4))))
    for f in fs:
        p = p * f
    return p


@settings(max_examples=40, deadline=None)
@given(_product(_rational_factor, QQ))
def test_rational_products_factor_as_sympy_factors_them(p):
    assert factor_over_base(p, "QQ") == _oracle(p, "QQ")


@settings(max_examples=15, deadline=None)
@given(_product(_qsqrt5_factor, TOWER, conjugates=True))
def test_qsqrt5_products_factor_as_sympy_factors_them(p):
    assert factor_over_base(p, "Qsqrt5") == _oracle(p, "Qsqrt5")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["QQ", "Qsqrt5"]), st.data())
def test_cubic_root_count_matches_sympy(label, data):
    # a cubic with at least one root in the base field half the time
    F = QQ if label == "QQ" else TOWER
    factor = _rational_factor if label == "QQ" else _qsqrt5_factor
    degrees = data.draw(st.sampled_from([(1, 2), (3,)]))
    cubic = Poly.const(F, F.one)
    for d in degrees:
        cubic = cubic * data.draw(factor(d).filter(lambda f: f.degree() == d))
    cubic = cubic.monic()
    b, c, d = cubic.coeff(2), cubic.coeff(1), cubic.coeff(0)
    linear = sum(1 for f in _oracle(cubic, label) if f.degree() == 1)
    assert cubic_root_count(b, c, d, label) == linear


def test_factor_integer_recombines_lifted_factors():
    # x^4 + 1 is irreducible over Q but splits into quadratics modulo every
    # prime, so the lifted factors must be recombined; (x^2 - 2)(x^2 - 3)
    # splits into linear factors modulo 23
    assert factor_integer([1, 0, 0, 0, 1]) == [[1, 0, 0, 0, 1]]
    got = factor_integer([6, 0, -5, 0, 1])
    assert sorted(got) == [[-3, 0, 1], [-2, 0, 1]]
    # 6x^2 - x - 2 = (2x + 1)(3x - 2): a leading coefficient no factor has
    assert sorted(factor_integer([-2, -1, 6])) == [[-2, 3], [1, 2]]
    # not square-free: no prime certifies it
    assert factor_integer([1, 2, 1], 30) is None


def test_repeated_factors_are_refused():
    # the factoriser takes square-free input; factor_over_base passes it the
    # square-free part
    from dyk3.factor import irreducible_factors
    for F, c in ((QQ, Fraction(1)), (TOWER, TowerElement.k4(1, 0, 1))):
        f = Poly(F, [c, F.one])
        with pytest.raises(ValueError):
            irreducible_factors(f * f)


def test_no_module_imports_sympy():
    src = Path(__file__).resolve().parents[1] / "src" / "dyk3"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
