"""The bundled elliptic-surface models and sections of the K3 surface.

All Weierstrass data is printed source material; coefficients are exact.
The first two fibrations are defined over Q(t); the free generator of the
first one needs sqrt5, so both surfaces can be built either with Fraction
coefficients or with tower coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .numfield import TOWER, TowerElement
from .poly import Poly, QQ
from .tate import EllipticSurface, SectionPoint


def _poly(fieldad, ints):
    return Poly.from_ints(fieldad, ints)


def _tpoly(pairs):
    """Poly over TOWER from a low-to-high list of (c1, c_s5) pairs."""
    return Poly(TOWER, [TowerElement.k4(c1, 0, c5, 0) for c1, c5 in pairs])


def e1_surface(field: str = "QQ") -> EllipticSurface:
    """y^2 = x^3 + (t-1)^2 (t^2+6t+1) x^2 - 16 t^3 (t-1)^2 x."""
    F = QQ if field == "QQ" else TOWER
    a2 = _poly(F, [1, 4, -10, 4, 1])
    a4 = _poly(F, [0, 0, 0, -16, 32, -16])
    a6 = Poly(F, [])
    return EllipticSurface(F, a2, a4, a6, chi=2, name="E1")


def e2_surface(field: str = "QQ") -> EllipticSurface:
    """y^2 = x^3 - (3t^4+8t^3-2t^2-1) x^2 + 16 t^5 (t^2+t-1) x."""
    F = QQ if field == "QQ" else TOWER
    a2 = _poly(F, [1, 0, 2, -8, -3])
    a4 = _poly(F, [0, 0, 0, 0, 0, -16, 16, 16])
    a6 = Poly(F, [])
    return EllipticSurface(F, a2, a4, a6, chi=2, name="E2")


def e1_sections(surface: EllipticSurface | None = None):
    """(T, P1, P2) on the first fibration; P2 needs tower coefficients."""
    E = surface or e1_surface("tower")
    F = E.fieldad
    T = SectionPoint(E, Poly(F, []), Poly(F, []))
    # P1 = (4t(t-1), -4t(t+1)(t-1)^2)
    x1 = _poly(F, [0, -4, 4])
    y1 = _poly(F, [0, -4, 4, 4, -4])
    P1 = SectionPoint(E, x1, y1)
    if F is TOWER:
        # P2 = (4t^3(t-1), -4 sqrt5 t^3 (t+1)(t-1)^2)
        s5 = TowerElement.k4(0, 0, 1, 0)
        x2 = Poly(F, [F.zero, F.zero, F.zero, F.from_int(-4), F.from_int(4)])
        y2 = Poly(F, [F.zero, F.zero, F.zero,
                      s5 * -4, s5 * 4, s5 * 4, s5 * -4])
        P2 = SectionPoint(E, x2, y2)
    else:
        P2 = None
    return T, P1, P2


def e2_sections(surface: EllipticSurface | None = None):
    """(T, P3) with T = (0,0) and P3 = (4t^3, 4t^3(t^2-1))."""
    E = surface or e2_surface()
    F = E.fieldad
    T = SectionPoint(E, Poly(F, []), Poly(F, []))
    x3 = _poly(F, [0, 0, 0, 4])
    y3 = _poly(F, [0, 0, 0, -4, 0, 4])
    P3 = SectionPoint(E, x3, y3)
    return T, P3


def third_fibration_quartic():
    """Coefficient polys (in t, over Q(sqrt5)) of ty^2 = quartic(x).

    Returned low-to-high in x: [q0(t), q1(t), q2(t), q3(t), 1].
    """
    half = Fraction(1, 2)
    q3 = _tpoly([(76, -34), (-148, 66), (272, -116)])
    q2 = _tpoly([
        (Fraction(8667, 2), Fraction(-3876, 2)),
        (Fraction(-87871, 2), Fraction(39297, 2)),
        (Fraction(160725, 2), Fraction(-71882, 2)),
        (Fraction(-138785, 2), Fraction(62037, 2)),
        (52974, -23664),
    ])
    q1 = _tpoly([
        (Fraction(219602, 2), Fraction(-98209, 2)),
        (Fraction(-11887758, 2), Fraction(5316367, 2)),
        (Fraction(23538663, 2), Fraction(-10526810, 2)),
        (Fraction(-31933423, 2), Fraction(14281062, 2)),
        (Fraction(31783015, 2), Fraction(-14213809, 2)),
        (Fraction(-19655187, 2), Fraction(8789895, 2)),
        (4689008, -2096932),
    ])
    q0 = _tpoly([
        (Fraction(16692641, 16), Fraction(-7465176, 16)),
        (Fraction(-1364444125, 8), Fraction(610197963, 8)),
        (Fraction(560512177, 8), Fraction(-250668666, 8)),
        (Fraction(-42814206, 4), Fraction(19147095, 4)),
        (Fraction(4252986577, 16), Fraction(-1901993416, 16)),
        (Fraction(-5253645563, 8), Fraction(2349501743, 8)),
        (Fraction(2945029977, 4), Fraction(-1317057443, 4)),
        (-427682729, 191265401),
        (155726921, -69643152),
    ])
    one = Poly.const(TOWER, TOWER.one)
    return [q0, q1, q2, q3, one]


def third_fibration_i1_quartic() -> Poly:
    """t^4 - ((1118 sqrt5 + 2598)/27) t^3 - ((89700 sqrt5 + 200362)/27) t^2
    - ((1118 sqrt5 + 2598)/27) t + 1, the stated I_1 locus."""
    c31 = TowerElement.k4(Fraction(-2598, 27), 0, Fraction(-1118, 27), 0)
    c2 = TowerElement.k4(Fraction(-200362, 27), 0, Fraction(-89700, 27), 0)
    return Poly(TOWER, [TOWER.one, c31, c2, c31, TOWER.one])


# p, q2 and q0 of the pulled-back fibration, as (c1, c_s5) pairs
INOSE_COEFFS = ((Fraction(-71, 6), Fraction(-45, 6)),
                (Fraction(3, 2), Fraction(-1, 2)),
                (Fraction(-551, 27), Fraction(-189, 27)))


def inose_surface() -> EllipticSurface:
    """The pulled-back fibration with fibre
    y^2 = x^3 + p t^4 x + q2 t^8 + q0 t^6 + q2 t^4, where (INOSE_COEFFS)
    p = (1/6)(-45 sqrt5 - 71), q2 = (1/2)(3-sqrt5), q0 = (1/27)(-189 sqrt5 - 551)."""
    p, q2, q0 = INOSE_COEFFS
    z = (0, 0)
    a4 = _tpoly([z, z, z, z, p])
    a6 = _tpoly([z, z, z, z, q2, z, q0, z, q2])
    return EllipticSurface(TOWER, Poly(TOWER, []), a4, a6, chi=2, name="Inose")


def kummer_surface(a: TowerElement, b: TowerElement, c: TowerElement,
                   d: TowerElement):
    """The product-abelian-surface fibration in its polynomial model.

    Laurent form: Y^2 = X^3 - 3ac X + (1/64)(D1 u^2 + 864 bd + D2/u^2) with
    D1, D2 the short-model discriminants of (a,b) and (c,d); the returned
    surface is the u^2-rescaled polynomial model.  Also returns the Laurent
    coefficient data used by the coefficient-matching check.
    """
    D1 = -16 * (4 * a ** 3 + 27 * b * b)
    D2 = -16 * (4 * c ** 3 + 27 * d * d)
    p = -3 * a * c
    s64 = Fraction(1, 64)
    q_um2 = D2 * s64
    q_0 = 864 * s64 * b * d
    q_u2 = D1 * s64
    z = TOWER.zero
    a4 = Poly(TOWER, [z, z, z, z, p])
    a6 = Poly(TOWER, [z, z, z, z, q_um2, z, q_0, z, q_u2])
    surf = EllipticSurface(TOWER, Poly(TOWER, []), a4, a6, chi=2, name="Kummer")
    laurent = {"x_coeff": p, "u2": q_u2, "const": q_0, "um2": q_um2,
               "disc_ab": D1, "disc_cd": D2}
    return surf, laurent


def rational_elliptic_test_surface(kind: str = "additive-inf") -> EllipticSurface:
    """chi=1 rational elliptic surfaces used as counting self-checks.

    "additive-inf": y^2 = x^3 + x + t, a II* fibre over t = inf plus two I1;
    "free-section": y^2 = x^3 + t x + 1, a III* over t = inf, three I1, and
    the section (0, 1) generating the Mordell-Weil rank.
    """
    if kind == "additive-inf":
        a4 = _poly(QQ, [1])
        a6 = _poly(QQ, [0, 1])
    elif kind == "free-section":
        a4 = _poly(QQ, [0, 1])
        a6 = _poly(QQ, [1])
    else:
        raise ValueError(kind)
    return EllipticSurface(QQ, Poly(QQ, []), a4, a6, chi=1,
                           name=f"rational-test-{kind}")
