"""The bad-fibre classifier that surface.py used to carry, kept as the
differential oracle of the generic tate.EllipticSurface path over F_q.

It localises the mod-p coefficient lists at t0 by shifting, minimalises by
dividing out t^(2, 4, 6), reads the Kodaira type off the valuations of
(c4, c6, Delta) and counts the F_q-points of the minimal regular fibre, all
on its own.
"""

from dyk3.elliptic import (cubic_node, depressed_cubic, weierstrass_c4_c6,
                           weierstrass_discriminant)
from dyk3.ffield import ExtField, find_roots
from dyk3.poly import OpRing, Poly
from kodaira_type_oracle import classify_tame


def bad_fiber_points_oracle(field: ExtField, a2: Poly, a4: Poly, a6: Poly) -> int:
    """F_q-points of the minimal regular fibre over t = 0.

    The coefficient polynomials, Polys over F_q, are localized at the place
    t; the Kodaira type, splitness, and component rationality are
    recomputed over F_q.
    """
    F = field
    q = F.q
    R = OpRing(Poly.const(F, F.one))

    def val(fp: Poly) -> int:
        if fp.is_zero():
            return 10 ** 9
        v = 0
        while F.is_zero(fp.coeffs[v]):
            v += 1
        return v

    while True:
        c4, c6 = weierstrass_c4_c6(R, a2, a4, a6)
        vd = val(weierstrass_discriminant(R, a2, a4, a6))
        vc4, vc6 = val(c4), val(c6)
        if vd >= 12 and vc4 >= 4 and vc6 >= 6:
            a2 = a2.shift_down(2)
            a4 = a4.shift_down(4)
            a6 = a6.shift_down(6)
            continue
        break
    sym, n = classify_tame(vc4, vc6, vd)
    if sym == "I0":
        raise ValueError("fibre is smooth after minimalisation")
    if sym.startswith("I") and sym[1:].isdigit():
        A2 = a2.coeff(0)
        x0 = cubic_node(F, A2, a4.coeff(0), a6.coeff(0))
        if x0 is None:
            raise AssertionError("multiplicative fibre without a unique node")
        tangent = F.add(F.smul(3, x0), A2)
        split = F.chi(tangent) == 1
        if n == 1:
            return q if split else q + 2
        if split:
            return n * q
        return 2 + 2 * q if n % 2 == 0 else 2 + q
    if sym == "I0*":
        # legs from the step-6 cubic X^3 + (P/pi^2) X + Q/pi^3
        P, Q = depressed_cubic(R, a2, a4, a6)
        cubic = Poly(F, [Q.shift_down(3).coeff(0), P.shift_down(2).coeff(0),
                         F.zero, F.one])
        return 1 + q * (2 + len(find_roots(cubic, F)))
    if sym == "II":
        return q + 1
    if sym == "III":
        # identity plus a unique second component: both rational
        return 1 + 2 * q
    if sym == "IV":
        # split iff a6/pi^2 is a square after depressing the cubic
        _, Q = depressed_cubic(R, a2, a4, a6)
        return 1 + 3 * q if F.chi(Q.shift_down(2).coeff(0)) == 1 else 1 + q
    if sym == "II*":
        return 1 + 9 * q
    if sym == "III*":
        # the only simple component besides the identity is unique, so the
        # arm-swap symmetry cannot act: all 8 components rational
        return 1 + 8 * q
    if sym == "IV*":
        # the two non-identity simple arm ends are swapped unless a6/pi^4 is
        # a square (Tate step 8) after depressing the cubic
        _, Q = depressed_cubic(R, a2, a4, a6)
        return 1 + 7 * q if F.chi(Q.shift_down(4).coeff(0)) == 1 else 1 + 3 * q
    raise NotImplementedError(f"fibre counting for type {sym} not implemented")


def shifted_poly(field: ExtField, int_coeffs, t0) -> Poly:
    """Coefficient list mod p as a Poly over F_q, recentred at t0 (t0 None =
    already local)."""
    poly = Poly.from_ints(field, int_coeffs)
    if t0 is None or field.is_zero(t0):
        return poly
    return poly.shift(t0)
