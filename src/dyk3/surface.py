"""Point counts on the double sextic and through the elliptic fibration.

Two independent routes to |S(F_q)|:

  * count_smooth: character sum over P^2 for the singular double cover
    w^2 = f6, plus q * 14 for the exceptional curves of the five rational
    A-type singularities;
  * count_via_fibration: sum of fibre counts of the second elliptic
    fibration, good fibres by character sums, bad fibres by the
    minimal-model fibre table (component count and rationality recomputed
    over F_q at each rational bad point).

For q = p and q = p^2 both routes run one set of numpy kernels on F_q
elements held as int64 pairs a0 + a1*sqrt(r) mod p (_PairFq); larger
degrees use the scalar ExtField routes, which the tests also use as the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffield import ExtField, FqPoly, build_extension, find_roots, kronecker
from .fixtures import SurfaceFixture, load_surface
from .poly import Poly, QQ
from .tate import EllipticSurface, classify_tame

_VEC_Q_LIMIT = 1 << 21   # keeps p below 2^21, inside _PairFq's overflow bound


@dataclass
class SurfaceCount:
    q: int
    raw: int
    correction: int
    smooth: int

    def __post_init__(self):
        if self.smooth != self.raw + self.correction:
            raise ValueError("smooth != raw + correction")


# ---------------------------------------------------------------------------
# quadratic character tables


def chi_table(p: int) -> np.ndarray:
    t = np.full(p, -1, dtype=np.int64)
    sq = (np.arange(p, dtype=np.int64) ** 2) % p
    t[sq] = 1
    t[0] = 0
    return t


def _nonresidue(p: int) -> int:
    r = 2
    while kronecker(r, p) != -1:
        r += 1
    return r


class _PairFq:
    """F_q, q = p or p^2, as pairs (a0, a1) = a0 + a1*sqrt(r) of int64 arrays mod p.

    For q = p every a1 is zero, so the same products serve both degrees and
    only the quadratic character depends on n.  mul, sub and smul mirror
    ExtField, so _delta0 runs on either.
    """

    def __init__(self, field: ExtField):
        p = field.p
        # every operand lies in [0, p) and r < p, so the largest intermediate,
        # a0*b0 + r*(a1*b1) + c in horner, is below p^3
        assert p ** 3 < 2 ** 63, f"p = {p} overflows the int64 pair kernels"
        self.p, self.n, self.q = p, field.n, field.q
        self.chi_p = chi_table(p)
        ar = np.arange(p, dtype=np.int64)
        if field.n == 1:
            self.r = 0
            self.elements = (ar, np.zeros(p, dtype=np.int64))
        else:
            self.r = _nonresidue(p)
            self.elements = (np.tile(ar, p), np.repeat(ar, p))

    def mul(self, a, b):
        (a0, a1), (b0, b1) = a, b
        return (a0 * b0 + self.r * (a1 * b1)) % self.p, (a0 * b1 + a1 * b0) % self.p

    def sub(self, a, b):
        return (a[0] - b[0]) % self.p, (a[1] - b[1]) % self.p

    def smul(self, k: int, a):
        return k * a[0] % self.p, k * a[1] % self.p

    def horner(self, coeffs, x):
        """sum_k coeffs[k] * x^k, for pairs coeffs[k] of scalars or arrays mod p."""
        (x0, x1), r, p = x, self.r, self.p
        a0, a1 = np.zeros_like(x0), np.zeros_like(x1)
        for c0, c1 in reversed(coeffs):
            a0, a1 = (a0 * x0 + r * (a1 * x1) + c0) % p, (a0 * x1 + a1 * x0 + c1) % p
        return a0, a1

    def chi(self, a):
        """Quadratic character of F_q: chi_p of the norm a0 or a0^2 - r*a1^2."""
        a0, a1 = a
        if self.n == 1:
            return self.chi_p[a0]
        return self.chi_p[(a0 * a0 - self.r * (a1 * a1)) % self.p]


# ---------------------------------------------------------------------------
# counting the double sextic


def _check_good_prime(fix: SurfaceFixture, p: int):
    if p in fix.bad_primes:
        raise ValueError(f"p = {p} is a bad-reduction prime for {fix.name}")


def count_singular(fix: SurfaceFixture, field: ExtField) -> int:
    """sum over P^2(F_q) of (1 + chi(f6)), chi(0) = 0.

    P^2(F_q) is traversed as the charts z = 1, (x : 1 : 0), (1 : 0 : 0).
    """
    _check_good_prime(fix, field.p)
    if field.n <= 2 and field.q <= _VEC_Q_LIMIT:
        return _count_singular_np(fix, field)
    return _count_singular_scalar(fix, field)


def _count_singular_scalar(fix: SurfaceFixture, field: ExtField) -> int:
    F = field
    mono = [(e, c % F.p) for e, c in fix.monomials]
    total = 0

    def fval(x, y, z):
        acc = F.zero
        for (a, b, cdeg), coef in mono:
            term = F.smul(coef, F.mul(F.mul(F.pow(x, a), F.pow(y, b)), F.pow(z, cdeg)))
            acc = F.add(acc, term)
        return acc

    one = F.one
    for x in F.elements():
        for y in F.elements():
            total += 1 + F.chi(fval(x, y, one))
    for x in F.elements():
        total += 1 + F.chi(fval(x, one, F.zero))
    total += 1 + F.chi(fval(one, F.zero, F.zero))
    return total


def _x_coeffs(monos, p: int):
    """sum coef * x^a over (a, coef) as a dense list of constant pairs mod p."""
    cs = [0] * (1 + max((a for a, _ in monos), default=-1))
    for a, coef in monos:
        cs[a] = (cs[a] + coef) % p
    return [(c, 0) for c in cs]


def _count_singular_np(fix: SurfaceFixture, field: ExtField) -> int:
    """count_singular on the pair kernels: one x per step, every y at once."""
    K = _PairFq(field)
    p, q = K.p, K.q
    els = K.elements
    mono = fix.monomials
    ymax = max(b for (_, b, _), _ in mono)
    # chart z = 1: f(x, y, 1) = sum_b C_b(x) y^b, each C_b evaluated at every x
    C = [K.horner(_x_coeffs([(a, c) for (a, bb, _), c in mono if bb == b], p), els)
         for b in range(ymax + 1)]
    total = 0
    for i in range(q):
        acc = K.horner([(c0[i], c1[i]) for c0, c1 in C], els)
        total += q + int(K.chi(acc).sum())
    # chart (x : 1 : 0)
    line = K.horner(_x_coeffs([(a, c) for (a, _, cz), c in mono if cz == 0], p), els)
    total += q + int(K.chi(line).sum())
    # point (1 : 0 : 0)
    v = sum(c for (_, b, cz), c in mono if b == 0 and cz == 0) % p
    total += 1 + int(K.chi((v, 0)))
    return total


def count_smooth(fix: SurfaceFixture, field: ExtField) -> SurfaceCount:
    """Singular count plus q per exceptional curve of the resolution."""
    for entry in fix.profile:
        if not entry["rational_exceptional"]:
            raise NotImplementedError("non-rational exceptional profiles "
                                      "are not supported")
        _assert_point_singular(fix, entry["point"])
    raw = count_singular(fix, field)
    corr = field.q * fix.correction_sum
    return SurfaceCount(field.q, raw, corr, raw + corr)


def _assert_point_singular(fix, point):
    """The profile point must be singular on the sextic over Q:
    f = df/dx = df/dy = df/dz = 0 there."""
    x, y, z = (Fraction(c) for c in point)
    vals = [0, 0, 0, 0]
    for e, coef in fix.monomials:
        vals[0] += coef * x ** e[0] * y ** e[1] * z ** e[2]
        for k in range(3):
            if e[k]:
                d = list(e)
                d[k] -= 1
                vals[k + 1] += coef * e[k] * x ** d[0] * y ** d[1] * z ** d[2]
    if any(vals):
        raise ValueError("profile point is not singular on the sextic")


# ---------------------------------------------------------------------------
# fibration-side counting


def _poly_mod_p(poly: Poly, p: int):
    out = []
    for c in poly.coeffs:
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError(f"coefficient denominator divisible by {p}")
        out.append(c.numerator * pow(c.denominator, p - 2, p) % p)
    while out and out[-1] == 0:
        out.pop()
    return out


def cubic_node(F: ExtField, A2, A4, A6):
    """The double root r of x^3 + A2 x^2 + A4 x + A6 = (x - r)^2 (x - s)
    over F_q, or None at a triple root.

    A2^2 - 3 A4 = (r - s)^2 and 9 A6 - A2 A4 = 2r (r - s)^2.
    """
    den = F.smul(2, F.sub(F.mul(A2, A2), F.smul(3, A4)))
    if den == F.zero:
        return None
    return F.mul(F.sub(F.smul(9, A6), F.mul(A2, A4)), F.inv(den))


def bad_fiber_points(field: ExtField, a2: FqPoly, a4: FqPoly, a6: FqPoly) -> int:
    """F_q-points of the minimal regular fibre over t = 0.

    The coefficient polynomials are localized at the place t; the Kodaira
    type, splitness, and component rationality are recomputed over F_q.
    """
    F = field
    q = F.q

    def val(fp: FqPoly) -> int:
        if fp.is_zero():
            return 10 ** 9
        v = 0
        while fp.coeffs[v] == F.zero:
            v += 1
        return v

    while True:
        b2 = a2.scale(4)
        b4 = a4.scale(2)
        b6 = a6.scale(4)
        b8 = (a2 * a6).scale(4) - a4 * a4
        c4 = b2 * b2 - b4.scale(24)
        c6 = b4 * b2.scale(36) - b2 * b2 * b2 - b6.scale(216)
        delta = (b2 * b4 * b6).scale(9) - b2 * b2 * b8 \
            - (b4 * b4 * b4).scale(8) - (b6 * b6).scale(27)
        vd, vc4, vc6 = val(delta), val(c4), val(c6)
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
        A2 = a2.coeff0()
        x0 = cubic_node(F, A2, a4.coeff0(), a6.coeff0())
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
        P, Q = _depressed_cubic(F, a2, a4, a6)
        cubic = FqPoly(F, [Q.shift_down(3).coeff0(), P.shift_down(2).coeff0(),
                           F.zero, F.one])
        return 1 + q * (2 + len(find_roots(cubic, F)))
    if sym == "II":
        return q + 1
    if sym == "III":
        # identity plus a unique second component: both rational
        return 1 + 2 * q
    if sym == "IV":
        # split iff a6/pi^2 is a square after depressing the cubic
        _, Q = _depressed_cubic(F, a2, a4, a6)
        return 1 + 3 * q if F.chi(Q.shift_down(2).coeff0()) == 1 else 1 + q
    if sym == "II*":
        return 1 + 9 * q
    if sym == "III*":
        # the only simple component besides the identity is unique, so the
        # arm-swap symmetry cannot act: all 8 components rational
        return 1 + 8 * q
    if sym == "IV*":
        # the two non-identity simple arm ends are swapped unless a6/pi^4 is
        # a square (Tate step 8) after depressing the cubic
        _, Q = _depressed_cubic(F, a2, a4, a6)
        return 1 + 7 * q if F.chi(Q.shift_down(4).coeff0()) == 1 else 1 + 3 * q
    raise NotImplementedError(f"fibre counting for type {sym} not implemented")


def _depressed_cubic(F, a2, a4, a6):
    """(P, Q) with x^3 + a2 x^2 + a4 x + a6 = X^3 + P X + Q at X = x + a2/3."""
    s = a2.scale_elt(F.inv(F.from_int(3)))
    return a4 - a2 * s, a6 - a4 * s + a2 * s * s - s * s * s


def count_via_fibration(surface: EllipticSurface, field: ExtField) -> int:
    """|S(F_q)| as good-fibre character sums plus bad-fibre table counts."""
    if surface.fieldad is not QQ:
        raise NotImplementedError("fibration counting needs Q coefficients")
    p = field.p
    a2 = _poly_mod_p(surface.a2, p)
    a4 = _poly_mod_p(surface.a4, p)
    a6 = _poly_mod_p(surface.a6, p)
    inf = surface.infinity_model()
    a2u = _poly_mod_p(inf.a2, p)
    a4u = _poly_mod_p(inf.a4, p)
    a6u = _poly_mod_p(inf.a6, p)
    if field.n <= 2 and field.q <= _VEC_Q_LIMIT:
        good, bad_ts = _fibration_good_np(field, a2, a4, a6)
    else:
        good, bad_ts = _fibration_good_scalar(field, a2, a4, a6)
    total = good
    for t0 in bad_ts:
        sa2 = _shifted_fqpoly(field, a2, t0)
        sa4 = _shifted_fqpoly(field, a4, t0)
        sa6 = _shifted_fqpoly(field, a6, t0)
        total += bad_fiber_points(field, sa2, sa4, sa6)
    # fibre at infinity
    ua2 = _shifted_fqpoly(field, a2u, None)
    ua4 = _shifted_fqpoly(field, a4u, None)
    ua6 = _shifted_fqpoly(field, a6u, None)
    U = ua2.coeff0(), ua4.coeff0(), ua6.coeff0()
    if _delta0(field, *U) != field.zero:
        total += _good_fiber_count_scalar(field, *U)
    else:
        total += bad_fiber_points(field, ua2, ua4, ua6)
    return total


def _delta0(F, A2, A4, A6):
    """Discriminant of y^2 = x^3 + A2 x^2 + A4 x + A6 over an ExtField or _PairFq."""
    b2 = F.smul(4, A2)
    b4 = F.smul(2, A4)
    b6 = F.smul(4, A6)
    b8 = F.sub(F.smul(4, F.mul(A2, A6)), F.mul(A4, A4))
    t1 = F.mul(F.mul(b2, b2), b8)
    t2 = F.smul(8, F.mul(F.mul(b4, b4), b4))
    t3 = F.smul(27, F.mul(b6, b6))
    t4 = F.smul(9, F.mul(b2, F.mul(b4, b6)))
    return F.sub(F.sub(F.sub(t4, t1), t2), t3)


def _good_fiber_count_scalar(field, A2, A4, A6) -> int:
    F = field
    total = F.q + 1
    for x in F.elements():
        rhs = F.add(F.mul(F.add(F.mul(F.add(x, A2), x), A4), x), A6)
        total += F.chi(rhs)
    return total


def _fibration_good_scalar(field, a2, a4, a6):
    F = field
    good = 0
    bad_ts = []

    def evalp(coeffs, x):
        acc = F.zero
        for c in reversed(coeffs):
            acc = F.add(F.mul(acc, x), F.from_int(c))
        return acc

    for t0 in F.elements():
        A2, A4, A6 = evalp(a2, t0), evalp(a4, t0), evalp(a6, t0)
        if _delta0(F, A2, A4, A6) == F.zero:
            bad_ts.append(t0)
        else:
            good += _good_fiber_count_scalar(F, A2, A4, A6)
    return good, bad_ts


def _fibration_good_np(field, a2, a4, a6):
    """_fibration_good_scalar on the pair kernels: one t per step, every x at once."""
    K = _PairFq(field)
    ts = xs = K.elements
    A2, A4, A6 = (K.horner([(c, 0) for c in a], ts) for a in (a2, a4, a6))
    D0, D1 = _delta0(K, A2, A4, A6)
    bad_mask = (D0 == 0) & (D1 == 0)
    good = 0
    for i in np.flatnonzero(~bad_mask):
        rhs = K.horner([(A6[0][i], A6[1][i]), (A4[0][i], A4[1][i]),
                        (A2[0][i], A2[1][i]), (1, 0)], xs)
        good += K.q + 1 + int(K.chi(rhs).sum())
    # t = u0 + u1*sqrt(r) back in ExtField form: r is not the field's generator
    bad_ts = [_pair_to_field_elem(field, int(ts[0][i]), int(ts[1][i]), K.r)
              for i in np.flatnonzero(bad_mask)]
    return good, bad_ts


def _pair_to_field_elem(field: ExtField, u0: int, u1: int, r: int):
    """(u0 + u1*sqrt(r)) as an element of the canonical F_{p^2}."""
    if u1 == 0:
        return field.from_int(u0)
    s = field.sqrt(field.from_int(r))
    if s is None:
        raise AssertionError("nonresidue has no root in F_{p^2}?")
    return field.add(field.from_int(u0), field.smul(u1, s))


def _shifted_fqpoly(field: ExtField, int_coeffs, t0) -> FqPoly:
    """Coefficient list mod p recentred at t0 (t0 None = already local)."""
    F = field
    poly = FqPoly(F, [F.from_int(c) for c in int_coeffs])
    if t0 is None or t0 == F.zero:
        return poly
    return poly.shift(t0)


# three-way driver -----------------------------------------------------------


def three_way_counts(p: int, n: int, fix: SurfaceFixture | None = None,
                     fibration: EllipticSurface | None = None) -> dict:
    """count_smooth and count_via_fibration at q = p^n, exact integers."""
    from .models import e2_surface
    fix = fix or load_surface()
    fibration = fibration or e2_surface()
    field = build_extension(p, n)
    smooth = count_smooth(fix, field)
    fib = count_via_fibration(fibration, field)
    return {"p": p, "n": n, "q": field.q, "count_smooth": smooth.smooth,
            "count_raw": smooth.raw, "count_fibration": fib,
            "agree": smooth.smooth == fib}
