"""Weierstrass curves: exact invariants, twists, point counts, Frobenius
traces, the Hasse-invariant supersingularity test, and isogeny checking.

Every model here is y^2 = x^3 + a2 x^2 + a4 x + a6, and its standard
quantities (Silverman, AEC III.1) are written once, against a ring
protocol: an object R with R.add, R.sub, R.mul, R.smul(k, a) for an
integer k, R.inv of a unit, and R.zero and R.one.  The invariants need only
sub, mul and smul.  A field in the protocol that also has neg, is_zero and
from_int is a coefficient field of poly.Poly.  The rings that serve it:
  * ExtField, on its tuples;
  * surface's vector kernel _VecFq, invariants only, elementwise;
  * poly.OpRing, for elements with arithmetic operators: Fraction (QQ),
    TowerElement (numfield.TOWER) and Poly over any of these fields
    (whose units are the constants);
  * poly.LocalRing, on Poly residues mod a power of a place.
WeierstrassModel holds exact coefficients (Fraction or TowerElement);
CurveOverFq holds ExtField ones and counts points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ffield import ExtField, build_extension, rational_mod_p, sqrt_mod
from .numfield import TOWER, SplitEmbedding, TowerElement, reduce_mod_p
from .poly import OpRing, Poly, RationalFunc


def _b2_b4_b6(R, a2, a4, a6):
    return R.smul(4, a2), R.smul(2, a4), R.smul(4, a6)


def weierstrass_discriminant(R, a2, a4, a6):
    """Delta = 9 b2 b4 b6 - b2^2 b8 - 8 b4^3 - 27 b6^2 over the ring R."""
    b2, b4, b6 = _b2_b4_b6(R, a2, a4, a6)
    b8 = R.sub(R.smul(4, R.mul(a2, a6)), R.mul(a4, a4))
    t1 = R.mul(R.mul(b2, b2), b8)
    t2 = R.smul(8, R.mul(R.mul(b4, b4), b4))
    t3 = R.smul(27, R.mul(b6, b6))
    t4 = R.smul(9, R.mul(b2, R.mul(b4, b6)))
    return R.sub(R.sub(R.sub(t4, t1), t2), t3)


def weierstrass_c4_c6(R, a2, a4, a6):
    """(c4, c6) = (b2^2 - 24 b4, 36 b2 b4 - b2^3 - 216 b6) over the ring R."""
    b2, b4, b6 = _b2_b4_b6(R, a2, a4, a6)
    b22 = R.mul(b2, b2)
    c4 = R.sub(b22, R.smul(24, b4))
    c6 = R.sub(R.sub(R.smul(36, R.mul(b2, b4)), R.mul(b22, b2)),
               R.smul(216, b6))
    return c4, c6


def depressed_cubic(R, a2, a4, a6):
    """(P, Q) with x^3 + a2 x^2 + a4 x + a6 = X^3 + P X + Q at X = x + a2/3."""
    s = R.mul(a2, R.inv(R.smul(3, R.one)))
    ss = R.mul(s, s)
    return (R.sub(a4, R.mul(a2, s)),
            R.add(R.sub(a6, R.mul(a4, s)), R.mul(R.sub(a2, s), ss)))


def cubic_node(R, a2, a4, a6):
    """The double root r of x^3 + a2 x^2 + a4 x + a6 = (x - r)^2 (x - s)
    over a field R, or None at a triple root.

    a2^2 - 3 a4 = (r - s)^2 and 9 a6 - a2 a4 = 2r (r - s)^2.
    """
    den = R.smul(2, R.sub(R.mul(a2, a2), R.smul(3, a4)))
    if den == R.zero:
        return None
    return R.mul(R.sub(R.smul(9, a6), R.mul(a2, a4)), R.inv(den))


class WeierstrassModel:
    """y^2 = x^3 + a2 x^2 + a4 x + a6, coefficients Fraction or TowerElement."""

    def __init__(self, a2, a4, a6):
        self.a2, self.a4, self.a6 = a2, a4, a6
        self.ring = OpRing(a2 * 0 + 1)

    @classmethod
    def short(cls, a, b):
        return cls(a * 0, a, b)

    def j_invariant(self):
        R, a = self.ring, (self.a2, self.a4, self.a6)
        disc = weierstrass_discriminant(R, *a)
        if not disc:
            raise ZeroDivisionError("singular curve has no j-invariant")
        c4 = weierstrass_c4_c6(R, *a)[0]
        return c4 * c4 * c4 / disc

    def short_form(self):
        """(A, B) with y^2 = x^3 + Ax + B after depressing the cubic."""
        return depressed_cubic(self.ring, self.a2, self.a4, self.a6)

    def quadratic_twist(self, d):
        """Twist by d: (a2, a4, a6) -> (d a2, d^2 a4, d^3 a6)."""
        if not d:
            raise ValueError("twist by zero")
        return WeierstrassModel(d * self.a2, d * d * self.a4, d * d * d * self.a6)

    def reduce(self, emb: SplitEmbedding) -> "CurveOverFq":
        """Coefficient-wise reduction of a tower-coefficient model to F_p."""
        F = build_extension(emb.p, 1)
        def red(c):
            if isinstance(c, TowerElement):
                return (reduce_mod_p(c, emb),)
            return (rational_mod_p(c, emb.p),)
        return CurveOverFq(F, red(self.a2), red(self.a4), red(self.a6))


# ---------------------------------------------------------------------------
# curves over finite fields


@dataclass(frozen=True)
class TraceRecord:
    p: int
    n: int
    a: int
    count: int

    def __post_init__(self):
        q = self.p ** self.n
        if self.a * self.a > 4 * q:
            raise ValueError(f"trace {self.a} violates the Hasse bound for q={q}")
        if self.count != q + 1 - self.a:
            raise ValueError("count and trace disagree")


class CurveOverFq:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 over an ExtField (odd characteristic)."""

    def __init__(self, field: ExtField, a2, a4, a6):
        self.field = field
        self.a2, self.a4, self.a6 = a2, a4, a6
        if weierstrass_discriminant(field, a2, a4, a6) == field.zero:
            raise ValueError("singular curve")

    @classmethod
    def from_ints(cls, field, a2, a4, a6):
        return cls(field, field.from_int(a2), field.from_int(a4), field.from_int(a6))

    def rhs(self, x):
        F = self.field
        return F.add(F.mul(F.add(F.mul(F.add(x, self.a2), x), self.a4), x), self.a6)

    def count_points(self) -> TraceRecord:
        """1 + sum over x of (1 + chi(rhs(x))), exact character sum."""
        F = self.field
        total = F.q + 1
        for x in F.elements():
            total += F.chi(self.rhs(x))
        return TraceRecord(F.p, F.n, F.q + 1 - total, total)


def trace_lift(a: int, p: int, n: int) -> int:
    """alpha^n + beta^n from a = alpha + beta, alpha*beta = p."""
    if a * a > 4 * p:
        raise ValueError("trace violates the Hasse bound")
    s0, s1 = 2, a
    for _ in range(n - 1):
        s0, s1 = s1, a * s1 - p * s0
    return s1 if n >= 1 else s0


# ---------------------------------------------------------------------------
# supersingularity via the Hasse invariant


def _hasse_coefficient(A, B, field: ExtField):
    """Coefficient of x^(p-1) in (x^3 + Ax + B)^((p-1)/2), A, B nonzero in
    F_p or F_{p^2}: the Hasse invariant, O(p) field operations."""
    p = field.p
    m = (p - 1) // 2
    i0, i1 = (m + 1) // 2, (2 * m) // 3
    if i0 > i1:
        return field.one if m == 0 else field.zero
    fact = [1] * (m + 1)
    for i in range(1, m + 1):
        fact[i] = fact[i - 1] * i % p
    invf = [1] * (m + 1)
    invf[m] = pow(fact[m], p - 2, p)
    for i in range(m, 0, -1):
        invf[i - 1] = invf[i] * i % p
    j0, k0 = 2 * m - 3 * i0, 2 * i0 - m
    apow = field.pow(A, j0)
    bpow = field.pow(B, k0)
    inv_a3 = field.inv(field.pow(A, 3))
    b2 = field.mul(B, B)
    acc = field.zero
    i, j, k = i0, j0, k0
    while i <= i1:
        c = fact[m] * invf[i] % p * invf[j] % p * invf[k] % p
        acc = field.add(acc, field.smul(c, field.mul(apow, bpow)))
        i, j, k = i + 1, j - 3, k + 2
        apow = field.mul(apow, inv_a3)
        bpow = field.mul(bpow, b2)
    return acc


def is_supersingular(E: CurveOverFq) -> bool:
    """Vanishing of the Hasse invariant; p >= 5, extension degree <= 2."""
    F = E.field
    p = F.p
    if p < 5:
        raise ValueError("supersingularity test requires p >= 5")
    if F.n > 2:
        raise ValueError("supersingularity test limited to F_p and F_{p^2}")
    A, B = depressed_cubic(F, E.a2, E.a4, E.a6)
    if B == F.zero:
        # j = 1728
        return p % 4 == 3
    if A == F.zero:
        # j = 0
        return p % 3 == 2
    return _hasse_coefficient(A, B, F) == F.zero


def curve_with_j(field: ExtField, j0):
    """A curve with the given j-invariant."""
    F = field
    if j0 == F.zero:
        return CurveOverFq(F, F.zero, F.zero, F.one)
    if j0 == F.from_int(1728):
        return CurveOverFq(F, F.zero, F.one, F.zero)
    c = F.mul(j0, F.inv(F.sub(F.from_int(1728), j0)))  # j/(1728-j)
    a = F.smul(3, c)
    b = F.smul(2, c)
    return CurveOverFq(F, F.zero, a, b)


# ---------------------------------------------------------------------------
# supersingularity via the 2-isogeny graph (Sutherland)

# The classical modular polynomial Phi_2(X, Y) as (deg X, deg Y, coefficient).
PHI2 = ((3, 0, 1), (0, 3, 1), (2, 2, -1), (2, 1, 1488), (1, 2, 1488),
        (2, 0, -162000), (0, 2, -162000), (1, 1, 40773375),
        (1, 0, 8748000000), (0, 1, 8748000000), (0, 0, -157464000000000))


def _phi2_at(F: ExtField, j):
    """[e0, e1, e2] with Phi_2(j, Y) = Y^3 + e2 Y^2 + e1 Y + e0."""
    jp = [F.one, j]
    jp += [F.mul(j, j), F.mul(j, F.mul(j, j))]
    e = [F.zero] * 4
    for a, b, c in PHI2:
        e[b] = F.add(e[b], F.smul(c, jp[a]))
    return e[:3]


def _cubic_roots(F: ExtField, e0, e1, e2):
    """The three roots of Y^3 + e2 Y^2 + e1 Y + e0 in F, with multiplicity,
    or None if it does not split in F.  Cardano: Y = Z - e2/3 gives
    Z^3 + PZ + Q, and Z = u + v with u^3 = -Q/2 + sqrt(Q^2/4 + P^3/27),
    uv = -P/3.  F = F_{p^2} holds the cube roots of unity, so the cubic
    splits exactly when that square root and cube root exist."""
    inv = F.inv
    P, Q = depressed_cubic(F, e2, e1, e0)
    s = F.mul(e2, inv(F.from_int(3)))
    halfQ = F.mul(Q, inv(F.from_int(2)))
    d = F.sqrt(F.add(F.mul(halfQ, halfQ),
                     F.mul(F.mul(P, F.mul(P, P)), inv(F.from_int(27)))))
    if d is None:
        return None
    u3 = F.sub(d, halfQ)
    if u3 == F.zero:
        u3 = F.neg(F.add(d, halfQ))
    if u3 == F.zero:
        # P = Q = 0: a triple root
        return [F.neg(s)] * 3
    u = F.cbrt(u3)
    if u is None:
        return None
    v = F.neg(F.mul(P, inv(F.smul(3, u))))
    w = F.mul(F.sub(F.sqrt(F.from_int(-3)), F.one), inv(F.from_int(2)))
    w2 = F.mul(w, w)
    return [F.sub(F.add(F.mul(x, u), F.mul(y, v)), s)
            for x, y in ((F.one, F.one), (w, w2), (w2, w))]


def supersingular_walk(F: ExtField, j) -> bool:
    """Whether j in F = F_{p^2}, j not 0 or 1728, is supersingular.

    A. V. Sutherland, "Identifying supersingular elliptic curves" (2012):
    a supersingular j has all three 2-isogenous neighbours in F_{p^2}, and
    so has every vertex of its component.  An ordinary j lies on a volcano
    whose depth is below log2 p; of three non-backtracking paths from it,
    one descends and leaves F_{p^2} at the floor.  So walk three paths of
    ceil(log2 p) + 1 steps, each step dividing Phi_2(j_i, Y) by the root
    Y - j_(i-1) already visited and taking a root of the quadratic left.
    O(log^2 p) field operations, against O(p) for the Hasse invariant.
    """
    if F.n != 2:
        raise ValueError("the 2-isogeny walk runs in F_{p^2}")
    cur = _cubic_roots(F, *_phi2_at(F, j))
    if cur is None:
        return False
    prev = [j] * 3
    half = F.inv(F.from_int(2))
    for _ in range(F.p.bit_length() + 1):   # bit_length = ceil(log2 p), p odd
        for i in range(3):
            e0, e1, e2 = _phi2_at(F, cur[i])
            # Phi_2(cur, Y) / (Y - prev) = Y^2 + b Y + c
            b = F.add(e2, prev[i])
            c = F.add(e1, F.mul(prev[i], b))
            r = F.sqrt(F.sub(F.mul(b, b), F.smul(4, c)))
            if r is None:
                return False
            prev[i], cur[i] = cur[i], F.mul(F.sub(r, b), half)
    return True


# ---------------------------------------------------------------------------
# isogeny verification


class IsogenyMap:
    """phi(x, y) = (num_x/den_x (x), y * num_y/den_y (x)), declared degree."""

    def __init__(self, source: WeierstrassModel, target: WeierstrassModel,
                 num_x, den_x, num_y, den_y, degree: int, kernel_x=None):
        self.source, self.target = source, target
        self.num_x, self.den_x = num_x, den_x
        self.num_y, self.den_y = num_y, den_y
        self.degree = degree
        self.kernel_x = kernel_x

    def kernel_annihilates_denominator(self) -> bool:
        if self.kernel_x is None:
            return False
        return not Poly(TOWER, self.den_x)(self.kernel_x)


def verify_isogeny(phi: IsogenyMap, mode: str = "sampled",
                   primes=(31, 41, 79), points_per_prime: int = 50,
                   seed: int = 0xAB1E) -> dict:
    """Check that phi maps the source curve to the target curve.

    sampled: at each split prime, push >= `points_per_prime` random affine
    points of the reduced source through phi and test the target equation.
    symbolic: verify the target equation composed with phi vanishes
    identically modulo y^2 = rhs(x), by exact rational-function arithmetic.
    """
    if mode == "symbolic":
        return _verify_isogeny_symbolic(phi)
    if mode != "sampled":
        raise ValueError("mode must be 'sampled' or 'symbolic'")
    rng = random.Random(seed)
    checked = 0
    for p in primes:
        embs = SplitEmbedding.enumerate_k4(p)
        emb = embs[0]
        src = phi.source.reduce(emb)
        tgt = phi.target.reduce(emb)
        nx = [reduce_mod_p(c, emb) for c in phi.num_x]
        dx = [reduce_mod_p(c, emb) for c in phi.den_x]
        ny = [reduce_mod_p(c, emb) for c in phi.num_y]
        dy = [reduce_mod_p(c, emb) for c in phi.den_y]
        got = 0
        attempts = 0
        while got < points_per_prime:
            attempts += 1
            if attempts > 200 * points_per_prime:
                raise RuntimeError("point sampling failed to converge")
            x = rng.randrange(p)
            r = src.rhs((x,))[0]
            y = sqrt_mod(r, p)
            if y is None:
                continue
            den_val = _eval_int_poly(dx, x, p)
            deny_val = _eval_int_poly(dy, x, p)
            if den_val == 0 or deny_val == 0:
                continue
            X = _eval_int_poly(nx, x, p) * pow(den_val, p - 2, p) % p
            Y = y * _eval_int_poly(ny, x, p) % p * pow(deny_val, p - 2, p) % p
            lhs = Y * Y % p
            rhs = tgt.rhs((X,))[0]
            if lhs != rhs:
                return {"ok": False, "witness": {"p": p, "x": x, "y": y,
                                                 "X": X, "Y": Y, "rhs": rhs}}
            got += 1
        checked += got
    kernel_ok = phi.kernel_annihilates_denominator() if phi.kernel_x is not None else None
    return {"ok": True, "points_checked": checked, "mode": "sampled",
            "kernel_root_ok": kernel_ok}


def _eval_int_poly(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _verify_isogeny_symbolic(phi: IsogenyMap) -> dict:
    src, tgt = phi.source, phi.target
    Nx = Poly(TOWER, list(phi.num_x))
    Dx = Poly(TOWER, list(phi.den_x))
    Ny = Poly(TOWER, list(phi.num_y))
    Dy = Poly(TOWER, list(phi.den_y))
    if Dx.is_zero() or Dy.is_zero():
        return {"ok": False, "reason": "identically zero denominator"}
    X = RationalFunc(Nx, Dx)
    rhs_src = Poly(TOWER, [src.a6, src.a4, src.a2, TOWER.one])
    # phi_y^2 = rhs_src(x) * (Ny/Dy)^2
    lhs = RationalFunc(rhs_src) * RationalFunc(Ny, Dy) ** 2
    rhs = X ** 3 + RationalFunc(Poly.const(TOWER, tgt.a2)) * X ** 2 \
        + RationalFunc(Poly.const(TOWER, tgt.a4)) * X \
        + RationalFunc(Poly.const(TOWER, tgt.a6))
    diff = lhs - rhs
    ok = diff.is_zero()
    kernel_ok = phi.kernel_annihilates_denominator() if phi.kernel_x is not None else None
    return {"ok": ok, "mode": "symbolic", "kernel_root_ok": kernel_ok}
