"""Weierstrass curves: exact invariants, twists, point counts, Frobenius
traces, the Hasse-invariant supersingularity test, and isogeny checking.

Two element regimes:
  * exact coefficients (Fraction / TowerElement / Poly / RationalFunc):
    class WeierstrassModel, purely symbolic;
  * finite-field coefficients (ExtField tuples): class CurveOverFq with the
    counting kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .ffield import ExtField, build_extension, sqrt_mod
from .numfield import SplitEmbedding, TowerElement, reduce_mod_p


class WeierstrassModel:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with exact coefficients.

    `zero` must be the additive identity of the coefficient ring.
    """

    def __init__(self, a1, a2, a3, a4, a6, zero=None):
        if zero is None:
            zero = a1 * 0
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        self.zero = zero

    @classmethod
    def short(cls, a, b):
        z = a * 0
        return cls(z, z, z, a, b)

    @classmethod
    def with_a2(cls, a2, a4, a6=None):
        z = a2 * 0
        return cls(z, a2, z, a4, a6 if a6 is not None else z)

    # -- standard quantities ---------------------------------------------------
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c4_c6_disc(self):
        b2, b4, b6, b8 = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        return c4, c6, disc

    def discriminant(self):
        return self.c4_c6_disc()[2]

    def j_invariant(self):
        c4, _, disc = self.c4_c6_disc()
        if not disc:
            raise ZeroDivisionError("singular curve has no j-invariant")
        return c4 * c4 * c4 / disc

    def rhs_coeffs(self):
        """Coefficients of the completed-square cubic x^3 + Ax^2 + Bx + C."""
        b2, b4, b6, _ = self.b_invariants()
        return b2 / 4, b4 / 2, b6 / 4

    def short_form(self):
        """(A, B) with y^2 = x^3 + Ax + B after completing square and cube."""
        p2, p4, p6 = self.rhs_coeffs()
        # x -> x - p2/3
        s = p2 / 3
        A = p4 - p2 * s
        B = p6 - p4 * s + p2 * s * s - s * s * s
        return A, B

    def quadratic_twist(self, d):
        """Twist by d of a model with a1 = a3 = 0: (a2,a4,a6) -> (d a2, d^2 a4, d^3 a6)."""
        if self.a1 != self.zero or self.a3 != self.zero:
            raise ValueError("twist implemented for a1 = a3 = 0 models")
        if not d:
            raise ValueError("twist by zero")
        return WeierstrassModel(self.zero, d * self.a2, self.zero,
                                d * d * self.a4, d * d * d * self.a6)

    def reduce(self, emb: SplitEmbedding) -> "CurveOverFq":
        """Coefficient-wise reduction of a tower-coefficient model to F_p."""
        F = build_extension(emb.p, 1)
        def red(c):
            if isinstance(c, TowerElement):
                return (reduce_mod_p(c, emb),)
            return ((Fraction(c).numerator * pow(Fraction(c).denominator, emb.p - 2, emb.p)) % emb.p,)
        if self.a1 != self.zero or self.a3 != self.zero:
            raise ValueError("reduction implemented for a1 = a3 = 0 models")
        return CurveOverFq(F, red(self.a2), red(self.a4), red(self.a6))


def quadratic_twist(model: WeierstrassModel, d):
    return model.quadratic_twist(d)


def j_invariant(model: WeierstrassModel):
    return model.j_invariant()


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


def weierstrass_discriminant(F, a2, a4, a6):
    """Discriminant of y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q.

    F is an ExtField, or any object with its mul, sub and smul on its own
    element type, such as surface's vector kernel.
    """
    b2 = F.smul(4, a2)
    b4 = F.smul(2, a4)
    b6 = F.smul(4, a6)
    b8 = F.sub(F.smul(4, F.mul(a2, a6)), F.mul(a4, a4))
    t1 = F.mul(F.mul(b2, b2), b8)
    t2 = F.smul(8, F.mul(F.mul(b4, b4), b4))
    t3 = F.smul(27, F.mul(b6, b6))
    t4 = F.smul(9, F.mul(b2, F.mul(b4, b6)))
    return F.sub(F.sub(F.sub(t4, t1), t2), t3)


class CurveOverFq:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 over an ExtField (odd characteristic)."""

    def __init__(self, field: ExtField, a2, a4, a6):
        self.field = field
        self.a2, self.a4, self.a6 = a2, a4, a6
        if self.discriminant() == field.zero:
            raise ValueError("singular curve")

    @classmethod
    def from_ints(cls, field, a2, a4, a6):
        return cls(field, field.from_int(a2), field.from_int(a4), field.from_int(a6))

    def rhs(self, x):
        F = self.field
        return F.add(F.mul(F.add(F.mul(F.add(x, self.a2), x), self.a4), x), self.a6)

    def discriminant(self):
        return weierstrass_discriminant(self.field, self.a2, self.a4, self.a6)

    def short_ab(self):
        """(A, B) with y^2 = x^3 + Ax + B after depressing the cubic."""
        F = self.field
        inv3 = F.inv(F.from_int(3))
        s = F.mul(self.a2, inv3)
        A = F.sub(self.a4, F.mul(self.a2, s))
        B = F.add(F.sub(self.a6, F.mul(self.a4, s)),
                  F.sub(F.mul(self.a2, F.mul(s, s)), F.mul(s, F.mul(s, s))))
        return A, B

    def count_points(self) -> TraceRecord:
        """1 + sum over x of (1 + chi(rhs(x))), exact character sum."""
        F = self.field
        total = F.q + 1
        for x in F.elements():
            total += F.chi(self.rhs(x))
        return TraceRecord(F.p, F.n, F.q + 1 - total, total)

    def trace(self) -> int:
        return self.count_points().a


def count_points(E: CurveOverFq) -> TraceRecord:
    return E.count_points()


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


def _hasse_coefficient_prime(A: int, B: int, p: int) -> int:
    """Coefficient of x^(p-1) in (x^3+Ax+B)^((p-1)/2) mod p, A,B nonzero."""
    m = (p - 1) // 2
    i0 = (m + 1) // 2
    i1 = (2 * m) // 3
    if i0 > i1:
        return 1 if m == 0 else 0
    # factorial tables mod p up to m
    fact = [1] * (m + 1)
    for i in range(1, m + 1):
        fact[i] = fact[i - 1] * i % p
    invf = [1] * (m + 1)
    invf[m] = pow(fact[m], p - 2, p)
    for i in range(m, 0, -1):
        invf[i - 1] = invf[i] * i % p
    j0, k0 = 2 * m - 3 * i0, 2 * i0 - m
    apow = pow(A, j0, p)
    bpow = pow(B, k0, p)
    inv_a3 = pow(pow(A, 3, p), p - 2, p)
    b2 = B * B % p
    acc = 0
    i, j, k = i0, j0, k0
    while i <= i1:
        c = fact[m] * invf[i] % p * invf[j] % p * invf[k] % p
        acc = (acc + c * apow % p * bpow) % p
        i, j, k = i + 1, j - 3, k + 2
        apow = apow * inv_a3 % p
        bpow = bpow * b2 % p
    return acc


def _hasse_coefficient_ext(A, B, field: ExtField):
    """Same coefficient with A, B in F_{p^2} (both nonzero)."""
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
    A, B = E.short_ab()
    if B == F.zero:
        # j = 1728
        return p % 4 == 3
    if A == F.zero:
        # j = 0
        return p % 3 == 2
    if F.n == 1:
        return _hasse_coefficient_prime(A[0], B[0], p) == 0
    return _hasse_coefficient_ext(A, B, F) == F.zero


def curve_with_j(field: ExtField, j0):
    """A curve with the given j-invariant (j0 not 0 or 1728)."""
    F = field
    c = F.mul(j0, F.inv(F.sub(F.from_int(1728), j0)))  # j/(1728-j)
    a = F.smul(3, c)
    b = F.smul(2, c)
    return CurveOverFq(F, F.zero, a, b)


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
        val = _eval_poly(self.kernel_x * 0, self.den_x, self.kernel_x)
        return not val


def _eval_poly(zero, coeffs, x):
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
    from .poly import Poly, RationalFunc, TOWER
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
