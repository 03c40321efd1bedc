"""Point counts on the double sextic and through the elliptic fibration.

Two independent routes to |S(F_q)|:

  * count_smooth: character sum over P^2 for the singular double cover
    w^2 = f6, plus q * 14 for the exceptional curves of the five rational
    A-type singularities;
  * count_via_fibration: sum of fibre counts of the second elliptic
    fibration, good fibres by character sums, bad fibres by a table of
    point counts keyed by the Kodaira data that tate.EllipticSurface's
    local_type finds for the fibration reduced mod p, over F_q.

Both routes run on one numpy kernel (_VecFq) for every q = p^n, n <= 4:
F_q elements are n-tuples of int64 arrays mod p in the polynomial basis of
the ExtField modulus, and the quadratic character is one lookup table of
the squares.  Element arithmetic asserts 2 n^2 p^3 < 2^63 on entry.

Every character sum is one call of _VecFq.char_sum: over the x of the
chart z = 1, the t of the good fibres, the line z = 0 and the fibre at
infinity.  The sextic and a2, a4, a6 have F_p coefficients, so it takes
one row per Frobenius orbit x ~ x^p, weighted by the orbit's size, and
sums over y by one matrix product whose entries are integers of at most
n (B + 1) (p - 1)^2: in float32 when that is below 2^24, as at every
n >= 2 counted, and in float64 otherwise, where it asserts that it is below
2^53.  Scalar ExtField versions of both routes live in the tests as the
differential oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .elliptic import weierstrass_discriminant
from .ffield import ExtField, build_extension, rational_mod_p
from .fixtures import SurfaceFixture, load_surface
from .poly import Poly, QQ
from .tate import EllipticSurface, LocalFibreData, Place

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
# the F_q kernel


# _VecFq.char_sum takes A @ M in blocks of about BLOCK entries, SLAB values
# of y wide, so that a block, its temporaries and a slab of M stay in cache
BLOCK = 2 ** 15
SLAB = 2 ** 9


def _mod(a, p):
    """a mod p; numpy's int64 // by a scalar is faster than its %."""
    return a - a // p * p


class _VecFq:
    """F_q, q = p^n with n <= 4, as n-tuples of int64 arrays mod p.

    A tuple holds the coefficients of its elements in the polynomial basis
    of field.modulus, as an ExtField element does: element k of `elements`
    is field.decode(k), and an ExtField element is a tuple of scalars here.
    mul, sub and smul mirror ExtField, so elliptic's Weierstrass invariants
    run on either.
    """

    def __init__(self, field: ExtField):
        p, n = field.p, field.n
        # _product's results, plus horner's c < p, stay below 2 n^2 p^3
        assert 2 * n * n * p ** 3 < 2 ** 63, f"q = {p}^{n} overflows the int64 kernel"
        self.field, self.p, self.n, self.q = field, p, n, field.q
        # x^n = sum_j fold[j] x^j modulo field.modulus
        self.fold = [-c % p for c in field.modulus]
        self.weights = [p ** i for i in range(n)]
        self.basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        k = np.arange(self.q, dtype=np.int64)
        self.elements = tuple(k // w % p for w in self.weights)
        self.chi_q = np.full(self.q, -1, dtype=np.int8)
        self.chi_q[self.encode(self.mul(self.elements, self.elements))] = 1
        self.chi_q[0] = 0

    def _product(self, a, b):
        """The n coefficients of a*b, unreduced, for a, b reduced mod p.

        The 2n - 1 raw coefficients are below n p^2.  x^k, k >= n, folds
        back through the modulus from the top; a coefficient is reduced
        before it folds only when it folds into another high one, so the
        last high coefficient is below 2n p^2 and every result below
        2n p^2 (p + 1).
        """
        n, p = self.n, self.p
        r = [None] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                t = a[i] * b[j]
                r[i + j] = t if r[i + j] is None else r[i + j] + t
        for k in range(2 * n - 2, n - 1, -1):
            if k > n:
                r[k] %= p
            for j, m in enumerate(self.fold):
                if m:
                    r[k - n + j] = r[k - n + j] + m * r[k]
        return r[:n]

    def mul(self, a, b):
        return tuple(_mod(c, self.p) for c in self._product(a, b))

    def sub(self, a, b):
        return tuple(_mod(u - v, self.p) for u, v in zip(a, b))

    def smul(self, k: int, a):
        return tuple(k * u % self.p for u in a)

    def horner(self, coeffs, x):
        """sum_k coeffs[k] * x^k at every element of the array tuple x;
        each coeffs[k] is one element, a tuple of scalars."""
        p = self.p
        if not coeffs:
            return tuple(np.zeros_like(u) for u in x)
        acc = tuple(np.full_like(x[0], c) for c in coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = tuple(_mod(r + ck, p) for r, ck in zip(self._product(acc, x), c))
        return acc

    def encode(self, a):
        """ExtField.encode, elementwise: the index of a in `elements`."""
        return sum(w * u for w, u in zip(self.weights, a))

    def chi(self, a):
        """Quadratic character of F_q, chi(0) = 0."""
        return self.chi_q[self.encode(a)]

    def frobenius(self, a):
        """a^p, elementwise.  x -> x^p is F_p-linear, so a^p is
        sum_i a_i (x^i)^p."""
        images = [self.field.pow(e, self.p) for e in self.basis]
        return tuple(sum(g[j] * u for g, u in zip(images, a)) % self.p
                     for j in range(self.n))

    def orbits(self):
        """(reps, sizes): the least index in `elements` of each Frobenius
        orbit x ~ x^p, and the orbit's size."""
        frob = self.encode(self.frobenius(self.elements))
        k = np.arange(self.q)
        least, size, cur = k.copy(), np.zeros_like(k), k
        for d in range(1, self.n + 1):
            cur = frob[cur]
            np.minimum(least, cur, out=least)
            size[(size == 0) & (cur == k)] = d
        reps = np.flatnonzero(least == k)
        return reps, size[reps]

    def char_sum(self, C, weights) -> int:
        """sum_r weights[r] * sum_{y in F_q} chi(sum_b C[b][r] y^b).

        C[b] is an element tuple of arrays, one entry per row r, or of
        scalars shared by every row.  c -> c y^b is F_p-linear, so the
        coordinates of every sum are one floating product A @ M: row r of A
        holds the coordinates of C[0][r], C[1][r], ..., and column (y, j)
        of M the j-th coordinates of x^i y^b.  The product is taken a block
        of rows by a slab of y at a time, each slab reused over every row.

        Every entry of A @ M, and every partial sum of it, is an integer
        from 0 to m (p - 1)^2, m = n (B + 1).  The kernel runs in float32
        when m (p - 1)^2 < 2^24 (and q <= 2^24, as every q counted at is),
        and in float64 otherwise, where it asserts m (p - 1)^2 < 2^53.
        Below its dtype's bound 2^d (d = 24 or 53):
          * A @ M is exact in any summation order, with or without FMA:
            every term and partial sum is representable;
          * for F = k p + r, 0 <= r < p, floor(fl(F / p)) = k.  k <= F / p
            and k is representable, and k + 1 - F / p = (p - r) / p >= 1/p,
            more than half an ulp of F / p, which is at most
            (F / p) 2^-d < 1/p;
          * so T p and F - T p are exact, and so is the encoded index:
            its terms and partial sums are integers below q.
        """
        n, p, q = self.n, self.p, self.q
        m = n * len(C)
        bound = m * (p - 1) ** 2
        assert bound < 2 ** 53, f"q = {p}^{n} overflows the float64 kernel"
        dt = np.float32 if bound < 2 ** 24 and q <= 2 ** 24 else np.float64
        weights = np.asarray(weights, dtype=np.int64)
        A = np.empty((len(weights), m), dtype=dt)
        M = np.empty((m, q, n), dtype=dt)
        yb = tuple(np.full(q, c) for c in self.field.one)
        for b, c in enumerate(C):
            for i, e in enumerate(self.basis):
                A[:, b * n + i] = c[i]
                M[b * n + i] = np.stack(self.mul(e, yb), axis=1)
            yb = self.mul(yb, self.elements)
        encode = np.array(self.weights, dtype=dt)
        ys = min(q, SLAB)
        rows = max(1, BLOCK // (ys * n))
        buf, low = (np.empty(rows * ys * n, dtype=dt) for _ in range(2))
        total = 0
        for y in range(0, q, ys):
            Ms = M[:, y:y + ys].reshape(m, -1)
            for r in range(0, len(weights), rows):
                Ar = A[r:r + rows]
                size = len(Ar) * Ms.shape[1]
                F = buf[:size].reshape(len(Ar), -1)
                T = low[:size].reshape(F.shape)
                np.matmul(Ar, Ms, out=F)
                np.floor(np.divide(F, p, out=T), out=T)
                T *= p
                F -= T
                # at n = 1, F is its own index; a product with the
                # length-1 vector would double the time of the block
                idx = F.reshape(len(Ar), -1, n) @ encode if n > 1 else F
                sums = self.chi_q[idx.astype(np.intp)].sum(axis=1, dtype=np.int64)
                total += int(sums @ weights[r:r + rows])
        return total


# ---------------------------------------------------------------------------
# counting the double sextic


def _check_good_prime(fix: SurfaceFixture, p: int):
    if p in fix.bad_primes:
        raise ValueError(f"p = {p} is a bad-reduction prime for {fix.name}")


def _x_coeffs(monos, field: ExtField):
    """sum coef * x^a over (a, coef) as a dense list of constants of F_q."""
    cs = [0] * (1 + max((a for a, _ in monos), default=-1))
    for a, coef in monos:
        cs[a] += coef
    return [field.from_int(c) for c in cs]


def count_singular(fix: SurfaceFixture, field: ExtField) -> int:
    """sum over P^2(F_q) of (1 + chi(f6)), chi(0) = 0.

    P^2(F_q) is traversed as the charts z = 1, (x : 1 : 0), (1 : 0 : 0).  In
    the chart z = 1, f(x, y, 1) = sum_b C_b(x) y^b with C_b over F_p, so the
    sum over y is the same at x and at x^p.
    """
    _check_good_prime(fix, field.p)
    K = _VecFq(field)
    q = K.q
    mono = fix.monomials
    ymax = max(b for (_, b, _), _ in mono)
    reps, sizes = K.orbits()
    xs = tuple(u[reps] for u in K.elements)
    C = [K.horner(_x_coeffs([(a, c) for (a, bb, _), c in mono if bb == b], field), xs)
         for b in range(ymax + 1)]
    total = q * q + K.char_sum(C, sizes)
    # chart (x : 1 : 0): one row, f(x, 1, 0) as a polynomial in x
    line = _x_coeffs([(a, c) for (a, _, cz), c in mono if cz == 0], field)
    total += q + K.char_sum(line, [1])
    # point (1 : 0 : 0)
    v = sum(c for (_, b, cz), c in mono if b == 0 and cz == 0)
    total += 1 + int(K.chi(field.from_int(v)))
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
    f = df/dx = df/dy = df/dz = 0 there.  f and its partials are
    homogeneous, so they are evaluated in integers, at the point scaled by
    the lcm of its denominators."""
    coords = [Fraction(c) for c in point]
    scale = math.lcm(*(c.denominator for c in coords))
    x, y, z = (int(c * scale) for c in coords)
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
    out = [rational_mod_p(c, p) for c in poly.coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def bad_fiber_points(surface: EllipticSurface, fib: LocalFibreData) -> int:
    """F_q-points of the minimal regular fibre that local_type found.

    The count is read off the Kodaira symbol and the data that decide which
    components are rational: the splitness of I_n, IV and IV*, and the
    rational legs of I0*.  The k rational components of an additive fibre
    are lines forming a tree, k (q + 1) - (k - 1) = 1 + k q points.
    """
    q, t = surface.fieldad.q, fib.type
    if not fib.vdelta:
        raise ValueError("fibre is smooth after minimalisation")
    if t.family == "I":
        if fib.split is None:
            raise AssertionError("multiplicative fibre without a unique node")
        # a split n-gon has n (q - 1) smooth points and n nodes.  Otherwise
        # Frobenius reflects it: the identity component gives q + 1 points
        # and what lies opposite a node (odd n) or a component (even n)
        return t.n * q if fib.split else 2 + q * t.unsplit
    if fib.legs_rational is not None:
        # I0*: the centre and the rational legs, the identity's among them
        rational = 1 + fib.legs_rational
    elif t.unsplit is None:
        raise NotImplementedError(f"fibre counting for type {t.symbol} not implemented")
    elif t.unsplit < t.components and not surface.iv_split(fib.place):
        # IV, IV* not split: only the identity arm, IV's identity component,
        # IV*'s identity component, its neighbour and the centre
        rational = t.unsplit
    else:
        # split, or II, III, III*, II*: no symmetry of the dual graph fixes
        # the identity and moves another component, so every one is rational
        rational = t.components
    return 1 + q * rational


def count_via_fibration(surface: EllipticSurface, field: ExtField) -> int:
    """|S(F_q)| as good-fibre character sums plus bad-fibre table counts.

    The surface is reduced mod p to an EllipticSurface over F_q, whose
    local_type classifies each bad fibre.
    """
    if surface.fieldad is not QQ:
        raise NotImplementedError("fibration counting needs Q coefficients")
    p = field.p
    if p < 5:
        # the bad-fibre tables read Kodaira types off the c4/c6/Delta
        # valuations, which is Tate's algorithm only where reduction is tame
        raise ValueError(f"fibration counting needs p >= 5, got p = {p}")
    K = _VecFq(field)
    a2, a4, a6 = (_poly_mod_p(a, p) for a in (surface.a2, surface.a4, surface.a6))
    polys = [Poly.from_ints(field, a) for a in (a2, a4, a6)]
    try:
        E = EllipticSurface(field, *polys, chi=surface.chi)
    except ValueError:
        raise ValueError(f"the discriminant vanishes identically mod p = {p}") from None
    good, bad_ts = _fibration_good(K, a2, a4, a6)
    total = good
    for t0, size in bad_ts:
        place = Place(Poly(field, [field.neg(t0), field.one]))
        total += size * bad_fiber_points(E, E.local_type(place))
    # fibre at infinity
    inf = E.infinity_model()
    U = inf.a2.coeff(0), inf.a4.coeff(0), inf.a6.coeff(0)
    if weierstrass_discriminant(field, *U) != field.zero:
        total += field.q + 1 + K.char_sum([*U[::-1], field.one], [1])
    else:
        total += bad_fiber_points(E, E.local_type(Place(infinity=True)))
    return total


def _fibration_good(K: _VecFq, a2, a4, a6):
    """(sum of the good-fibre counts, [(bad t, its orbit size)]) over the
    affine t-line.

    a2, a4, a6 are coefficient lists mod p, so the fibres over t and t^p
    have equal counts: the good ones are summed one row per orbit, and one
    bad t stands for its orbit.
    """
    field, ts = K.field, K.elements
    A = [K.horner([field.from_int(c) for c in a], ts) for a in (a2, a4, a6)]
    bad = K.encode(weierstrass_discriminant(K, *A)) == 0
    reps, sizes = K.orbits()
    good = ~bad[reps]
    bad_ts = [(field.decode(int(i)), int(s))
              for i, s in zip(reps[~good], sizes[~good])]
    reps, sizes = reps[good], sizes[good]
    A2, A4, A6 = (tuple(u[reps] for u in Ak) for Ak in A)
    count = (K.q + 1) * int(sizes.sum()) + K.char_sum([A6, A4, A2, field.one], sizes)
    return count, bad_ts


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
