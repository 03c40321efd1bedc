"""Exact arithmetic in the degree-24 tower Q(r2, r5, al, be).

Generators and relations:

    r2^2 = 2,   r5^2 = 5,   al^2 = (r5 + 1)/2,   be^3 = r2 - 1.

Basis monomials are r2^e1 r5^e2 al^e3 be^e4 with e1, e2, e3 in {0, 1} and
e4 in {0, 1, 2}; an element is the tuple of its 24 rational coordinates in
the order index = e1 + 2*e2 + 4*e3 + 8*e4.  Coordinates are exact
fractions, always in normal form.

The biquadratic subfield Q(r2, r5) (coordinates supported on e3 = e4 = 0)
is where curve coefficients, j-invariants and the eta^2 constant live;
reduction maps to F_p at split primes are provided for the whole tower.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .ffield import (build_extension, find_roots, kronecker, rational_mod_p,
                     require_odd_prime)
from .poly import OpRing, Poly

DIM = 24

_MONOMIAL_NAMES = []
for _e4 in range(3):
    for _e3 in range(2):
        for _e2 in range(2):
            for _e1 in range(2):
                name = "*".join(filter(None, [
                    "s2" if _e1 else "", "s5" if _e2 else "",
                    "al" if _e3 else "", ("be" if _e4 == 1 else "be2" if _e4 == 2 else ""),
                ])) or "1"
                _MONOMIAL_NAMES.append(name)

def monomial_index(e1: int, e2: int, e3: int, e4: int) -> int:
    return e1 + 2 * e2 + 4 * e3 + 8 * e4


def _reduce_monomial(e1, e2, e3, e4, coef):
    """Expand a raw monomial into basis monomials with coefficients."""
    out = {}
    work = [(e1, e2, e3, e4, coef)]
    while work:
        a1, a2, a3, a4, c = work.pop()
        if a4 >= 3:
            work.append((a1 + 1, a2, a3, a4 - 3, c))
            work.append((a1, a2, a3, a4 - 3, -c))
            continue
        if a3 >= 2:
            work.append((a1, a2 + 1, a3 - 2, a4, c / 2))
            work.append((a1, a2, a3 - 2, a4, c / 2))
            continue
        if a1 >= 2:
            work.append((a1 - 2, a2, a3, a4, 2 * c))
            continue
        if a2 >= 2:
            work.append((a1, a2 - 2, a3, a4, 5 * c))
            continue
        k = monomial_index(a1, a2, a3, a4)
        out[k] = out.get(k, Fraction(0)) + c
    return out


@lru_cache(maxsize=None)
def _structure_row(i: int, j: int):
    e1, e2, e3, e4 = i & 1, (i >> 1) & 1, (i >> 2) & 1, i >> 3
    f1, f2, f3, f4 = j & 1, (j >> 1) & 1, (j >> 2) & 1, j >> 3
    prod = _reduce_monomial(e1 + f1, e2 + f2, e3 + f3, e4 + f4, Fraction(1))
    return tuple((k, c) for k, c in prod.items() if c)


_ZERO = (Fraction(0),) * DIM


class TowerElement:
    """An element of the tower field as 24 exact rational coordinates."""

    __slots__ = ("co",)

    def __init__(self, co):
        self.co = tuple(Fraction(c) for c in co)
        if len(self.co) != DIM:
            raise ValueError("need exactly 24 coordinates")

    @classmethod
    def _wrap(cls, co: tuple):
        """Element on a tuple of 24 Fractions, taken as they are.

        Ring operations build their results here: their coordinates are
        already Fractions, so the normalising pass of __init__ is skipped.
        """
        x = object.__new__(cls)
        x.co = co
        return x

    # -- constructors -------------------------------------------------------
    @classmethod
    def rational(cls, q):
        return cls._wrap((Fraction(q),) + _ZERO[1:])

    @classmethod
    def monomial(cls, e1, e2, e3, e4, coef=1):
        co = list(_ZERO)
        co[monomial_index(e1, e2, e3, e4)] = Fraction(coef)
        return cls._wrap(tuple(co))

    @classmethod
    def k4(cls, c1=0, c_s2=0, c_s5=0, c_s10=0):
        """c1 + c_s2*sqrt2 + c_s5*sqrt5 + c_s10*sqrt10."""
        return cls._wrap((Fraction(c1), Fraction(c_s2), Fraction(c_s5),
                          Fraction(c_s10)) + _ZERO[4:])

    # -- predicates ----------------------------------------------------------
    def is_zero(self):
        return not any(self.co)

    def in_k4(self):
        return not any(self.co[4:])

    def is_rational(self):
        return not any(self.co[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.co[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TowerElement.rational(other)
        return isinstance(other, TowerElement) and self.co == other.co

    def __hash__(self):
        return hash(self.co)

    def __bool__(self):
        return any(self.co)

    def __repr__(self):
        parts = [f"({c})*{_MONOMIAL_NAMES[i]}" for i, c in enumerate(self.co) if c]
        return " + ".join(parts) if parts else "0"

    # -- ring operations -----------------------------------------------------
    # Results skip the Fraction arithmetic of zero coordinates: the Q(sqrt5)
    # and K4 elements of the bad-fibre tables leave over 92% of them zero.
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return TowerElement._wrap((self.co[0] + other,) + self.co[1:])
        return TowerElement._wrap(tuple(a + b if a and b else a or b
                                        for a, b in zip(self.co, other.co)))

    __radd__ = __add__

    def __neg__(self):
        return TowerElement._wrap(tuple(-a for a in self.co))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return TowerElement._wrap((self.co[0] - other,) + self.co[1:])
        return TowerElement._wrap(tuple(a - b if b else a
                                        for a, b in zip(self.co, other.co)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return TowerElement._wrap(tuple(a * q if a else a for a in self.co))
        out = list(_ZERO)
        right = [(j, b) for j, b in enumerate(other.co) if b]
        for i, a in enumerate(self.co):
            if a:
                for j, b in right:
                    ab = a * b
                    for k, c in _structure_row(i, j):
                        t = ab * c
                        out[k] = out[k] + t if out[k] else t
        return TowerElement._wrap(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        r = TowerElement.rational(1)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def inv(self):
        """Inverse by solving the 24x24 linear system x*y = 1 over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in the tower field")
        # fast path for K4 elements: conjugate product
        if self.in_k4():
            conj = (self.conjugate_k4(-1, 1) * self.conjugate_k4(1, -1)
                    * self.conjugate_k4(-1, -1))
            norm = (self * conj).as_rational()
            return conj * (1 / norm)
        # multiplication matrix M[i][j] = coord_i of (self * basis_j)
        M = [[Fraction(0)] * DIM for _ in range(DIM)]
        for j in range(DIM):
            for i, a in enumerate(self.co):
                if a:
                    for k, c in _structure_row(i, j):
                        M[k][j] += a * c
        # solve M y = e0 by Gaussian elimination
        rhs = [Fraction(0)] * DIM
        rhs[0] = Fraction(1)
        n = DIM
        for col in range(n):
            piv = next((r for r in range(col, n) if M[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("singular multiplication matrix")
            M[col], M[piv] = M[piv], M[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / M[col][col]
            M[col] = [x * inv for x in M[col]]
            rhs[col] *= inv
            for r in range(n):
                if r != col and M[r][col]:
                    f = M[r][col]
                    M[r] = [x - f * y for x, y in zip(M[r], M[col])]
                    rhs[r] -= f * rhs[col]
        return TowerElement._wrap(tuple(rhs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = 1 / Fraction(other)
            return TowerElement._wrap(tuple(a * q if a else a for a in self.co))
        return self * other.inv()

    def __rtruediv__(self, other):
        return TowerElement.rational(other) / self

    # -- K4 structure ----------------------------------------------------------
    def conjugate_k4(self, sign2: int, sign5: int):
        """Galois conjugate sqrt2 -> sign2*sqrt2, sqrt5 -> sign5*sqrt5.

        Only defined on K4 = Q(sqrt2, sqrt5): the generators al, be are not
        stable under these maps.
        """
        if not self.in_k4():
            raise ValueError("conjugation is only defined on K4 elements")
        c = self.co
        return TowerElement.k4(c[0], sign2 * c[1], sign5 * c[2],
                               sign2 * sign5 * c[3])


SQRT2 = TowerElement.monomial(1, 0, 0, 0)
SQRT5 = TowerElement.monomial(0, 1, 0, 0)
ALPHA = TowerElement.monomial(0, 0, 1, 0)
BETA = TowerElement.monomial(0, 0, 0, 1)
ONE = TowerElement.rational(1)
TOWER = OpRing(ONE)


def minimal_polynomial_over_Q(x: TowerElement):
    """Monic minimal polynomial of a K4 element, as Fraction coefficients.

    Product of (T - sigma(x)) over the distinct images under the four sign
    embeddings (sqrt2, sqrt5) -> (+-sqrt2, +-sqrt5); repeated conjugates
    (subfield elements) are collapsed so the result is squarefree.
    Coefficient list is low-to-high and ends with 1.
    """
    if not x.in_k4():
        raise ValueError("element is not in K4")
    conjs = []
    for s2 in (1, -1):
        for s5 in (1, -1):
            c = x.conjugate_k4(s2, s5)
            if c not in conjs:
                conjs.append(c)
    # multiply out (T - c) factors with TowerElement coefficients
    poly = [ONE]
    for c in conjs:
        new = [TowerElement.rational(0)] * (len(poly) + 1)
        for i, a in enumerate(poly):
            new[i + 1] += a
            new[i] += a * (-c)
        poly = new
    coeffs = []
    for a in poly:
        if not a.is_rational():
            raise AssertionError("minimal polynomial has irrational coefficient")
        coeffs.append(a.as_rational())
    return coeffs


def eval_poly_at_tower(coeffs, x: TowerElement) -> TowerElement:
    acc = TowerElement.rational(0)
    for c in reversed(coeffs):
        acc = acc * x + TowerElement.rational(c)
    return acc


# ---------------------------------------------------------------------------
# reduction to F_p


def _cube_roots_mod(c: int, p: int):
    """All cube roots of c in F_p, ascending."""
    F = build_extension(p, 1)
    f = Poly.from_ints(F, [-c, 0, 0, 1])
    return sorted(r[0] for r in find_roots(f, F))


class SplitEmbedding:
    """A choice of images in F_p for the tower generators.

    r2, r5 square roots of 2 and 5; ra a root of x^2 = (r5+1)/2; rb the
    smallest nonnegative cube root of r2 - 1 (recorded so runs are
    reproducible).  K4 elements only need (r2, r5); full-tower elements
    need all four images.
    """

    def __init__(self, p: int, r2: int, r5: int, ra=None, rb=None):
        self.p = p
        require_odd_prime(p)
        if r2 * r2 % p != 2 % p or r5 * r5 % p != 5 % p:
            raise ValueError("images do not satisfy the generator relations")
        self.r2, self.r5 = r2 % p, r5 % p
        if ra is not None and ra * ra % p != (r5 + 1) * pow(2, p - 2, p) % p:
            raise ValueError("alpha image does not satisfy its relation")
        if rb is not None and pow(rb, 3, p) != (r2 - 1) % p:
            raise ValueError("beta image does not satisfy its relation")
        self.ra, self.rb = ra, rb
        self._images = None

    @staticmethod
    def splits_k4(p: int) -> bool:
        return kronecker(2, p) == 1 and kronecker(5, p) == 1

    @classmethod
    def enumerate_k4(cls, p: int):
        """The four embeddings of K4 at a totally split prime."""
        from .ffield import sqrt_mod
        if not cls.splits_k4(p):
            raise ValueError(f"p = {p} is not split in Q(sqrt2, sqrt5)")
        r2, r5 = sqrt_mod(2, p), sqrt_mod(5, p)
        return [cls(p, s2, s5) for s2 in (r2, p - r2) for s5 in (r5, p - r5)]

    @classmethod
    def full_tower(cls, p: int):
        """Embeddings of the whole tower at p, possibly empty.

        For each K4 embedding with (r5+1)/2 a square, ra is the smaller
        square root; rb is the smallest nonnegative cube root of r2 - 1
        when one exists.
        """
        from .ffield import sqrt_mod
        out = []
        for emb in cls.enumerate_k4(p):
            t = (emb.r5 + 1) * pow(2, p - 2, p) % p
            ra = sqrt_mod(t, p)
            if ra is None:
                continue
            ra = min(ra, p - ra)
            roots = _cube_roots_mod((emb.r2 - 1) % p, p)
            if not roots:
                continue
            out.append(cls(p, emb.r2, emb.r5, ra, roots[0]))
        return out

    def images(self):
        if self._images is None:
            p = self.p
            imgs = []
            for i in range(DIM):
                e1, e2, e3, e4 = i & 1, (i >> 1) & 1, (i >> 2) & 1, i >> 3
                if (e3 and self.ra is None) or (e4 and self.rb is None):
                    imgs.append(None)
                    continue
                v = 1
                if e1:
                    v = v * self.r2 % p
                if e2:
                    v = v * self.r5 % p
                if e3:
                    v = v * self.ra % p
                if e4:
                    v = v * pow(self.rb, e4, p) % p
                imgs.append(v)
            self._images = imgs
        return self._images

    def __repr__(self):
        return (f"SplitEmbedding(p={self.p}, r2={self.r2}, r5={self.r5}, "
                f"ra={self.ra}, rb={self.rb})")


def reduce_mod_p(x: TowerElement, emb: SplitEmbedding) -> int:
    """Ring-homomorphism image of x in F_p under the embedding."""
    p = emb.p
    imgs = emb.images()
    acc = 0
    for i, c in enumerate(x.co):
        if c:
            if imgs[i] is None:
                raise ValueError("embedding lacks an image for a generator in x")
            acc = (acc + rational_mod_p(c, p) * imgs[i]) % p
    return acc


# ---------------------------------------------------------------------------
# square roots inside real quadratic fields (used for splitness tests)


def rational_sqrt(q: Fraction):
    """The nonnegative rational square root of q, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def squarefree_kernel(n: int) -> int:
    """The squarefree integer d > 0 with |n| = d * (a square)."""
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def sqrt_in_quadratic(s: Fraction, t: Fraction, d: int):
    """Square root of s + t*sqrt(d) inside Q(sqrt d), or None.

    Solves (u + v sqrt d)^2 = s + t sqrt d exactly: u^2 + d v^2 = s and
    2uv = t, via the rational square root of s^2 - d t^2.
    """
    s, t = Fraction(s), Fraction(t)
    if t == 0:
        r = rational_sqrt(s)
        if r is not None:
            return (r, Fraction(0))
        r = rational_sqrt(s / d)
        if r is not None:
            return (Fraction(0), r)
        return None
    n = rational_sqrt(s * s - d * t * t)
    if n is None:
        return None
    for sign in (1, -1):
        u2 = (s + sign * n) / 2
        u = rational_sqrt(u2)
        if u is not None and u != 0:
            v = t / (2 * u)
            return (u, v)
    return None


# ---------------------------------------------------------------------------
# the coefficient-matching system for the product-abelian-surface fibration


SI_EQUATION_CONSTANTS = (
    # each row: (c0, cA, monomial label) with equation c0 + cA*A + m = 0
    (Fraction(0), Fraction(0), "A^2-5"),
    (Fraction(1411985089), Fraction(-631459755), "18ac"),
    (Fraction(131587540863282), Fraction(-58847737271814), "108c^3+729d^2"),
    (Fraction(-238992218766044), Fraction(106880569389324), "-1458bd"),
    (Fraction(131587540863282), Fraction(-58847737271814), "108a^3+729b^2"),
)


def si_system_residuals(A: TowerElement, a: TowerElement, b: TowerElement,
                        c: TowerElement, d: TowerElement):
    """Exact left-hand sides of the five coefficient-match equations."""
    return [
        A * A - 5,
        1411985089 - 631459755 * A + 18 * a * c,
        131587540863282 - 58847737271814 * A + 108 * c ** 3 + 729 * d * d,
        -238992218766044 + 106880569389324 * A - 1458 * b * d,
        131587540863282 + 108 * a ** 3 - 58847737271814 * A + 729 * b * b,
    ]


def verify_si_system(A, a, b, c, d):
    """Evaluate the five equations; report each residual and its vanishing."""
    res = si_system_residuals(A, a, b, c, d)
    labels = [row[2] for row in SI_EQUATION_CONSTANTS]
    return [{"equation": i + 1, "label": labels[i], "zero": r.is_zero(),
             "residual": r} for i, r in enumerate(res)]
