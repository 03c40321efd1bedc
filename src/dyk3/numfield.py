"""Exact arithmetic in the degree-24 tower Q(r2, r5, al, be).

Generators and relations:

    r2^2 = 2,   r5^2 = 5,   al^2 = (r5 + 1)/2,   be^3 = r2 - 1.

Basis monomials are r2^e1 r5^e2 al^e3 be^e4 with e1, e2, e3 in {0, 1} and
e4 in {0, 1, 2}, numbered index = e1 + 2*e2 + 4*e3 + 8*e4.  An element is
an integer vector over one common denominator (Cohen, A Course in
Computational Algebraic Number Theory, 4.2): integer numerators on its
nonzero basis indices only, over a denominator den > 0 with
gcd(den, *numerators) = 1, so equal elements hold equal data.  `.co` reads
the 24 rational coordinates.

The biquadratic subfield K4 = Q(r2, r5) (coordinates supported on
e3 = e4 = 0) is where curve coefficients, j-invariants and the eta^2
constant live; reduction maps to F_p at split primes are provided for the
whole tower.  Square roots are decided exactly in Q(sqrt d)
(sqrt_in_quadratic) and in K4 (sqrt_in_k4, a nested pair of them).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .ffield import kronecker, require_odd_prime
from .poly import OpRing

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
def _structure_rows(i: int):
    """For each j, the basis expansion of 2 * b_i * b_j as (k, int) pairs.

    Every structure constant lies in Z/2 (al^2 = (r5 + 1)/2 is the only
    halving), so twice the product has integer coefficients.  Rows are
    built on first use, not at import.
    """
    e1, e2, e3, e4 = i & 1, (i >> 1) & 1, (i >> 2) & 1, i >> 3
    rows = []
    for j in range(DIM):
        f1, f2, f3, f4 = j & 1, (j >> 1) & 1, (j >> 2) & 1, j >> 3
        prod = _reduce_monomial(e1 + f1, e2 + f2, e3 + f3, e4 + f4, Fraction(2))
        assert all(c.denominator == 1 for c in prod.values())
        rows.append(tuple((k, int(c)) for k, c in prod.items() if c))
    return rows


def _element(num: dict, den: int) -> "TowerElement":
    """The element with numerators num over den, taken as they are: num has
    no zero value, den > 0 and gcd(den, *num.values()) = 1."""
    x = object.__new__(TowerElement)
    x.num, x.den = num, den
    return x


def _reduced(num: dict, den: int) -> "TowerElement":
    """The element with numerators num over den > 0, zeros dropped and put
    in lowest terms."""
    num = {k: v for k, v in num.items() if v}
    g = gcd(den, *num.values())
    if g != 1:
        num = {k: v // g for k, v in num.items()}
        den //= g
    return _element(num, den)


def _sum(x, y, sign):
    """x + sign * y, for y an element or a rational; else NotImplemented."""
    if isinstance(y, (int, Fraction)):
        y = TowerElement.rational(y)
    elif not isinstance(y, TowerElement):
        return NotImplemented
    if not y.num:
        return x
    a, b = x.den, y.den
    out = {k: v * b for k, v in x.num.items()}
    for k, v in y.num.items():
        out[k] = out.get(k, 0) + sign * v * a
    return _reduced(out, a * b)


class TowerElement:
    """An element of the tower field: integer numerators `num` on its
    nonzero basis indices over one common denominator `den`."""

    __slots__ = ("num", "den")

    def __init__(self, co):
        co = list(co)
        if len(co) != DIM:
            raise ValueError("need exactly 24 coordinates")
        co = [(i, Fraction(c)) for i, c in enumerate(co) if c]
        self.den = lcm(*(q.denominator for _, q in co))
        self.num = {i: q.numerator * (self.den // q.denominator)
                    for i, q in co if q}

    @property
    def co(self) -> tuple:
        """The 24 rational coordinates."""
        co = [Fraction(0)] * DIM
        for k, v in self.num.items():
            co[k] = Fraction(v, self.den)
        return tuple(co)

    # -- constructors -------------------------------------------------------
    @classmethod
    def rational(cls, q):
        return cls.monomial(0, 0, 0, 0, q)

    @classmethod
    def monomial(cls, e1, e2, e3, e4, coef=1):
        q = Fraction(coef)
        return _element({monomial_index(e1, e2, e3, e4): q.numerator} if q else {},
                        q.denominator)

    @classmethod
    def k4(cls, c1=0, c_s2=0, c_s5=0, c_s10=0):
        """c1 + c_s2*sqrt2 + c_s5*sqrt5 + c_s10*sqrt10."""
        return cls([c1, c_s2, c_s5, c_s10] + [0] * (DIM - 4))

    # -- predicates ----------------------------------------------------------
    def is_zero(self):
        return not self.num

    def in_k4(self):
        return max(self.num, default=0) < 4

    def is_rational(self):
        return max(self.num, default=0) == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num.get(0, 0), self.den)

    def __eq__(self, other):
        if isinstance(other, TowerElement):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the Fraction it equals
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.den, frozenset(self.num.items())))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        parts = [f"({Fraction(self.num[i], self.den)})*{_MONOMIAL_NAMES[i]}"
                 for i in sorted(self.num)]
        return " + ".join(parts) if parts else "0"

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _reduced({k: v * n for k, v in self.num.items()},
                            self.den * other.denominator)
        if not isinstance(other, TowerElement):
            return NotImplemented
        out = {}
        get = out.get
        right = other.num.items()
        for i, a in self.num.items():
            row = _structure_rows(i)
            for j, b in right:
                ab = a * b
                for k, c in row[j]:
                    out[k] = get(k, 0) + ab * c
        return _reduced(out, 2 * self.den * other.den)

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
        # M[k][j] = coord_k of (self * basis_j) times 2 den, an integer
        M = [[0] * DIM for _ in range(DIM)]
        for i, a in self.num.items():
            for j, row in enumerate(_structure_rows(i)):
                for k, c in row:
                    M[k][j] += a * c
        M = [[Fraction(x) for x in r] for r in M]
        # solve M y = 2 den e0 by Gaussian elimination
        rhs = [Fraction(0)] * DIM
        rhs[0] = Fraction(2 * self.den)
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
        return TowerElement(rhs)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
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
        signs = (1, sign2, sign5, sign2 * sign5)
        return _element({k: v * signs[k] for k, v in self.num.items()}, self.den)


SQRT2 = TowerElement.monomial(1, 0, 0, 0)
SQRT5 = TowerElement.monomial(0, 1, 0, 0)
ALPHA = TowerElement.monomial(0, 0, 1, 0)
BETA = TowerElement.monomial(0, 0, 0, 1)
ONE = TowerElement.rational(1)
TOWER = OpRing(ONE)


# ---------------------------------------------------------------------------
# reduction to F_p


class SplitEmbedding:
    """A choice of images in F_p for the tower generators.

    r2, r5 square roots of 2 and 5; ra a root of x^2 = (r5+1)/2; rb a cube
    root of r2 - 1.  K4 elements only need (r2, r5); full-tower elements
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
    if any(imgs[i] is None for i in x.num):
        raise ValueError("embedding lacks an image for a generator in x")
    if x.den % p == 0:
        raise ValueError(f"denominator of {x} divisible by p = {p}")
    return sum(v * imgs[i] for i, v in x.num.items()) * pow(x.den, -1, p) % p


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


def sqrt_in_k4(x: TowerElement):
    """A square root of x inside Q(sqrt2, sqrt5), or None.

    Writes y = u + v*sqrt5 with u, v in Q(sqrt2) and solves the nested
    quadratic system exactly.
    """
    if not x.in_k4():
        raise ValueError("element not in K4")
    co = x.co
    s = TowerElement.k4(co[0], co[1])   # rational + sqrt2 part
    t = TowerElement.k4(co[2], co[3])   # coefficient of sqrt5, in Q(sqrt2)
    if t.is_zero():
        r = sqrt_in_quadratic(co[0], co[1], 2)
        if r is not None:
            return TowerElement.k4(r[0], r[1], 0, 0)
        # maybe a sqrt5 multiple: x = 5 w^2 with w in Q(sqrt2)
        r = sqrt_in_quadratic(co[0] / 5, co[1] / 5, 2)
        if r is not None:
            return TowerElement.k4(0, 0, r[0], r[1])
        return None
    disc = s * s - 5 * t * t        # in Q(sqrt2)
    root = sqrt_in_quadratic(disc.co[0], disc.co[1], 2)
    if root is None:
        return None
    for sign in (1, -1):
        u2 = (s + sign * TowerElement.k4(*root)) / 2
        u = sqrt_in_quadratic(u2.co[0], u2.co[1], 2)
        if u is not None and u != (0, 0):
            v = t / (2 * TowerElement.k4(*u))
            return TowerElement.k4(u[0], u[1], v.co[0], v.co[1])
    return None


# ---------------------------------------------------------------------------
# the coefficient-matching system for the product-abelian-surface fibration


def verify_si_system(A, a, b, c, d):
    """Evaluate the five equations c0 + cA*A + m = 0; report each residual,
    labelled by its monomial part m, and its vanishing."""
    residuals = [
        ("A^2-5", A * A - 5),
        ("18ac", 1411985089 - 631459755 * A + 18 * a * c),
        ("108c^3+729d^2",
         131587540863282 - 58847737271814 * A + 108 * c ** 3 + 729 * d * d),
        ("-1458bd", -238992218766044 + 106880569389324 * A - 1458 * b * d),
        ("108a^3+729b^2",
         131587540863282 + 108 * a ** 3 - 58847737271814 * A + 729 * b * b),
    ]
    return [{"equation": i, "label": label, "zero": r.is_zero(), "residual": r}
            for i, (label, r) in enumerate(residuals, 1)]
