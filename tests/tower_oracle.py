"""The 24-Fraction tower element, and tower helpers only the tests use.

``TowerElement`` here is dyk3's earlier representation of the tower
Q(r2, r5, al, be): a tuple of 24 exact rational coordinates, multiplied
through Fraction structure constants.  It shares no arithmetic with
``dyk3.numfield.TowerElement`` and serves the tests as its differential
oracle.  The helpers below it work on ``dyk3.numfield`` elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from dyk3 import numfield as nf
from dyk3.ffield import build_extension, find_roots, sqrt_mod
from dyk3.numfield import DIM, _MONOMIAL_NAMES, monomial_index
from dyk3.poly import Poly


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


# ---------------------------------------------------------------------------
# helpers on dyk3.numfield elements


def minimal_polynomial_over_Q(x: nf.TowerElement):
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
    poly = [nf.ONE]
    for c in conjs:
        new = [nf.TowerElement.rational(0)] * (len(poly) + 1)
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


def eval_poly_at_tower(coeffs, x: nf.TowerElement) -> nf.TowerElement:
    acc = nf.TowerElement.rational(0)
    for c in reversed(coeffs):
        acc = acc * x + nf.TowerElement.rational(c)
    return acc


def _cube_roots_mod(c: int, p: int):
    """All cube roots of c in F_p, ascending."""
    F = build_extension(p, 1)
    f = Poly.from_ints(F, [-c, 0, 0, 1])
    return sorted(r[0] for r in find_roots(f, F))


class SplitEmbedding(nf.SplitEmbedding):
    """dyk3's SplitEmbedding with a constructor for the whole tower."""

    @classmethod
    def full_tower(cls, p: int):
        """Embeddings of the whole tower at p, possibly empty.

        For each K4 embedding with (r5+1)/2 a square, ra is the smaller
        square root; rb is the smallest nonnegative cube root of r2 - 1
        when one exists.
        """
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
