"""Dense univariate polynomials and rational functions over an exact field.

A coefficient field is an object in the ring protocol of elliptic.py: it
has add, sub, mul, neg, inv of a nonzero element, is_zero, from_int, zero
and one.  OpRing serves elements with arithmetic operators: QQ on
Fraction here, and numfield's TOWER on TowerElement.  ffield.ExtField
serves F_q on its tuples.  Everything here is exact; polynomial gcds make
intermediate results monic to control growth.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class OpRing:
    """The ring protocol for elements with arithmetic operators; `one` fixes
    the ring.  inv inverts a unit as one / a, and is_zero reads an
    element's truth value."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    smul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    is_zero = staticmethod(operator.not_)

    def __init__(self, one):
        self.one, self.zero = one, one - one

    def inv(self, a):
        return self.one / a

    def from_int(self, n):
        return self.one * n


QQ = OpRing(Fraction(1))


class Poly:
    """coeffs low-to-high, no trailing zeros; `field` is in the ring protocol
    and does all the coefficient arithmetic."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = list(coeffs)
        is_zero = field.is_zero
        while cs and is_zero(cs[-1]):
            cs.pop()
        self.coeffs = cs

    @classmethod
    def const(cls, field, c):
        return cls(field, [c])

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(c) for c in ints])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    # -- basics ---------------------------------------------------------------
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lead(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return self.coeffs == Poly.const(self.field, self._lift(other)).coeffs

    def _lift(self, c):
        if isinstance(c, int):
            return self.field.from_int(c)
        return c

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        return "Poly(" + " + ".join(f"({c})*t^{i}" for i, c in enumerate(self.coeffs)
                                    if not self.field.is_zero(c)) + ")"

    def __call__(self, x):
        """The value at a coefficient x, or the composite self(x(t)) at a Poly."""
        F = self.field
        if isinstance(x, Poly):
            acc = Poly(F, [])
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.field, self._lift(other))
        a, b = self.coeffs, other.coeffs
        out = [self.field.add(x, y) for x, y in zip(a, b)]
        return Poly(self.field, out + (a[len(b):] or b[len(a):]))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.field, self._lift(other))
        F = self.field
        a, b = self.coeffs, other.coeffs
        out = [F.sub(x, y) for x, y in zip(a, b)]
        return Poly(F, out + (a[len(b):] or [F.neg(y) for y in b[len(a):]]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        F = self.field
        if not isinstance(other, Poly):
            c = self._lift(other)
            return Poly(F, [F.mul(a, c) for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly(F, [])
        add, mul, is_zero = F.add, F.mul, F.is_zero
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not is_zero(a):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = add(out[i + j], mul(a, b))
        return Poly(F, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        r = Poly.const(self.field, self.field.one)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def divmod(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        if len(a) < len(b):
            return Poly(F, []), self
        sub, mul, is_zero = F.sub, F.mul, F.is_zero
        q = [F.zero] * (len(a) - len(b) + 1)
        lead_inv = F.one if b[-1] == F.one else F.inv(b[-1])
        for i in range(len(a) - len(b), -1, -1):
            top = a[i + len(b) - 1]
            if not is_zero(top):
                c = mul(top, lead_inv)
                q[i] = c
                for j, bj in enumerate(b):
                    a[i + j] = sub(a[i + j], mul(c, bj))
        return Poly(F, q), Poly(F, a)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def __truediv__(self, other):
        return self.exact_div(other) if isinstance(other, Poly) else NotImplemented

    def monic(self):
        if self.is_zero():
            return self
        return self * self.field.inv(self.lead())

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, (a % b)
            if not b.is_zero():
                b = b.monic()
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        F = self.field
        return Poly(F, [F.mul(c, F.from_int(i)) for i, c in enumerate(self.coeffs)][1:])

    # -- structure ---------------------------------------------------------------
    def valuation(self, pi: "Poly") -> int:
        """Multiplicity of the irreducible pi in self (inf for the zero poly)."""
        if self.is_zero():
            return float("inf")
        v, cur = 0, self
        while True:
            q, r = cur.divmod(pi)
            if not r.is_zero():
                return v
            v, cur = v + 1, q

    def shift_down(self, k: int):
        """Exact division by t^k."""
        if not all(map(self.field.is_zero, self.coeffs[:k])):
            raise ValueError("not divisible by t^k")
        return Poly(self.field, self.coeffs[k:])

    def shift(self, c):
        """p(t + c)."""
        F = self.field
        t_plus_c = Poly(F, [self._lift(c), F.one])
        acc = Poly(F, [])
        for co in reversed(self.coeffs):
            acc = acc * t_plus_c + Poly.const(F, co)
        return acc

    def reverse(self, n: int | None = None):
        """u^n * p(1/u) for n >= deg p (default n = deg p)."""
        if self.is_zero():
            return self
        d = self.degree()
        if n is None:
            n = d
        if n < d:
            raise ValueError("reversal order below degree")
        F = self.field
        out = [F.zero] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[n - i] = c
        return Poly(F, out)

    def squarefree_part(self):
        if self.is_zero():
            return self
        g = self.gcd(self.derivative())
        if g.degree() <= 0:
            return self.monic()
        return self.exact_div(g).monic()

    def squarefree_decomposition(self):
        """[(factor, multiplicity)] by Yun's algorithm (char 0)."""
        F = self.field
        p = self.monic()
        out = []
        if p.degree() <= 0:
            return out
        g = p.gcd(p.derivative())
        w = p.exact_div(g)
        i = 1
        while w.degree() > 0:
            y = w.gcd(g)
            fac = w.exact_div(y)
            if fac.degree() > 0:
                out.append((fac, i))
            w, g = y, g.exact_div(y)
            i += 1
        return out


class RationalFunc:
    """num/den over the same field, gcd-reduced, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, reduce=True):
        if den is None:
            den = Poly.const(num.field, num.field.one)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce and not num.is_zero():
            g = num.gcd(den)
            if g.degree() > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        if num.is_zero():
            den = Poly.const(num.field, num.field.one)
        else:
            F, lead = den.field, den.lead()
            if not F.is_zero(F.sub(lead, F.one)):
                inv = F.inv(lead)
                num, den = num * inv, den * inv
        self.num, self.den = num, den

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            other = RationalFunc(Poly.const(self.field, self.num._lift(other)))
        return (self.num * other.den) == (other.num * self.den)

    def __repr__(self):
        return f"({self.num})/({self.den})"

    def _coerce(self, other):
        if isinstance(other, RationalFunc):
            return other
        if isinstance(other, Poly):
            return RationalFunc(other)
        return RationalFunc(Poly.const(self.field, self.num._lift(other)))

    def __add__(self, other):
        o = self._coerce(other)
        return RationalFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError
        return RationalFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e):
        if e < 0:
            return (1 / self) ** (-e)
        r = RationalFunc(Poly.const(self.field, self.field.one))
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def valuation(self, pi: Poly):
        if self.is_zero():
            return float("inf")
        return self.num.valuation(pi) - self.den.valuation(pi)

    def subs(self, other: "RationalFunc") -> "RationalFunc":
        """self(other(t)) for a rational-function substitution."""
        num = RationalFunc(Poly(self.field, []))
        for c in reversed(self.num.coeffs):
            num = num * other + RationalFunc(Poly.const(self.field, c))
        den = RationalFunc(Poly(self.field, []))
        for c in reversed(self.den.coeffs):
            den = den * other + RationalFunc(Poly.const(self.field, c))
        return num / den
