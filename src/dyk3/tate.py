"""Elliptic surfaces over k(t): Kodaira types, bad-fibre tables, sections,
Shioda heights, and the discriminant bookkeeping.

Base fields are Q (Fraction coefficients), real quadratic fields embedded
in the tower (TowerElement coefficients) and F_q, p >= 5 (ExtField tuples).
All places are tame here, so the Kodaira type is read off the valuations of
(c4, c6, Delta) after minimalisation, with the step-6 cubic consulted for
I0* leg data.  The base field enters only where a residue is asked whether
it is a square, or how many roots a cubic has: over F_q by the quadratic
character and find_roots, over Q and Q(sqrt 5) through factor.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elliptic import (CurveOverFq, cubic_node, depressed_cubic,
                       weierstrass_c4_c6, weierstrass_discriminant)
from .factor import irreducible_factors
from .ffield import ExtField, find_roots, rational_mod_p
from .numfield import (TOWER, TowerElement, rational_sqrt, reduce_mod_p,
                       sqrt_in_quadratic)
from .poly import OpRing, Poly, QQ, RationalFunc

__all__ = [
    "Place", "LocalFibreData", "EllipticSurface", "SectionPoint",
    "quartic_to_weierstrass", "shioda_tate_disc", "torsion_two_divisibility",
    "min_positive_height_on_grid", "trivial_lattice_disc",
]


# ---------------------------------------------------------------------------
# polynomial extras


def poly_ext_gcd(a: Poly, b: Poly):
    """(g, u, v) with u*a + v*b = g, g monic."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.const(F, F.one), Poly(F, [])
    t0, t1 = Poly(F, []), Poly.const(F, F.one)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = F.inv(r0.lead())
    return r0 * c, s0 * c, t0 * c


# ---------------------------------------------------------------------------
# local rings k[t]/(pi^N)


class LocalRing(OpRing):
    """Truncated local ring at an irreducible place pi, precision pi^N: the
    ring protocol on Poly elements reduced mod pi^N."""

    def __init__(self, pi: Poly, N: int):
        super().__init__(Poly.const(pi.field, pi.field.one))
        self.pi = pi
        self.N = N
        self.mod = pi ** N
        self.field = pi.field

    def red(self, p: Poly) -> Poly:
        return p % self.mod

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.red(a * b)

    def from_rational(self, rf: RationalFunc) -> Poly:
        """Image of a rational function with nonnegative valuation."""
        num, den = rf.num, rf.den
        vd = den.valuation(self.pi)
        vn = num.valuation(self.pi) if not num.is_zero() else self.N
        if not num.is_zero() and vn - vd < 0:
            raise ValueError("negative valuation: not in the local ring")
        if num.is_zero():
            return Poly(self.field, [])
        for _ in range(vd):
            num = num.exact_div(self.pi)
            den = den.exact_div(self.pi)
        return self.red(self.red(num) * self.inv(den))

    def inv(self, u: Poly) -> Poly:
        u = self.red(u)
        g, s, _ = poly_ext_gcd(u, self.mod)
        if g.degree() != 0:
            raise ZeroDivisionError("not a unit in the local ring")
        return self.red(s * self.field.inv(g.coeffs[0]))

    def valuation(self, p: Poly) -> int:
        p = self.red(p)
        if p.is_zero():
            return self.N
        return p.valuation(self.pi)


# ---------------------------------------------------------------------------
# residue fields


def residue_is_square(c, pi: Poly, base_label: str = "QQ"):
    """Is the residue class of c a square in kappa = (base)[t]/(pi)?

    Supported: kappa = F_q, Q, Q(sqrt d), and quadratic extensions of Q;
    larger residue fields over a number field return None (undecided).
    """
    F = pi.field
    if pi.degree() == 1:
        val = (c % pi).coeff(0) if isinstance(c, Poly) else c
        if isinstance(F, ExtField):
            return F.chi(val) == 1
        return _constant_is_square(val, base_label)
    if pi.degree() == 2 and base_label == "QQ":
        # kappa = Q[t]/(t^2 + bt + a): map to Q(sqrt D), D = b^2 - 4a
        b, a = Fraction(pi.coeffs[1]), Fraction(pi.coeffs[0])
        D = b * b - 4 * a
        if D <= 0:
            return None
        cp = c if isinstance(c, Poly) else Poly.const(F, c)
        cp = cp % pi
        u, v = Fraction(cp.coeff(0)), Fraction(cp.coeff(1))
        # c = u + v*theta with theta = (-b + sqrt D)/2
        return sqrt_in_quadratic(u - v * b / 2, v / 2, D) is not None
    return None


def _constant_is_square(c, base_label: str):
    if base_label == "QQ":
        return rational_sqrt(Fraction(c)) is not None
    if isinstance(c, TowerElement):
        co = c.co
        if any(co[i] for i in range(4, len(co))):
            return None
        if base_label == "Qsqrt5":
            if co[1] or co[3]:
                return None
            return sqrt_in_quadratic(co[0], co[2], 5) is not None
    return None


# ---------------------------------------------------------------------------
# places and fibre data


@dataclass(frozen=True)
class Place:
    poly: object = None        # monic irreducible Poly, or None for infinity
    infinity: bool = False

    @property
    def degree(self):
        return 1 if self.infinity else self.poly.degree()

    def __repr__(self):
        return "Place(inf)" if self.infinity else f"Place({self.poly})"


# The additive types other than I_n*: canonical (v c4, v c6, v Delta) of a
# minimal model, components, determinant of the root lattice (A_1, A_2,
# E_6, E_7, E_8, negative definite; 1 when there is none), the height
# correction of a simple non-identity component, and the components that
# are rational when the fibre is not split.
_ADDITIVE = {
    "II": ((1, 1, 2), 1, 1, Fraction(0), 1),
    "III": ((1, 2, 3), 2, -2, Fraction(1, 2), 2),
    "IV": ((2, 2, 4), 3, 3, Fraction(2, 3), 1),
    "IV*": ((3, 4, 8), 7, 3, Fraction(4, 3), 3),
    "III*": ((3, 5, 9), 8, -2, Fraction(3, 2), 8),
    "II*": ((4, 5, 10), 9, 1, Fraction(0), 9),
}


class KodairaType:
    """What a Kodaira symbol fixes about a tame fibre: its family, "I" for
    I_n, "I*" for I_n* and the symbol itself otherwise, n, and the columns
    of _ADDITIVE.  contr is None where the simple non-identity components
    have different corrections (I_n, and I_n* for n >= 1); unsplit is None
    for I_n*, whose rational components are not tabulated."""
    # a plain class: a dataclass would add about 0.5 ms to importing tate
    __slots__ = ("symbol", "family", "n", "vals", "components", "det", "contr", "unsplit")

    def __init__(self, symbol, family, n, vals, components, det, contr, unsplit):
        self.symbol, self.family, self.n, self.vals = symbol, family, n, vals
        self.components, self.det, self.contr, self.unsplit = components, det, contr, unsplit

    @property
    def vdelta(self) -> int:
        return self.vals[2]

    @property
    def menu(self) -> set:
        """The height corrections a section can take at this fibre, for
        the grid.  At I_n* it meets the identity, a near simple component
        (1) or a far one (1 + n/4); for I0* the last two agree."""
        if self.family == "I":
            return {Fraction(k * (self.n - k), self.n) for k in range(self.n)} or {Fraction(0)}
        if self.family == "I*":
            return {Fraction(0), Fraction(1), 1 + Fraction(self.n, 4)}
        return {Fraction(0), self.contr}


def kodaira_type(symbol: str) -> KodairaType:
    """The facts of a Kodaira symbol: the one place where one is parsed."""
    star = symbol.endswith("*")
    digits = symbol[1:-1] if star else symbol[1:]
    if symbol.startswith("I") and digits.isdigit():
        n = int(digits)
        if star:     # D_{n+4}
            return KodairaType(symbol, "I*", n, (2, 3, 6 + n), 5 + n, (-1) ** n * 4,
                               None if n else Fraction(1), None)
        # A_{n-1}; a non-split n-gon keeps the identity component, and the
        # opposite one when n is even
        return KodairaType(symbol, "I", n, (0, 0, n), max(1, n),
                           (-1) ** (n - 1) * n if n else 1, None, 2 - n % 2)
    if symbol not in _ADDITIVE:
        raise ValueError(f"unknown Kodaira symbol {symbol!r}")
    return KodairaType(symbol, symbol, 0, *_ADDITIVE[symbol])


# additive symbol by v(Delta); I_n* is told apart from IV*, III*, II* first
_BY_VDELTA = {vals[2]: sym for sym, (vals, *_) in _ADDITIVE.items()} | {6: "I0*"}


@dataclass
class LocalFibreData:
    place: Place
    type: KodairaType
    vc4: int
    vc6: int
    vdelta: int
    split: object = None       # True/False/None (multiplicative only)
    legs_rational: object = None  # I0*: 1 + number of rational step-6 cubic roots

    @property
    def kodaira(self) -> str:
        return self.type.symbol

    @property
    def n(self) -> int:
        """n of I_n and I_n*, else 0."""
        return self.type.n

    def __repr__(self):
        extra = "" if self.split is None else (" split" if self.split else " nonsplit")
        return f"{self.kodaira}@{self.place}{extra}"


def classify_tame(vc4, vc6, vdelta):
    """Kodaira symbol from minimal valuations, residue characteristic 0 or >= 5."""
    if vc4 == 0 or vdelta == 0:
        return f"I{vdelta}", vdelta
    if vc4 == 2 and vc6 == 3 and vdelta >= 7:
        return f"I{vdelta - 6}*", vdelta - 6
    if vdelta in _BY_VDELTA:
        return _BY_VDELTA[vdelta], 0
    raise ValueError(f"valuations (vc4={vc4}, vc6={vc6}, vdelta={vdelta}) "
                     "match no tame Kodaira type")


@dataclass(frozen=True)
class LocalModel:
    """A model made minimal at one place: the surface twisted e times by the
    uniformiser, and the valuations of its c4, c6, Delta there (c4 or c6
    identically zero has valuation inf)."""
    model: "EllipticSurface"
    e: int
    vc4: int | float
    vc6: int | float
    vdelta: int


# ---------------------------------------------------------------------------
# the surface


class EllipticSurface:
    """y^2 = x^3 + a2(t) x^2 + a4(t) x + a6(t) over k(t), Euler factor chi."""

    def __init__(self, fieldad, a2: Poly, a4: Poly, a6: Poly, chi: int = 2,
                 name: str = "", base_label: str | None = None):
        self.fieldad = fieldad
        self.ring = OpRing(Poly.const(fieldad, fieldad.one))
        self.a2, self.a4, self.a6 = a2, a4, a6
        self.chi = chi
        self.name = name
        self.base_label = base_label or (
            "QQ" if fieldad is QQ else "Qsqrt5" if fieldad is TOWER
            else repr(fieldad))
        self._c4c6d = None
        self._delta = None
        self._inf = None
        self._minimal = {}
        self._critical = {}
        if self.delta().is_zero():
            raise ValueError("discriminant vanishes identically")
        # effective chart weight: smallest w with deg a_i <= i*w; exceeding
        # the declared chi means the model is not globally minimal, which the
        # per-place minimalisation absorbs
        w = chi
        for ai, wt in ((a2, 2), (a4, 4), (a6, 6)):
            if not ai.is_zero():
                w = max(w, -(-ai.degree() // wt))
        self.weight = w

    def c4_c6_delta(self):
        """(c4, c6, Delta), computed and checked against each other once."""
        if self._c4c6d is None:
            c4, c6 = weierstrass_c4_c6(self.ring, self.a2, self.a4, self.a6)
            delta = self.delta()
            if not (c4 ** 3 - c6 * c6) == delta * 1728:
                raise AssertionError("c4^3 - c6^2 != 1728*Delta")
            self._c4c6d = (c4, c6, delta)
        return self._c4c6d

    def delta(self):
        """The discriminant, computed once.  Construction needs only this, so
        c4, c6 and their check wait until c4_c6_delta() is first called."""
        if self._delta is None:
            self._delta = weierstrass_discriminant(self.ring, self.a2,
                                                   self.a4, self.a6)
        return self._delta

    def infinity_model(self) -> "EllipticSurface":
        """The u = 1/t chart with (x, y) -> (x/u^{2w}, y/u^{3w}); built once."""
        if self._inf is None:
            c = self.weight
            a2u = self.a2.reverse(2 * c)
            a4u = self.a4.reverse(4 * c)
            a6u = self.a6.reverse(6 * c)
            self._inf = EllipticSurface(self.fieldad, a2u, a4u, a6u, chi=c,
                                        name=self.name + "@inf",
                                        base_label=self.base_label)
        return self._inf

    # -- local analysis -------------------------------------------------------
    def _chart(self, place: Place):
        """(model, uniformiser) for a place: the u = 1/t chart at infinity."""
        if place.infinity:
            return self.infinity_model(), Poly.x(self.fieldad)
        return self, place.poly

    def _local_minimal(self, pi: Poly) -> "LocalModel":
        """The model made minimal at pi, with its valuations; built once per pi."""
        key = tuple(pi.coeffs)
        if key in self._minimal:
            return self._minimal[key]
        # Twisting by pi divides (a2, a4, a6) by pi^(2, 4, 6); c4, c6 and
        # Delta are homogeneous of weight 4, 6 and 12 in them, so their
        # valuations drop by 4, 6 and 12.
        a2, a4, a6 = self.a2, self.a4, self.a6
        c4, c6, delta = self.c4_c6_delta()
        vc4, vc6, vd = c4.valuation(pi), c6.valuation(pi), delta.valuation(pi)
        e = 0
        while vd >= 12 and vc4 >= 4 and vc6 >= 6:
            pi2 = pi * pi
            pi4 = pi2 * pi2
            a2, a4 = a2.exact_div(pi2), a4.exact_div(pi4)
            a6 = a6.exact_div(pi4 * pi2)
            vc4, vc6, vd = vc4 - 4, vc6 - 6, vd - 12
            e += 1
        model = self if not e else EllipticSurface(
            self.fieldad, a2, a4, a6, chi=self.chi, base_label=self.base_label)
        self._minimal[key] = LocalModel(model, e, vc4, vc6, vd)
        return self._minimal[key]

    def _critical_point(self, pi: Poly):
        """(R, xs): the critical point over the node of the I_n fibre at pi,
        mod pi^N in R with N = max(1, (n + 1)//2); built once per pi."""
        key = tuple(pi.coeffs)
        if key not in self._critical:
            local = self._local_minimal(pi)
            m = local.model
            x0 = m._node_residue(pi)
            if x0 is None:
                raise RuntimeError("no node found at a multiplicative place")
            R = LocalRing(pi, max(1, (local.vdelta + 1) // 2))    # n = v(Delta)
            self._critical[key] = R, critical_point(R, m.a2, m.a4, x0)
        return self._critical[key]

    def local_type(self, place: Place) -> LocalFibreData:
        surf, pi = self._chart(place)
        m = surf._local_minimal(pi)
        t = kodaira_type(classify_tame(m.vc4, m.vc6, m.vdelta)[0])
        data = LocalFibreData(place, t, min(m.vc4, 12), min(m.vc6, 12), m.vdelta)
        if t.family == "I" and t.n:
            data.split = m.model._multiplicative_split(pi, t.n)
        if t.family == "I*" and not t.n:
            data.legs_rational = m.model._i0star_legs(pi)
        return data

    def _multiplicative_split(self, pi: Poly, n: int):
        """Split iff the tangent-cone quadratic at the node factors over kappa."""
        x0 = self._node_residue(pi)
        if x0 is None:
            return None
        # f''(x0)/2 = 3 x0 + a2 mod pi
        c = (3 * x0 + (self.a2 % pi)) % pi
        return residue_is_square(c, pi, self.base_label)

    def _node_residue(self, pi: Poly):
        """x-coordinate (as Poly mod pi) of the node of the reduced fibre,
        or None when the reduced cubic has a triple root."""
        return cubic_node(LocalRing(pi, 1), self.a2 % pi, self.a4 % pi,
                          self.a6 % pi)

    def _i0star_legs(self, pi: Poly):
        """1 + number of kappa-rational roots of the step-6 cubic."""
        if pi.degree() != 1:
            raise NotImplementedError("cubic leg data only at degree-1 places")
        F = self.fieldad
        # depress: x -> x - a2/3 exactly, then P(X) = X^3 + (p/pi^2) X + (q/pi^3)
        p, q = depressed_cubic(self.ring, self.a2, self.a4, self.a6)
        p2 = p.exact_div(pi ** 2) % pi if not p.is_zero() else Poly(F, [])
        q3 = q.exact_div(pi ** 3) % pi if not q.is_zero() else Poly(F, [])
        if isinstance(F, ExtField):
            cubic = Poly(F, [q3.coeff(0), p2.coeff(0), F.zero, F.one])
            return 1 + len(find_roots(cubic, F))
        return 1 + cubic_root_count(F.zero, p2.coeff(0), q3.coeff(0),
                                    self.base_label)

    def iv_split(self, place: Place):
        """At a IV or IV* fibre: are its non-identity simple components
        rational?  Yes iff Q/pi^2 (IV) or Q/pi^4 (IV*) of the depressed cubic
        X^3 + P X + Q of the minimal model is a square mod pi (Tate steps 5
        and 8).  v(Q) = v(c6) is 2 and 4 there, half of v(Delta)."""
        surf, pi = self._chart(place)
        m = surf._local_minimal(pi)
        E = m.model
        _, q = depressed_cubic(E.ring, E.a2, E.a4, E.a6)
        return residue_is_square(q.exact_div(pi ** (m.vdelta // 2)), pi,
                                 self.base_label)

    def bad_fibres(self):
        """[(Place, LocalFibreData)] over every place; sum v(Delta) = 12 chi."""
        _, _, delta = self.c4_c6_delta()
        out = []
        for pi in factor_over_base(delta, self.base_label):
            place = Place(pi)
            data = self.local_type(place)
            if data.vdelta > 0:
                out.append((place, data))
        inf_place = Place(infinity=True)
        inf_data = self.local_type(inf_place)
        if inf_data.vdelta > 0:
            out.append((inf_place, inf_data))
        total = sum(d.vdelta * p.degree for p, d in out)
        if total != 12 * self.chi:
            raise AssertionError(f"sum of v(Delta) = {total} != {12 * self.chi}")
        return out


# ---------------------------------------------------------------------------
# factorization over Q and Q(sqrt 5)


def cubic_root_count(b, c, d, base_label: str = "QQ") -> int:
    """Number of distinct roots of x^3 + b x^2 + c x + d in the base field."""
    F = QQ if base_label == "QQ" else TOWER
    cubic = Poly(F, [F.one * d, F.one * c, F.one * b, F.one])
    return sum(1 for f in irreducible_factors(cubic.squarefree_part())
               if f.degree() == 1)


def factor_over_base(p: Poly, base_label: str):
    """Monic irreducible factors of p over the base field named by
    base_label ("QQ" or "Qsqrt5"), each once.  A factor t^v is split off
    first, read off the low coefficients: the rest has a smaller square-free
    part to compute, and one rational root fewer for Trager's shift."""
    F = p.field
    v = next((i for i, c in enumerate(p.coeffs) if not F.is_zero(c)), 0)
    out = [f.monic() for f in irreducible_factors(p.shift_down(v).squarefree_part())]
    out += [Poly.x(F)] * (v > 0)
    out.sort(key=lambda f: (f.degree(), repr(f)))
    return out


# ---------------------------------------------------------------------------
# sections and heights


class SectionPoint:
    """A section (x(t), y(t)) of an EllipticSurface, or the zero section."""

    def __init__(self, surface: EllipticSurface, x=None, y=None, zero=False):
        self.surface = surface
        self.is_zero = zero
        if zero:
            self.x = self.y = None
            return
        F = surface.fieldad
        self.x = x if isinstance(x, RationalFunc) else RationalFunc(x)
        self.y = y if isinstance(y, RationalFunc) else RationalFunc(y)
        lhs = self.y * self.y
        rhs = (self.x ** 3 + RationalFunc(surface.a2) * self.x ** 2
               + RationalFunc(surface.a4) * self.x + RationalFunc(surface.a6))
        if not (lhs - rhs).is_zero():
            raise ValueError("point does not satisfy the Weierstrass equation")

    def __neg__(self):
        if self.is_zero:
            return self
        return SectionPoint(self.surface, self.x, -self.y)

    def __eq__(self, other):
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return (self.x - other.x).is_zero() and (self.y - other.y).is_zero()

    def __add__(self, other):
        E = self.surface
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a2 = RationalFunc(E.a2)
        a4 = RationalFunc(E.a4)
        if (self.x - other.x).is_zero():
            if (self.y + other.y).is_zero():
                return SectionPoint(E, zero=True)
            lam = (3 * self.x * self.x + 2 * a2 * self.x + a4) / (2 * self.y)
        else:
            lam = (other.y - self.y) / (other.x - self.x)
        x3 = lam * lam - a2 - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return SectionPoint(E, x3, y3)

    def mult(self, m: int):
        if m < 0:
            return (-self).mult(-m)
        R = SectionPoint(self.surface, zero=True)
        Q = self
        while m:
            if m & 1:
                R = R + Q
            Q = Q + Q
            m >>= 1
        return R


def _x_at_infinity(P: SectionPoint) -> RationalFunc:
    """x-coordinate of the section in the u = 1/t chart."""
    E = P.surface
    F = E.fieldad
    u = Poly.x(F)
    inv_u = RationalFunc(Poly.const(F, F.one), u)
    return P.x.subs(inv_u) * RationalFunc(u) ** (2 * E.weight)


def critical_point(R: LocalRing, a2: Poly, a4: Poly, x0: Poly) -> Poly:
    """The root mod pi^N of f' = 3x^2 + 2 a2 x + a4 over the node x0: Newton
    on f', keeping v = 1/f''(xs) by v (2 - f'' v), until f'(xs) = 0 mod pi^N.

    Over a simple root of f' mod pi the precision doubles with each step, so
    N.bit_length() + 1 steps suffice; ValueError if they do not."""
    A2, A4 = R.red(a2), R.red(a4)
    xs, v = x0, R.inv(6 * x0 + 2 * A2)
    steps = R.N.bit_length() + 1
    while not (fp := R.red(3 * xs * xs + 2 * A2 * xs + A4)).is_zero():
        if not steps:
            raise ValueError("x0 is not over a simple root of f' mod pi")
        steps -= 1
        xs = R.red(xs - fp * v)
        v = R.red(v * (2 - R.red((6 * xs + 2 * A2) * v)))
    return xs


def section_component_data(P: SectionPoint, place: Place, fib: LocalFibreData):
    """(kind, m) where kind in {'identity','cycle','nonidentity'};
    for I_n, m = min(k, n-k) identifies the unordered component pair.

    Only v_pi(x - xs) up to (n + 1)//2 is read at I_n, and only v >= 1 at
    an additive place, so x is compared mod pi^N for that N alone: the
    Hensel lift over the node is unique, and min(v, N) is the same at any
    higher precision."""
    E, pi = P.surface._chart(place)
    x = _x_at_infinity(P) if place.infinity else P.x
    local = E._local_minimal(pi)
    if local.e:
        x = x / RationalFunc(pi ** (2 * local.e))
    vx = x.valuation(pi)
    if vx < 0 or not fib.vdelta:
        return ("identity", 0)
    if fib.type.family == "I":
        n = fib.n
        R, xs = E._critical_point(pi)
        m = R.valuation(R.from_rational(x) - xs)
        if m == 0:
            return ("identity", 0)
        if m >= (n + 1) // 2:
            if n % 2:
                raise AssertionError("component valuation exceeds (n-1)/2 at odd I_n")
            m = n // 2
        return ("cycle", m)
    # additive: through the cusp or not
    F = E.fieldad
    R = LocalRing(pi, 1)
    xc = -(local.model.a2 * F.inv(F.from_int(3)))  # exact triple-root shift
    v = R.valuation(R.from_rational(x) - R.red(xc))
    return ("nonidentity", 1) if v >= 1 else ("identity", 0)


def local_contribution(P: SectionPoint, place: Place, fib: LocalFibreData) -> Fraction:
    kind, m = section_component_data(P, place, fib)
    if kind == "identity":
        return Fraction(0)
    if kind == "cycle":
        return Fraction(m * (fib.n - m), fib.n)
    c = fib.type.contr
    if c is None:
        raise NotImplementedError(f"correction term for {fib.kodaira} unsupported")
    if abs(fib.type.det) == 1:
        raise AssertionError("a section cannot meet a multiple component of "
                             f"{fib.kodaira}")
    return c


def section_zero_intersection(P: SectionPoint) -> int:
    """(P.O) from the pole divisor of x(P), infinity chart included."""
    E = P.surface
    F = E.fieldad
    total = 0
    den = P.x.den
    for pi in factor_over_base(den, E.base_label):
        v = P.x.valuation(pi)
        if v < 0:
            total += ((-v + 1) // 2) * pi.degree()
    xu = _x_at_infinity(P)
    vu = xu.valuation(Poly.x(F))
    if vu < 0:
        total += (-vu + 1) // 2
    return total


def mw_height(E: EllipticSurface, P: SectionPoint,
              bad=None) -> Fraction:
    """Shioda height <P, P> = 2 chi + 2 (P.O) - sum of local corrections."""
    if P.is_zero:
        return Fraction(0)
    if bad is None:
        bad = E.bad_fibres()
    h = Fraction(2 * E.chi) + 2 * section_zero_intersection(P)
    for place, fib in bad:
        if abs(fib.type.det) == 1:     # the identity is the only simple component
            continue
        h -= place.degree * local_contribution(P, place, fib)
    return h


def mw_pairing(E: EllipticSurface, P: SectionPoint, Q: SectionPoint,
               bad=None) -> Fraction:
    """<P, Q> by bilinearity: (h(P+Q) - h(P) - h(Q)) / 2."""
    if bad is None:
        bad = E.bad_fibres()
    hPQ = mw_height(E, P + Q, bad)
    return (hPQ - mw_height(E, P, bad) - mw_height(E, Q, bad)) / 2


def component_index(E: EllipticSurface, P: SectionPoint, place: Place,
                    bad=None):
    """Unordered component datum of P at a bad place.

    Returns ('cycle', {k, n-k}) for I_n, ('identity', 0) for the zero
    component, ('nonidentity', 1) for simple non-identity components of
    additive fibres.
    """
    if bad is None:
        fib = E.local_type(place)
    else:
        fib = next(d for p, d in bad if p == place)
    kind, m = section_component_data(P, place, fib)
    if kind == "cycle":
        return ("cycle", frozenset({m, fib.n - m}))
    return (kind, m)


# ---------------------------------------------------------------------------
# discriminant bookkeeping


def trivial_lattice_disc(bad) -> int:
    """Determinant of U + sum of the fibre root lattices (negative definite)."""
    disc = -1
    for place, fib in bad:
        disc *= fib.type.det ** place.degree
    return disc


def shioda_tate_disc(r: int, disc_triv: int, disc_mw: Fraction,
                     tors_order: int) -> Fraction:
    """disc NS = (-1)^r * disc Triv * disc MW / |tors|^2."""
    if tors_order == 0:
        raise ValueError("torsion order must be positive")
    return Fraction((-1) ** r) * disc_triv * Fraction(disc_mw) / tors_order ** 2


def torsion_two_divisibility(E: EllipticSurface, T: SectionPoint) -> dict:
    """Is the 2-torsion point (0, 0) divisible by 2 over the closed base?

    For y^2 = x^3 + a2 x^2 + a4 x with T = (0,0): halving T needs a root of
    x^2 - a4(t), so T is 2-divisible iff a4 is a square in k̄(t), i.e. iff
    every irreducible factor of a4 has even multiplicity.
    """
    if T.is_zero or not T.x.is_zero() or not T.y.is_zero():
        raise ValueError("expected the 2-torsion point (0, 0)")
    if not E.a6.is_zero():
        raise ValueError("model must have a6 = 0 for the (0,0) torsion test")
    kernel = Poly.const(E.fieldad, E.fieldad.one)
    for fac, mult in E.a4.squarefree_decomposition():
        if mult % 2:
            kernel = kernel * fac
    divisible = kernel.degree() == 0
    return {"two_divisible": divisible, "squarefree_part": kernel}


def min_positive_height_on_grid(bad, chi: int = 2) -> Fraction:
    """Minimum positive value of 2 chi - sum of correction terms over the
    grid of allowed per-fibre correction values (P.O = 0)."""
    totals = {Fraction(0)}
    for place, fib in bad:
        for _ in range(place.degree):
            totals = {t + m for t in totals for m in fib.type.menu}
    return min((h for t in totals if (h := 2 * chi - t) > 0), default=None)


# ---------------------------------------------------------------------------
# quartic models


def quartic_to_weierstrass(coeffs, fieldad, chi: int = 2, name: str = ""):
    """Jacobian of Y^2 = quartic(X) with polynomial coefficients over k(s).

    coeffs = [e, d, c, b, a] low-to-high in X (a = leading).  Uses the
    classical binary-quartic invariants I, J; the result y^2 = x^3 - 27I x
    - 27J has the same j-invariant, and is isomorphic to the quartic curve
    whenever the quartic has a rational point (monic case: at infinity).
    """
    e, d, c, b, a = coeffs
    I = 12 * a * e - 3 * b * d + c * c
    J = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c ** 3
    zero = Poly(fieldad, [])
    a4 = -27 * I
    a6 = -27 * J
    return EllipticSurface(fieldad, zero, a4, a6, chi=chi, name=name)


# ---------------------------------------------------------------------------
# genus-1 quartics analysed through the t = s^2 base change


def compose_t_squared(p: Poly) -> Poly:
    """p(s^2) as a polynomial in s."""
    F = p.field
    out = [F.zero] * (2 * p.degree() + 1) if not p.is_zero() else []
    for i, c in enumerate(p.coeffs):
        out[2 * i] = c
    return Poly(F, out)


def ramified_double_image(sym: str) -> str:
    """Kodaira type of the pullback of a fibre under a double cover
    ramified at the place (valuations double, then minimalise)."""
    a, b, d = (2 * v for v in kodaira_type(sym).vals)
    while a >= 4 and b >= 6 and d >= 12:
        a, b, d = a - 4, b - 6, d - 12
    return classify_tame(a, b, d)[0]


def ramified_double_preimages(sym_s: str):
    """All downstairs types whose ramified double-cover pullback is sym_s:
    I_n and I_n* pull back to I_2n."""
    k = kodaira_type(sym_s).n // 2
    cands = dict.fromkeys([*_ADDITIVE, "I0*", "I0", f"I{k}", f"I{k}*"])
    return [sym for sym in cands if ramified_double_image(sym) == sym_s]


def analyze_quartic_double_cover(quartic_coeffs, fieldad=TOWER, chi: int = 2):
    """Bad-fibre table in the t-line for ty^2 = quartic(x; t).

    The t = s^2 substitution turns the genus-1 quartic into a Weierstrass
    model over k(s) (Jacobian of a monic quartic); places away from
    {0, inf} transfer verbatim, and the types over t = 0, inf are solved
    from their pullback types together with the Euler-number budget 12 chi.
    """
    s_coeffs = [compose_t_squared(q) for q in quartic_coeffs]
    jac = quartic_to_weierstrass(s_coeffs, fieldad, chi=chi, name="quartic@s")
    bad_s = jac.bad_fibres()
    F = fieldad
    t_entries = []
    v_known = 0
    sym0 = syminf = None
    middle_types = []
    for place, fib in bad_s:
        if place.infinity:
            syminf = fib
        elif place.poly == Poly.x(F):
            sym0 = fib
        else:
            middle_types.append((place.poly, fib))
    # places away from 0, inf pair up under s -> -s: their product is a
    # polynomial in s^2, which is the t-locus
    prod = Poly.const(F, F.one)
    for pl, fib in middle_types:
        prod = prod * pl
    if any(not F.is_zero(c) for i, c in enumerate(prod.coeffs) if i % 2):
        raise AssertionError("middle places are not symmetric in s -> -s")
    t_locus = Poly(F, prod.coeffs[0::2])
    for pi_t in factor_over_base(t_locus, jac.base_label):
        pi_s = compose_t_squared(pi_t)
        v = None
        for pl, fib in middle_types:
            if (pi_s % pl).is_zero():
                v = fib
                break
        if v is None:
            raise AssertionError("t-locus factor lost its s-representative")
        t_entries.append((Place(pi_t), v.kodaira, v.n))
        v_known += v.vdelta * pi_t.degree()
    budget = 12 * chi - v_known
    cands0 = ramified_double_preimages(sym0.kodaira)
    candsinf = ramified_double_preimages(syminf.kodaira)
    solutions = []
    for c0 in cands0:
        for ci in candsinf:
            if kodaira_type(c0).vdelta + kodaira_type(ci).vdelta == budget:
                solutions.append((c0, ci))
    if len(solutions) != 1:
        raise AssertionError(f"Euler budget does not pin the ramified types: "
                             f"{solutions}")
    c0, ci = solutions[0]
    report = [(Place(Poly.x(F)), c0, 0), (Place(infinity=True), ci, 0)] + t_entries
    total = sum(kodaira_type(sym).vdelta * pl.degree for pl, sym, _n in report)
    return {"s_model": jac, "s_table": bad_s, "t_table": report,
            "t_locus": t_locus.monic(), "total_vdelta": total}


def reduce_fiber(E: EllipticSurface, t0, field, emb=None):
    """Coefficient-wise reduction of the fibre over t0 in F_q.

    Returns (curve, bad) with curve a CurveOverFq when the fibre is smooth
    (bad = False), or (None, True) at a bad place.  Tower-coefficient models
    need a SplitEmbedding covering their generators; denominators must be
    prime to p.
    """
    def red_coeff(c):
        if isinstance(c, TowerElement):
            if emb is None:
                raise ValueError("tower coefficients need an embedding")
            return field.from_int(reduce_mod_p(c, emb))
        return field.from_int(rational_mod_p(c, field.p))

    A2, A4, A6 = (Poly(field, map(red_coeff, a.coeffs))(t0)
                  for a in (E.a2, E.a4, E.a6))
    try:
        return CurveOverFq(field, A2, A4, A6), False
    except ValueError:
        return None, True
