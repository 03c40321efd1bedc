"""Derivation of the full intersection matrices of the 34 named -2-curves.

Inputs are the printed defining equations: the seven split lines, the three
conics with their w-polynomials, and the A-type singular points.  Everything
else is computed: the split f = h^2 along each curve (an exact polynomial
identity in a parameter of the curve), sheet matching at intersection
points away from the branch sextic, and exceptional-component landings at
the five singular points by exact power-series analysis of the blown-up
double cover.  The arithmetic is the library's: TowerElement coefficients,
Poly series in s, poly.LocalRing for series inverses, numfield.sqrt_in_k4,
and fixtures.mirror_label for every lift label.

The outputs (a 24-generator matrix for the divisor-class sublattice and the
full 34-curve matrix) ship as fixtures with "derived" provenance, and the
test suite re-validates every theoretical invariant against them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

from .fixtures import load_gram, load_surface, mirror_label as _mirror_label
from .numfield import TOWER, TowerElement, sqrt_in_k4
from .poly import LocalRing, OpRing, Poly

ZERO = TowerElement.rational(0)
ONE = TowerElement.rational(1)

NTRUNC = 10


# ---------------------------------------------------------------------------
# truncated power series: Poly over TOWER in s, modulo s^NTRUNC


S = Poly.x(TOWER)


def _trunc(a):
    return Poly(TOWER, a.coeffs[:NTRUNC])


def _tmul(a, b):
    """a * b mod s^NTRUNC."""
    out = [ZERO] * min(NTRUNC, len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs[:NTRUNC]):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs[:NTRUNC - i]):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return Poly(TOWER, out)


def _ord(a):
    """The s-adic order, NTRUNC for a series that is zero mod s^NTRUNC."""
    return next((i for i, c in enumerate(a.coeffs[:NTRUNC]) if not c.is_zero()),
                NTRUNC)


def _compose(a, inner):
    """a(inner(s)) mod s^NTRUNC; inner must have zero constant term."""
    if _ord(inner) < 1:
        raise ValueError("composition needs ord >= 1")
    acc = Poly(TOWER, [])
    for c in reversed(a.coeffs[:NTRUNC]):
        acc = _tmul(acc, inner) + c
    return acc


def _series_inverse_param(x):
    """The compositional inverse t of x(s) = x1 s + ... with x1 != 0:
    t(x(s)) = s mod s^NTRUNC."""
    if _ord(x) != 1:
        raise ValueError("need ord exactly 1")
    # t_k from the s^k coefficient of sum_j t_j x^j, whose x^k term is
    # t_k x1^k
    inv1 = ONE / x.coeff(1)
    powers = [None, _trunc(x)]
    for _ in range(2, NTRUNC):
        powers.append(_tmul(powers[-1], x))
    t = [ZERO, inv1]
    for k in range(2, NTRUNC):
        acc = ZERO
        for j in range(1, k):
            acc = acc + t[j] * powers[j].coeff(k)
        t.append(-acc * inv1 ** k)
    return Poly(TOWER, t)


# ---------------------------------------------------------------------------
# the curve data


def _k4(c1=0, c5=0):
    return TowerElement.k4(c1, 0, c5, 0)


M_MINUS = _k4(Fraction(3, 2), Fraction(-1, 2))   # (3 - sqrt5)/2
M_PLUS = _k4(Fraction(3, 2), Fraction(1, 2))
MP1 = _k4(Fraction(-1, 2), Fraction(1, 2))       # (-1 + sqrt5)/2
MP2 = _k4(Fraction(-1, 2), Fraction(-1, 2))


class PlaneCurve:
    """A split curve: defining polynomial q and w-polynomial h (w = h on the
    positive lift), both as exponent dicts over (x, y, z)."""

    def __init__(self, name, q, h):
        self.name = name
        self.q = q
        self.h = h


def _eval_form(d, pt):
    """The ternary form d at pt = (x, y, z), each coordinate's powers
    computed once.  The coordinates are TowerElements, Polys in s for d
    restricted to a parametrised curve, or Polys over UV for d in the local
    coordinates (u, v) at a point."""
    deg = max(max(e) for e in d)
    powers = []
    for v in pt:
        pw = [ONE]
        for _ in range(deg):
            pw.append(pw[-1] * v)
        powers.append(pw)
    px, py, pz = powers
    acc = ZERO
    for (a, b, c), coef in d.items():
        acc = acc + coef * px[a] * py[b] * pz[c]
    return acc


def _lin(cx, cy, cz):
    return {(1, 0, 0): _c(cx), (0, 1, 0): _c(cy), (0, 0, 1): _c(cz)}


def _c(v):
    return v if isinstance(v, TowerElement) else TowerElement.rational(v)


def sextic_poly():
    return {tuple(e): TowerElement.rational(c) for e, c in load_surface().monomials}


def build_curves():
    """The seven lines and three conics, with exact w-polynomials."""
    curves = []
    # lines: (name, linear form, w-polynomial)
    curves.append(PlaneCurve("L1", _lin(1, 0, 0), {(0, 1, 2): ONE}))
    # w for L2 is z(y+z)^2 = y^2 z + 2 y z^2 + z^3
    curves.append(PlaneCurve("L2", {(1, 0, 0): ONE, (0, 0, 1): -ONE},
                             {(0, 2, 1): ONE, (0, 1, 2): TowerElement.rational(2),
                              (0, 0, 3): ONE}))
    # w for L3 is -m_- * z (x^2 - xz + z^2)
    curves.append(PlaneCurve("L3", {(0, 1, 0): ONE, (0, 0, 1): M_MINUS},
                             _scale_poly({(2, 0, 1): ONE, (1, 0, 2): -ONE,
                                          (0, 0, 3): ONE}, -M_MINUS)))
    curves.append(PlaneCurve("L4", {(0, 1, 0): ONE, (0, 0, 1): M_PLUS},
                             _scale_poly({(2, 0, 1): ONE, (1, 0, 2): -ONE,
                                          (0, 0, 3): ONE}, -M_PLUS)))
    curves.append(PlaneCurve("L5", _lin(0, 1, 0), {(1, 0, 2): ONE}))
    # w for L6 is z(x-z)(x+z) = x^2 z - z^3
    curves.append(PlaneCurve("L6", {(0, 1, 0): ONE, (0, 0, 1): ONE},
                             {(2, 0, 1): ONE, (0, 0, 3): -ONE}))
    curves.append(PlaneCurve("L7", _lin(0, 0, 1),
                             {(2, 1, 0): ONE, (1, 2, 0): ONE}))
    # conics
    def conic(name, mp):
        q = {(2, 0, 0): ONE, (1, 1, 0): mp, (1, 0, 1): mp, (0, 1, 1): ONE}
        # w = -(2/(3 +- sqrt5)) * (xy^2 + ((5+-sqrt5)/2) xyz
        #      + ((5+-3 sqrt5)/2) y^2 z + ((3+-sqrt5)/2) xz^2
        #      + ((5+-3 sqrt5)/2) yz^2)
        s = 1 if mp == MP1 else -1
        h = {(1, 2, 0): ONE,
             (1, 1, 1): _k4(Fraction(5, 2), Fraction(s, 2)),
             (0, 2, 1): _k4(Fraction(5, 2), Fraction(3 * s, 2)),
             (1, 0, 2): _k4(Fraction(3, 2), Fraction(s, 2)),
             (0, 1, 2): _k4(Fraction(5, 2), Fraction(3 * s, 2))}
        h = _scale_poly(h, -(ONE / _k4(Fraction(3, 2), Fraction(s, 2))))
        return PlaneCurve(name, q, h)

    curves.append(conic("C1", MP1))
    curves.append(conic("C2", MP2))
    curves.append(PlaneCurve("C3", {(2, 0, 0): ONE, (0, 1, 1): ONE},
                             {(1, 2, 0): ONE, (0, 2, 1): -ONE,
                              (1, 0, 2): -ONE, (0, 1, 2): -ONE}))
    return curves


def _scale_poly(d, c):
    return {e: v * c for e, v in d.items()}


def verify_split(curves) -> bool:
    """f - h^2 restricts to the zero polynomial on each curve (f = h^2 mod
    q): along s*A + B on a line, along (s*L, -C, L) on a conic y*L + C = 0,
    whose z = 1 chart is y = -C(s, 1)/L(s, 1)."""
    f = sextic_poly()
    for cur in curves:
        if max(sum(e) for e in cur.q) == 1:
            pt = _on_line(*_line_param(cur))
        else:
            parts = [Poly(TOWER, []), Poly(TOWER, [])]
            for (a, b, _), coef in cur.q.items():
                if b > 1:
                    raise AssertionError(f"{cur.name} is not linear in y")
                parts[b] = parts[b] + S ** a * coef
            C, L = parts
            if L.is_zero():
                raise AssertionError(f"{cur.name} is not linear in y")
            pt = (S * L, -C, L)
        if not (_eval_form(f, pt) - _eval_form(cur.h, pt) ** 2).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# local landings at the singular points


SING_POINTS = [
    ("P1", 1, (ONE, ONE, -ONE)),
    ("P2", 2, (ZERO, ZERO, ONE)),
    ("P3", 3, (ONE, -ONE, ONE)),
    ("P4", 4, (ONE, ZERO, ZERO)),
    ("P5", 4, (ZERO, ONE, ZERO)),
]


class Germ:
    """One lift of a curve through a singular point, parametrised by the
    local coordinate u itself: v(u) and the sheet value w(u) as series."""

    __slots__ = ("gid", "v", "w")

    def __init__(self, gid, v, w):
        self.gid = gid
        self.v = v
        self.w = w


def _poly2_eval_series(F, u, v):
    acc = Poly(TOWER, [])
    for (i, j), coef in F.items():
        if coef.is_zero():
            continue
        term = Poly.const(TOWER, coef)
        for _ in range(i):
            term = _tmul(term, u)
        for _ in range(j):
            term = _tmul(term, v)
        acc = acc + term
    return acc


def _poly2_sub_shear(F, alpha):
    """F(u, v + alpha*u) as a dict (substituting v -> v + alpha u)."""
    out = {}
    for (i, j), coef in F.items():
        for k in range(j + 1):
            key = (i + j - k, k)
            add = coef * comb(j, k) * (alpha ** (j - k))
            out[key] = out.get(key, ZERO) + add
    return {k: v for k, v in out.items() if not v.is_zero()}


def _poly2_blowup_u(F):
    """F(u, u*v) / u^2."""
    out = {}
    for (i, j), coef in F.items():
        if i + j < 2:
            raise ValueError("multiplicity below 2 at blowup")
        key = (i + j - 2, j)
        out[key] = out.get(key, ZERO) + coef
    return {k: v for k, v in out.items() if not v.is_zero()}


def _mult_at_origin(F):
    return min((i + j for (i, j), c in F.items() if not c.is_zero()),
               default=10 ** 9)


def analyze_singularity(F, germs, level=1):
    """Resolve w^2 = F at the origin and land each germ.

    Returns (landings, meets):
      landings: {gid: ("node", level, poskey)
                 or ("end", level, sign, poskey)
                 or deeper results bubbled up}
      meets: {(gidA, gidB): multiplicity upstairs above this point}
    """
    F = {k: v for k, v in F.items() if not v.is_zero()}
    if _mult_at_origin(F) != 2:
        raise ValueError("expected multiplicity exactly 2")
    F20 = F.get((2, 0), ZERO)
    F11 = F.get((1, 1), ZERO)
    F02 = F.get((0, 2), ZERO)
    disc = F11 * F11 - 4 * F20 * F02
    landings = {}
    meets = {}
    if not disc.is_zero():
        _land_node(germs, level, landings, meets)
        return landings, meets
    # degenerate tangent cone: the top-level chart shear guarantees the
    # cone is v-aligned, and the blowup recursion preserves that
    if F02.is_zero():
        raise AssertionError("tangent cone aligned with the u-axis; "
                             "chart shear failed")
    alpha = -F11 / (2 * F02)
    Fs = _poly2_sub_shear(F, alpha)
    c = Fs.get((0, 2))
    rc = sqrt_in_k4(c)
    if rc is None:
        raise NotImplementedError("conjugate exceptional pair (end sheets "
                                  "not rational over K4)")
    enders = []
    tangents = []
    for g in germs:
        g = Germ(g.gid, g.v - S * alpha, g.w)
        dv = g.v.coeff(1)
        if dv.is_zero():
            tangents.append(g)
            continue
        sig = g.w.coeff(1) / (rc * dv)
        _store_sign(landings, g.gid, level, sig, ("pos", dv))
        enders.append((g, sig, ("pos", dv)))
    # meets among same-end, same-position landers
    for a in range(len(enders)):
        for b in range(a + 1, len(enders)):
            gA, sA, pA = enders[a]
            gB, sB, pB = enders[b]
            if sA == sB and pA == pB:
                down = _ord(gA.v - gB.v)
                if down < 1:
                    raise AssertionError("coincident germs?")
                if down - 1 > 0:
                    meets[_key(gA.gid, gB.gid)] = down - 1
    if not tangents:
        return landings, meets
    # recurse on the strict transform
    F2 = _poly2_blowup_u(Fs)
    sub = [Germ(g.gid, g.v.shift_down(1), g.w.shift_down(1))
           for g in tangents]
    m2 = _mult_at_origin({k: v for k, v in F2.items()
                          if not (k == (0, 0) and v.is_zero())})
    if _poly2_const(F2).is_zero() and m2 >= 2:
        sub_land, sub_meets = analyze_singularity(F2, sub, level + 1)
        landings.update(sub_land)
        meets.update(sub_meets)
        return landings, meets
    # a split germ tangent at a cusp-terminal level would force an odd
    # vanishing order of the branch sextic along itself, which is impossible
    raise AssertionError("split germ tangent at a terminal cusp level")


def _poly2_const(F):
    return F.get((0, 0), ZERO)


def _key(a, b):
    return (a, b) if a <= b else (b, a)


def _store_sign(landings, gid, level, sig, poskey):
    if sig == ONE:
        s = 1
    elif sig == -ONE:
        s = -1
    else:
        raise AssertionError(f"non-unit sheet sign for {gid}: {sig}")
    landings[gid] = ("end", level, s, poskey)


def _land_node(germs, level, landings, meets):
    """Terminal A1: single exceptional component."""
    pts = []
    for g in germs:
        pos = ("fin", g.v.coeff(1), g.w.coeff(1))
        landings[g.gid] = ("node", level, pos)
        pts.append((g, pos))
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            gA, pA = pts[a]
            gB, pB = pts[b]
            if pA == pB:
                down = min(_ord(gA.v - gB.v), _ord(gA.w - gB.w))
                if down - 1 > 0:
                    meets[_key(gA.gid, gB.gid)] = down - 1


# ---------------------------------------------------------------------------
# germ extraction and assembly


# the coefficient ring of local polynomials: Polys in v over Polys in u
UV = OpRing(Poly.const(TOWER, ONE))


def _affine_chart(point):
    """x, y, z in the local coordinates (u, v) at `point`, as Polys in v over
    UV: the first nonzero coordinate of z, y, x is set to 1, and the other
    two are their values there plus u and v in turn."""
    k = next(i for i in (2, 1, 0) if not point[i].is_zero())
    local = iter((Poly(UV, [S]), Poly.x(UV)))      # u, then v
    return tuple(Poly(UV, [Poly.const(TOWER, c / point[k])])
                 + (0 if i == k else next(local)) for i, c in enumerate(point))


def _localize(d, base):
    """The ternary form d substituted into the chart `base`, as an (i, j)
    dict holding the coefficient of u^i v^j."""
    return {(i, j): c for j, cj in enumerate(_eval_form(d, base).coeffs)
            for i, c in enumerate(cj.coeffs) if not c.is_zero()}


def _param_germ(qloc):
    """(u(s), v(s)) for the smooth branch of qloc = 0 through the origin."""
    q01 = qloc.get((0, 1), ZERO)
    q10 = qloc.get((1, 0), ZERO)
    if q01.is_zero() and q10.is_zero():
        raise ValueError("curve is singular at the point")
    # Newton on the coordinate the curve is a graph over, to a fixed point
    flip = q01.is_zero()
    if flip:
        qloc = _poly2_swap(qloc)
    dq = {(i, j - 1): coef * j for (i, j), coef in qloc.items() if j}
    series = LocalRing(S, NTRUNC)
    v = Poly(TOWER, [])
    while True:
        step = _tmul(_poly2_eval_series(qloc, S, v),
                     series.inv(_poly2_eval_series(dq, S, v)))
        if step.is_zero():
            return (v, S) if flip else (S, v)
        v = v - step


def branches_at_point(curves, point):
    """The local sextic at the point, and (name, u, v, h) for every curve
    through it, h being w on the positive lift."""
    base = _affine_chart(point)
    Floc = _localize(sextic_poly(), base)
    branches = []
    for cur in curves:
        if not _eval_form(cur.q, point).is_zero():
            continue
        qloc, hloc = _localize(cur.q, base), _localize(cur.h, base)
        u, v = _param_germ(qloc)
        branches.append((cur.name, u, v, _poly2_eval_series(hloc, u, v)))
    return Floc, branches


def point_landings(curves):
    """Landings/meets at all five singular points, raw engine output."""
    out = {}
    for name, atype, point in SING_POINTS:
        Floc, branches = branches_at_point(curves, point)
        # every branch must be a graph over the u-axis, and the landing engine
        # needs the branch tangent cone to keep a nonzero v^2 part: replace u
        # by u + k v for the first k satisfying both
        Q20 = Floc.get((2, 0), ZERO)
        Q11 = Floc.get((1, 1), ZERO)
        Q02 = Floc.get((0, 2), ZERO)
        for k in range(0, 12):
            kk = TowerElement.rational(k)
            cone_v = Q20 * kk * kk - Q11 * kk + Q02
            if not cone_v.is_zero() and all(
                    _ord(u + v * kk) == 1 for _, u, v, _ in branches):
                break
        else:
            raise NotImplementedError("no admissible chart shear found")
        if k:
            # u_new = u + k v  <=>  u = u_new - k v: the shear with u, v swapped
            Floc = _poly2_swap(_poly2_sub_shear(_poly2_swap(Floc), -kk))
        # reparametrise each branch by u itself: every quantity read below
        # (dv/du, w/du, ord w, ord(vA - vB)) is invariant under this
        germs, vs = [], []
        for cname, u, v, h in branches:
            t = _series_inverse_param(u + v * kk)
            v, h = _compose(v, t), _compose(h, t)
            germs += [Germ(cname + "+", v, h), Germ(cname + "-", v, -h)]
            vs.append((cname, v))
        landings, meets = analyze_singularity(Floc, germs)
        worder = {g.gid: _ord(g.w) for g in germs}
        idown = {(nA, nB): _ord(vA - vB)
                 for nA, vA in vs for nB, vB in vs if nA < nB}
        out[name] = {"type": atype, "landings": landings, "meets": meets,
                     "worder": worder, "idown": idown}
    return out


def _poly2_swap(F):
    """F(v, u)."""
    return {(j, i): coef for (i, j), coef in F.items()}


# ---------------------------------------------------------------------------
# full matrix assembly


LINES = ["L%d" % i for i in range(1, 8)]
CONICS = ["C1", "C2", "C3"]
CURVE_ORDER = (LINES + [_mirror_label(n) for n in LINES]
               + CONICS + [_mirror_label(n) for n in CONICS])
E_ORDER = ["E11", "E2m1", "E2p1", "E3m1", "E30", "E3p1",
           "E4m2", "E4m1", "E4p1", "E4p2", "E5m2", "E5m1", "E5p1", "E5p2"]
LABELS34 = CURVE_ORDER + E_ORDER

# exceptional chains: consecutive intersections within each point
E_CHAINS = [["E2m1", "E2p1"], ["E3m1", "E30", "E3p1"],
            ["E4m2", "E4m1", "E4p1", "E4p2"],
            ["E5m2", "E5m1", "E5p1", "E5p2"]]


def _gid_to_label(gid):
    name, sign = gid[:-1], gid[-1]
    return name if sign == "+" else _mirror_label(name)


def _landing_label(pname, landing):
    """Map an engine landing to the standard exceptional-curve label.

    Anchors: E2p1 is the component of L1+ at P2; E31 is L6+'s end at P3;
    E4m2 is L6+'s end and E4p2 is L7+'s end at P4 (L5+ then sits on E4p1's
    neighbour E4m1 or E4p1 by the sheet-matched gluing); at P5 the middle
    hit by L1+ is E5p1 and the end shared by L2+/L7+ is E5p2.
    """
    kind = landing[0]
    if pname == "P1":
        return "E11"
    if pname == "P2":
        # L1+ lands with sign -1 => E2p1 := sign -1
        return "E2p1" if landing[2] == -1 else "E2m1"
    if pname == "P3":
        if kind == "node":
            return "E30"
        # L6+ lands with sign -1 => E3p1 := sign -1
        return "E3p1" if landing[2] == -1 else "E3m1"
    if pname in ("P4", "P5"):
        # chain is [(1,+1), (2,+1), (2,-1), (1,-1)] by the sheet-matched
        # gluing; L6+ at (1,+1) anchors E4m2, so positions 1..4 read
        # E4m2, E4m1, E4p1, E4p2 (and likewise at P5)
        return "E" + pname[1] + {(1, 1): "m2", (2, 1): "m1",
                                 (2, -1): "p1", (1, -1): "p2"}[landing[1:3]]
    raise KeyError(pname)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _linear_coeffs(cur):
    return tuple(cur.q.get(e, ZERO) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _same_proj(P, Q):
    return not any(_cross(P, Q))


def _line_param(cur):
    """Two independent points spanning the line (projective param s*A + t*B)."""
    c = _linear_coeffs(cur)
    basis = []
    for e in ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)):
        p = _cross(c, e)
        if any(p) and not (basis and _same_proj(basis[0], p)):
            basis.append(p)
        if len(basis) == 2:
            return basis[0], basis[1]
    raise AssertionError("degenerate line")


def _on_line(A, B):
    """The point s*A + B of the line, as a triple of Polys in s."""
    return tuple(Poly(TOWER, [b, a]) for a, b in zip(A, B))


def _sheet_pairs(a, b, g, h):
    """The lift pairs of curves a and b that meet above a point off the
    branch sextic where w = g on a's positive lift and w = h on b's: the
    same-sheet pairs when g = h, the crossed pairs when g = -h.  On the
    branch (h = 0, and so g = 0 by the split) the sheets cannot be told."""
    if h.is_zero():
        raise NotImplementedError(f"{a} and {b} meet on the branch sextic")
    ma, mb = _mirror_label(a), _mirror_label(b)
    if (g - h).is_zero():
        return [(a, b), (ma, mb)]
    if (g + h).is_zero():
        return [(a, mb), (ma, b)]
    raise AssertionError(f"sheets of {a} and {b} fail to match")


def off_singular_line_line(curves_by_name, sing_pts):
    """Contributions to the curve-curve block from line-line intersections."""
    out = {}
    for a, b in combinations(LINES, 2):
        cA, cB = curves_by_name[a], curves_by_name[b]
        P = _cross(_linear_coeffs(cA), _linear_coeffs(cB))
        if any(_same_proj(P, sp) for sp in sing_pts):
            continue
        for k in _sheet_pairs(a, b, _eval_form(cA.h, P), _eval_form(cB.h, P)):
            out[k] = out.get(k, 0) + 1
    return out


def _binary_quadratic_roots(q):
    """[(root, multiplicity)] over K4 of the binary quadratic q(s, t) in the
    chart t = 1, None standing for the root s = infinity; or None when the
    roots are a conjugate pair."""
    c0, c1, c2 = q.coeff(0), q.coeff(1), q.coeff(2)
    if c2.is_zero():
        if q.is_zero():
            raise AssertionError("line inside conic?")
        return [(None, 2)] if c1.is_zero() else [(None, 1), (-c0 / c1, 1)]
    r = sqrt_in_k4(c1 * c1 - 4 * c2 * c0)
    if r is None:
        return None
    if r.is_zero():
        return [(-c1 / (2 * c2), 2)]
    return [((-c1 + r) / (2 * c2), 1), ((-c1 - r) / (2 * c2), 1)]


def off_singular_line_conic(curves_by_name, sing_pts):
    """Line-conic contributions away from the singular points."""
    out = {}
    for ln, cn in product(LINES, CONICS):
        cL, cC = curves_by_name[ln], curves_by_name[cn]
        A, B = _line_param(cL)
        on_line = _on_line(A, B)
        qform, g3, h3 = (_eval_form(d, on_line) for d in (cC.q, cL.h, cC.h))
        roots = _binary_quadratic_roots(qform)
        if roots is None:
            # a conjugate pair: g = +-h at both points or at neither, read
            # off the residues mod the quadratic
            sheets = [(g3 % qform, h3 % qform, 2)]
        else:
            pts = [(A if r is None else tuple(c(r) for c in on_line), mult)
                   for r, mult in roots]
            sheets = [(_eval_form(cL.h, P), _eval_form(cC.h, P), mult)
                      for P, mult in pts
                      if not any(_same_proj(P, sp) for sp in sing_pts)]
        for g, h, mult in sheets:
            for k in _sheet_pairs(ln, cn, g, h):
                out[k] = out.get(k, 0) + mult
    return out


def same_curve_pairings(curves_by_name, engine_out):
    """(X, Xt) entries: branch tangencies away from the singular points.

    deg(h restricted to the curve) minus the total vanishing order at the
    singular points the curve passes through.
    """
    out = {}
    worders = {}
    for pname, data in engine_out.items():
        for gid, wo in data["worder"].items():
            worders.setdefault(gid, {})[pname] = wo
    for name, cur in curves_by_name.items():
        # every w-polynomial is a cubic, so h restricted to the curve has
        # 3 * deg(curve) zeros; singular orders are subtracted below
        total = 3 * max(sum(e) for e in cur.q)
        sing = sum(worders.get(name + "+", {}).values())
        off = total - sing
        if off < 0:
            raise AssertionError("negative off-singular tangency count")
        out[(name, _mirror_label(name))] = off
    return out


def derive_matrices():
    """The 34x34 intersection matrix and the 24-generator sublattice matrix.

    Every entry is computed from the defining equations; the result is
    checked for mirror symmetry, Galois invariance and agreement with the
    partially printed fibre data before being returned.
    """
    curves = build_curves()
    if not verify_split(curves):
        raise AssertionError("some curve fails f = h^2")
    by_name = {c.name: c for c in curves}
    sing_pts = [p for _, _, p in SING_POINTS]
    engine = point_landings(curves)

    n = len(LABELS34)
    idx = {l: i for i, l in enumerate(LABELS34)}
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = -2

    def add(a, b, v):
        if a == b:
            raise AssertionError(f"self-entry {a}")
        M[idx[a]][idx[b]] += v
        M[idx[b]][idx[a]] += v

    # exceptional chains
    for chain in E_CHAINS:
        for a, b in zip(chain, chain[1:]):
            add(a, b, 1)
    # engine landings and meets
    for pname, data in engine.items():
        for gid, landing in data["landings"].items():
            add(_gid_to_label(gid), _landing_label(pname, landing), 1)
        for (g1, g2), m in data["meets"].items():
            add(_gid_to_label(g1), _gid_to_label(g2), m)
    # off-singular contributions
    for (a, b), v in off_singular_line_line(by_name, sing_pts).items():
        add(a, b, v)
    for (a, b), v in off_singular_line_conic(by_name, sing_pts).items():
        add(a, b, v)
    for (a, b), v in same_curve_pairings(by_name, engine).items():
        add(a, b, v)

    # Bezout audits
    _audit_bezout(engine, M, idx)
    # mirror symmetry
    for a in LABELS34:
        for b in LABELS34:
            if M[idx[a]][idx[b]] != M[idx[_mirror_label(a)]][idx[_mirror_label(b)]]:
                raise AssertionError(f"mirror symmetry fails at ({a}, {b})")
    # Galois invariance: sqrt5 -> -sqrt5 swaps L3/L4 and C1/C2 (and mirrors)
    def gal(l):
        for a, b in (("L3", "L4"), ("Lt3", "Lt4"), ("C1", "C2"), ("Ct1", "Ct2")):
            if l == a:
                return b
            if l == b:
                return a
        return l
    for a in LABELS34:
        for b in LABELS34:
            if M[idx[a]][idx[b]] != M[idx[gal(a)]][idx[gal(b)]]:
                raise AssertionError(f"Galois invariance fails at ({a}, {b})")
    # agreement with the printed partial data
    part = load_gram("lemma_partial")
    pidx = {l: i for i, l in enumerate(part.labels)}
    for a in part.labels:
        for b in part.labels:
            if a == b:
                continue
            v = part.gram[pidx[a]][pidx[b]]
            if v and M[idx[a]][idx[b]] != v:
                raise AssertionError(
                    f"printed fibre datum disagrees at ({a}, {b}): "
                    f"derived {M[idx[a]][idx[b]]}, printed {v}")

    # the 24-generator sublattice: H + the positive lifts + exceptional curves
    lam_labels = ["H"] + LINES + CONICS[:2] + E_ORDER
    m24 = [[0] * 24 for _ in range(24)]
    for i, a in enumerate(lam_labels):
        for j, b in enumerate(lam_labels):
            if a == "H" and b == "H":
                m24[i][j] = 2
            elif a == "H" or b == "H":
                other = b if a == "H" else a
                if other.startswith("L"):
                    m24[i][j] = 1
                elif other.startswith("C"):
                    m24[i][j] = 2
                else:
                    m24[i][j] = 0
            else:
                m24[i][j] = M[idx[a]][idx[b]]
    return {"labels34": LABELS34, "gram34": M,
            "labels24": lam_labels, "gram24": m24}


def _audit_bezout(engine, M, idx):
    """Total intersection numbers downstairs must match Bezout degrees."""
    def sing_idown(a, b):
        key = (a, b) if a <= b else (b, a)
        return sum(data["idown"].get(key, 0) for data in engine.values())

    for a, b in combinations(LINES, 2):
        sing = sing_idown(a, b)
        off = 0 if sing else 1
        if sing + off != 1:
            raise AssertionError(f"Bezout fails for {a}, {b}")
    for ln, cn in product(LINES, CONICS):
        sing = sing_idown(ln, cn)
        lifts_l, lifts_c = {ln, _mirror_label(ln)}, {cn, _mirror_label(cn)}
        # off-singular contributions were recorded on the matrix between
        # all four lift pairs; their total equals twice the off part
        off_total = sum(M[idx[x]][idx[y]] for x in lifts_l for y in lifts_c)
        # subtract the upstairs meets that came from singular points
        for data in engine.values():
            for (g1, g2), m in data["meets"].items():
                pair = {_gid_to_label(g1), _gid_to_label(g2)}
                if pair & lifts_l and pair & lifts_c:
                    off_total -= m
        if sing + off_total // 2 != 2:
            raise AssertionError(f"Bezout fails for {ln}, {cn}: "
                                 f"sing {sing}, off {off_total}")
    for a, b in combinations(CONICS, 2):
        if sing_idown(a, b) != 4:
            raise AssertionError(f"Bezout fails for {a}, {b}")
