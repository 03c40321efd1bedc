"""Derivation of the full intersection matrices of the 34 named -2-curves.

Inputs are the printed defining equations: the seven split lines, the three
conics with their w-polynomials, and the A-type singular points.  Everything
else is computed: sheet matching at intersection points away from the branch
sextic, and exceptional-component landings at the five singular points by
exact power-series analysis of the blown-up double cover.

The outputs (a 24-generator matrix for the divisor-class sublattice and the
full 34-curve matrix) ship as fixtures with "derived" provenance, and the
test suite re-validates every theoretical invariant against them.
"""

from __future__ import annotations

from fractions import Fraction

from .fixtures import mirror_label as _mirror_label
from .numfield import TOWER, TowerElement
from .poly import Poly
from .siverify import sqrt_in_k4
from .tate import LocalRing

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

    def eval_q(self, pt):
        return _eval_poly3(self.q, pt)

    def eval_h(self, pt):
        return _eval_poly3(self.h, pt)


def _eval_poly3(d, pt):
    """sum coef x^a y^b z^c, each coordinate's powers computed once."""
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
    from .fixtures import load_surface
    fix = load_surface()
    return {tuple(e): TowerElement.rational(c) for e, c in fix.monomials}


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
        coef = ONE / (_k4(Fraction(3, 2), Fraction(1, 2))
                      if mp == MP1 else _k4(Fraction(3, 2), Fraction(-1, 2)))
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
    """f - h^2 must vanish on each curve (f = h^2 mod q)."""
    import random
    f = sextic_poly()
    rng = random.Random(17)
    for cur in curves:
        for _ in range(12):
            pt = _random_point_on(cur, rng)
            if pt is None:
                continue
            val = _eval_poly3(f, pt) - cur.eval_h(pt) ** 2
            if not val.is_zero():
                return False
    return True


def _random_point_on(cur, rng):
    """A random K4 point of the curve (lines always; conics via x-slices)."""
    for _ in range(40):
        if all(e[0] + e[1] + e[2] == 1 for e in cur.q):
            # line: pick two free coordinates
            y = TowerElement.rational(rng.randrange(-9, 9))
            z = TowerElement.rational(rng.randrange(-9, 9))
            cx = cur.q.get((1, 0, 0), ZERO)
            cy = cur.q.get((0, 1, 0), ZERO)
            cz = cur.q.get((0, 0, 1), ZERO)
            if not cx.is_zero():
                x = -(cy * y + cz * z) / cx
                return (x, y, z)
            if not cy.is_zero():
                y2 = -(cz * z) / cy
                return (TowerElement.rational(rng.randrange(-9, 9)), y2, z)
            return (y, z, ZERO)
        # conic: solve for y given x, z when the y-part is linear
        x = TowerElement.rational(rng.randrange(-9, 9))
        z = TowerElement.rational(rng.randrange(1, 9))
        lin = ZERO
        const = ZERO
        for (a, b, c), coef in cur.q.items():
            term = coef * x ** a * z ** c
            if b == 0:
                const = const + term
            elif b == 1:
                lin = lin + term
            else:
                raise AssertionError("conic quadratic in y unsupported")
        if lin.is_zero():
            continue
        return (x, -const / lin, z)
    return None


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
    from math import comb
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


def _affine_chart(point):
    """x, y, z as (i, j) dicts in the local coordinates (u, v) at `point`."""
    x0, y0, z0 = point
    if not z0.is_zero():
        iz = ONE / z0
        return {"x": {(0, 0): x0 * iz, (1, 0): ONE},
                "y": {(0, 0): y0 * iz, (0, 1): ONE},
                "z": {(0, 0): ONE}}
    if not y0.is_zero():
        iy = ONE / y0
        return {"x": {(0, 0): x0 * iy, (1, 0): ONE},
                "y": {(0, 0): ONE},
                "z": {(0, 0): z0 * iy, (0, 1): ONE}}
    ix = ONE / x0
    return {"x": {(0, 0): ONE},
            "y": {(0, 0): y0 * ix, (1, 0): ONE},
            "z": {(0, 0): z0 * ix, (0, 1): ONE}}


def _localize(d, base):
    """The ternary form d substituted into the chart `base`, as an (i, j) dict."""
    def pmul(A, B):
        C = {}
        for ka, va in A.items():
            for kb, vb in B.items():
                k = (ka[0] + kb[0], ka[1] + kb[1])
                C[k] = C.get(k, ZERO) + va * vb
        return C

    def ppow(A, e):
        R = {(0, 0): ONE}
        for _ in range(e):
            R = pmul(R, A)
        return R

    out = {}
    for (a, b, cdeg), coef in d.items():
        term = {(0, 0): coef}
        term = pmul(term, ppow(base["x"], a))
        term = pmul(term, ppow(base["y"], b))
        term = pmul(term, ppow(base["z"], cdeg))
        for k, v in term.items():
            out[k] = out.get(k, ZERO) + v
    return {k: v for k, v in out.items() if not v.is_zero()}


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
        if not cur.eval_q(point).is_zero():
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


CURVE_ORDER = (["L%d" % i for i in range(1, 8)]
               + ["Lt%d" % i for i in range(1, 8)]
               + ["C1", "C2", "C3", "Ct1", "Ct2", "Ct3"])
E_ORDER = ["E11", "E2m1", "E2p1", "E3m1", "E30", "E3p1",
           "E4m2", "E4m1", "E4p1", "E4p2", "E5m2", "E5m1", "E5p1", "E5p2"]
LABELS34 = CURVE_ORDER + E_ORDER

# exceptional chains: consecutive intersections within each point
E_CHAINS = [["E2m1", "E2p1"], ["E3m1", "E30", "E3p1"],
            ["E4m2", "E4m1", "E4p1", "E4p2"],
            ["E5m2", "E5m1", "E5p1", "E5p2"]]


def _gid_to_label(gid):
    name, sign = gid[:-1], gid[-1]
    if sign == "+":
        return name
    return ("Lt" + name[1:]) if name.startswith("L") else ("Ct" + name[1:])


def _landing_label(pname, atype, landing):
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
    if pname == "P4":
        # chain is [(1,+1), (2,+1), (2,-1), (1,-1)] by the sheet-matched
        # gluing; L6+ at (1,+1) anchors E4m2, so positions 1..4 read
        # E4m2, E4m1, E4p1, E4p2
        level, sign = landing[1], landing[2]
        pos = {(1, 1): "E4m2", (2, 1): "E4m1",
               (2, -1): "E4p1", (1, -1): "E4p2"}[(level, sign)]
        return pos
    if pname == "P5":
        level, sign = landing[1], landing[2]
        pos = {(1, 1): "E5m2", (2, 1): "E5m1",
               (2, -1): "E5p1", (1, -1): "E5p2"}[(level, sign)]
        return pos
    raise KeyError(pname)


def _line_param(cur):
    """Two independent points spanning the line (projective param s*A + t*B)."""
    c = (cur.q.get((1, 0, 0), ZERO), cur.q.get((0, 1, 0), ZERO),
         cur.q.get((0, 0, 1), ZERO))
    basis = []
    for e in ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)):
        p = (c[1] * e[2] - c[2] * e[1],
             c[2] * e[0] - c[0] * e[2],
             c[0] * e[1] - c[1] * e[0])
        if not all(x.is_zero() for x in p):
            if not basis or not _same_proj(basis[0], p):
                basis.append(p)
        if len(basis) == 2:
            return basis[0], basis[1]
    raise AssertionError("degenerate line")


def _binary_from_poly3(d, A, B):
    """d(s*A + B) as a Poly in s: the binary form d(s*A + t*B) at t = 1."""
    X, Y, Z = (Poly(TOWER, [b, a]) for a, b in zip(A, B))
    out = Poly(TOWER, [])
    for (i, j, k), coef in d.items():
        out = out + X ** i * Y ** j * Z ** k * coef
    return out


def off_singular_line_line(curves_by_name, sing_pts):
    """Contributions to the curve-curve block from line-line intersections."""
    out = {}
    names = ["L%d" % i for i in range(1, 8)]
    f = sextic_poly()
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            cA = curves_by_name[names[a]]
            cB = curves_by_name[names[b]]
            P = _line_intersection(cA, cB)
            if any(_same_proj(P, sp) for sp in sing_pts):
                continue
            fval = _eval_poly3(f, P)
            if fval.is_zero():
                raise NotImplementedError("line-line meeting on the branch")
            g1 = cA.eval_h(P)
            g2 = cB.eval_h(P)
            if (g1 - g2).is_zero():
                key_pairs = [(names[a], names[b]), ("Lt" + names[a][1:], "Lt" + names[b][1:])]
            elif (g1 + g2).is_zero():
                key_pairs = [(names[a], "Lt" + names[b][1:]), ("Lt" + names[a][1:], names[b])]
            else:
                raise AssertionError("sheets fail to match at an off-branch point")
            for k in key_pairs:
                out[k] = out.get(k, 0) + 1
    return out


def _line_intersection(cA, cB):
    a = [cA.q.get((1, 0, 0), ZERO), cA.q.get((0, 1, 0), ZERO), cA.q.get((0, 0, 1), ZERO)]
    b = [cB.q.get((1, 0, 0), ZERO), cB.q.get((0, 1, 0), ZERO), cB.q.get((0, 0, 1), ZERO)]
    # cross product
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _same_proj(P, Q):
    return (P[0] * Q[1] - P[1] * Q[0]).is_zero() and \
        (P[0] * Q[2] - P[2] * Q[0]).is_zero() and \
        (P[1] * Q[2] - P[2] * Q[1]).is_zero()


def _quadratic_roots_k4(c2, c1, c0):
    """Roots of c2 s^2 + c1 s + c0, c2 != 0, over K4: ('pair', r1, r2) |
    ('double', r) | ('conjugate', None)."""
    disc = c1 * c1 - 4 * c2 * c0
    if disc.is_zero():
        return ("double", -c1 / (2 * c2))
    r = sqrt_in_k4(disc)
    if r is None:
        return ("conjugate", None)
    inv = ONE / (2 * c2)
    return ("pair", (-c1 + r) * inv, (-c1 - r) * inv)


def off_singular_line_conic(curves_by_name, sing_pts):
    """Line-conic contributions away from the singular points."""
    out = {}
    lines = ["L%d" % i for i in range(1, 8)]
    conics = ["C1", "C2", "C3"]
    f = sextic_poly()
    for ln in lines:
        for cn in conics:
            cL = curves_by_name[ln]
            cC = curves_by_name[cn]
            A, B = _line_param(cL)
            qform = _binary_from_poly3(cC.q, A, B)   # degree-2 binary form
            g3 = _binary_from_poly3(cL.h, A, B)
            h3 = _binary_from_poly3(cC.h, A, B)
            # roots of the binary quadratic q(s, t): work in the chart t = 1,
            # with the s = infinity root handled via the leading coefficient
            c2, c1, c0 = qform.coeff(2), qform.coeff(1), qform.coeff(0)
            pts = []
            if c2.is_zero() and c1.is_zero():
                if c0.is_zero():
                    raise AssertionError("line inside conic?")
                # double root at the parameter point (1 : 0) = A
                pts.append(("rational", None, 2))
            elif c2.is_zero():
                pts.append(("rational", None, 1))    # s = infinity point = A
                pts.append(("rational", -c0 / c1, 1))
            else:
                kind = _quadratic_roots_k4(c2, c1, c0)
                if kind[0] == "pair":
                    pts.append(("rational", kind[1], 1))
                    pts.append(("rational", kind[2], 1))
                elif kind[0] == "double":
                    pts.append(("rational", kind[1], 2))
                else:
                    pts.append(("conjugate", None, 1))
            for tag, data, mult in pts:
                if tag == "rational":
                    P = A if data is None else tuple(
                        a * data + b for a, b in zip(A, B))
                    if any(_same_proj(P, sp) for sp in sing_pts):
                        continue
                    fval = _eval_poly3(f, P)
                    gv = cL.eval_h(P)
                    hv = cC.eval_h(P)
                    if fval.is_zero():
                        raise NotImplementedError(
                            "line-conic tangency on the branch sextic")
                    if (gv - hv).is_zero():
                        pairs = [(ln, cn), ("Lt" + ln[1:], "Ct" + cn[1:])]
                    elif (gv + hv).is_zero():
                        pairs = [(ln, "Ct" + cn[1:]), ("Lt" + ln[1:], cn)]
                    else:
                        raise AssertionError("sheet mismatch at line-conic point")
                    for k in pairs:
                        out[k] = out.get(k, 0) + mult
                else:
                    # conjugate pair: (g - h) vanishes at both or neither,
                    # decided by polynomial divisibility
                    for sign, pairs in ((1, [(ln, cn), ("Lt" + ln[1:], "Ct" + cn[1:])]),
                                        (-1, [(ln, "Ct" + cn[1:]), ("Lt" + ln[1:], cn)])):
                        if ((g3 - sign * h3) % qform).is_zero():
                            for k in pairs:
                                out[k] = out.get(k, 0) + 2
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
        tname = ("Lt" + name[1:]) if name.startswith("L") else ("Ct" + name[1:])
        out[(name, tname)] = off
    return out


def derive_matrices(verbose=False):
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
        atype = data["type"]
        for gid, landing in data["landings"].items():
            add(_gid_to_label(gid), _landing_label(pname, atype, landing), 1)
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
    from .fixtures import load_gram
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
    lam_labels = (["H"] + ["L%d" % i for i in range(1, 8)] + ["C1", "C2"]
                  + E_ORDER)
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
    lines = ["L%d" % i for i in range(1, 8)]
    conics = ["C1", "C2", "C3"]

    def sing_idown(a, b):
        tot = 0
        for pname, data in engine.items():
            key = (a, b) if a <= b else (b, a)
            if key in data["idown"]:
                tot += data["idown"][key]
        return tot

    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            sing = sing_idown(a, b)
            off = 0 if sing else 1
            if sing + off != 1:
                raise AssertionError(f"Bezout fails for {a}, {b}")
    for ln in lines:
        for cn in conics:
            sing = sing_idown(ln, cn)
            # off-singular contributions were recorded on the matrix between
            # all four lift pairs; their total equals twice the off part
            off_total = 0
            for x, y in ((ln, cn), (ln, "Ct" + cn[1:]),
                         ("Lt" + ln[1:], cn), ("Lt" + ln[1:], "Ct" + cn[1:])):
                off_total += M[idx[x]][idx[y]]
            # subtract the upstairs meets that came from singular points
            for pname, data in engine.items():
                for (g1, g2), m in data["meets"].items():
                    la, lb = _gid_to_label(g1), _gid_to_label(g2)
                    if {la, lb} <= {ln, "Lt" + ln[1:], cn, "Ct" + cn[1:]} and \
                       ({la, lb} & {ln, "Lt" + ln[1:]}) and \
                       ({la, lb} & {cn, "Ct" + cn[1:]}):
                        off_total -= m
            if sing + off_total // 2 != 2:
                raise AssertionError(f"Bezout fails for {ln}, {cn}: "
                                     f"sing {sing}, off {off_total}")
    for i in range(len(conics)):
        for j in range(i + 1, len(conics)):
            a, b = conics[i], conics[j]
            if sing_idown(a, b) != 4:
                raise AssertionError(f"Bezout fails for {a}, {b}")
