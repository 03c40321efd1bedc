"""The per-type Kodaira facts as the package kept them before they became
one table in dyk3.tate, kept unchanged as the differential oracle of that
table: tate's classify_tame, COMPONENTS and CONTR_NONID, the components
property of LocalFibreData, trivial_lattice_disc, mw_height's list of the
types it skips, min_positive_height_on_grid, _CANONICAL_VALS,
ramified_double_image, ramified_double_preimages and _vdelta_of, and
surface's bad_fiber_points.

Each function reads only the symbol, n, the place's degree and the data that
local_type attaches to a fibre (split, legs_rational, and for IV and IV* the
surface's iv_split), so the tests can feed them any symbol.
"""

from __future__ import annotations

from fractions import Fraction

CONTR_NONID = {
    "II": Fraction(0), "III": Fraction(1, 2), "IV": Fraction(2, 3),
    "I0*": Fraction(1), "IV*": Fraction(4, 3), "III*": Fraction(3, 2),
    "II*": Fraction(0),
}

COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5,
              "IV*": 7, "III*": 8, "II*": 9}


def components(kodaira, n):
    """LocalFibreData.components, with self.kodaira and self.n as arguments."""
    if kodaira.startswith("I") and kodaira[1:].isdigit():
        return max(1, n)
    if kodaira.endswith("*") and kodaira[1:-1].isdigit():
        return 5 + n
    return COMPONENTS[kodaira]


def classify_tame(vc4, vc6, vdelta):
    """Kodaira symbol from minimal valuations, residue characteristic 0 or >= 5."""
    if vdelta == 0:
        return "I0", 0
    if vc4 == 0:
        return f"I{vdelta}", vdelta
    if vdelta == 2:
        return "II", 0
    if vdelta == 3:
        return "III", 0
    if vdelta == 4:
        return "IV", 0
    if vdelta == 6:
        return "I0*", 0
    if vc4 == 2 and vc6 == 3 and vdelta >= 7:
        return f"I{vdelta - 6}*", vdelta - 6
    if vdelta == 8:
        return "IV*", 0
    if vdelta == 9:
        return "III*", 0
    if vdelta == 10:
        return "II*", 0
    raise ValueError(f"valuations (vc4={vc4}, vc6={vc6}, vdelta={vdelta}) "
                     "match no tame Kodaira type")


# the types that mw_height passes over
MW_HEIGHT_SKIPS = ("I0", "I1", "II", "II*")


def trivial_lattice_disc(bad) -> int:
    """Determinant of U + sum of the fibre root lattices (negative definite)."""
    disc = -1
    for place, fib in bad:
        sym, n = fib.kodaira, fib.n
        if sym.startswith("I") and not sym.endswith("*"):
            if n >= 2:
                per = (-1) ** (n - 1) * n  # A_{n-1}(-1)
            else:
                continue
        elif sym == "I0*":
            per = 4            # D4(-1)
        elif sym.endswith("*") and sym[1:-1].isdigit():
            per = (-1) ** (4 + n) * 4   # D_{4+n}(-1)
        elif sym == "II*":
            per = 1            # E8(-1)
        elif sym == "III*":
            per = -2           # E7(-1)
        elif sym == "IV*":
            per = 3            # E6(-1)
        elif sym in ("II", "I0", "I1"):
            continue
        elif sym == "III":
            per = -2
        elif sym == "IV":
            per = 3
        else:
            raise NotImplementedError(sym)
        disc *= per ** place.degree
    return disc


def min_positive_height_on_grid(bad, chi: int = 2) -> Fraction:
    """Minimum positive value of 2 chi - sum of correction terms over the
    grid of allowed per-fibre correction values (P.O = 0)."""
    menus = []
    for place, fib in bad:
        sym, n = fib.kodaira, fib.n
        if sym.startswith("I") and sym[1:].isdigit() and n >= 2:
            menu = sorted({Fraction(k * (n - k), n) for k in range(n)})
        elif sym in CONTR_NONID and sym not in ("II", "II*"):
            menu = [Fraction(0), CONTR_NONID[sym]]
        else:
            continue
        for _ in range(place.degree):
            menus.append(menu)
    best = None
    totals = {Fraction(0)}
    for menu in menus:
        totals = {t + m for t in totals for m in menu}
    for t in totals:
        h = Fraction(2 * chi) - t
        if h > 0 and (best is None or h < best):
            best = h
    return best


_CANONICAL_VALS = {
    "II": (1, 1, 2), "III": (1, 2, 3), "IV": (2, 2, 4), "I0*": (2, 3, 6),
    "IV*": (3, 4, 8), "III*": (3, 5, 9), "II*": (4, 5, 10),
}


def ramified_double_image(sym: str, n: int = 0) -> str:
    """Kodaira type of the pullback of a fibre under a double cover
    ramified at the place (valuations double, then minimalise)."""
    if sym == "I0":
        return "I0"
    if sym.startswith("I") and not sym.endswith("*") and sym[1:].isdigit():
        return f"I{2 * int(sym[1:])}"
    if sym.endswith("*") and sym[1:-1].isdigit():
        k = int(sym[1:-1])
        return "I0" if k == 0 else f"I{2 * k}"
    a, b, d = _CANONICAL_VALS[sym]
    a, b, d = 2 * a, 2 * b, 2 * d
    while a >= 4 and b >= 6 and d >= 12:
        a, b, d = a - 4, b - 6, d - 12
    return classify_tame(a if a else 0, b, d)[0]


def ramified_double_preimages(sym_s: str):
    """All downstairs types whose ramified double-cover pullback is sym_s."""
    cands = []
    for sym in list(_CANONICAL_VALS) + ["I0*", "I0"]:
        if ramified_double_image(sym) == sym_s and sym not in cands:
            cands.append(sym)
    # multiplicative upstairs of even order come from I_{n/2} or I_{n/2}*
    if sym_s.startswith("I") and not sym_s.endswith("*") and sym_s[1:].isdigit():
        k = int(sym_s[1:])
        if k % 2 == 0:
            cands.extend([f"I{k // 2}", f"I{k // 2}*"] if k else ["I0*", "I0"])
    return cands


def _vdelta_of(sym: str) -> int:
    if sym == "I0":
        return 0
    if sym.startswith("I") and not sym.endswith("*") and sym[1:].isdigit():
        return int(sym[1:])
    if sym.endswith("*") and sym[1:-1].isdigit():
        return 6 + int(sym[1:-1])
    return _CANONICAL_VALS[sym][2]


def bad_fiber_points(surface: EllipticSurface, fib: LocalFibreData) -> int:
    """F_q-points of the minimal regular fibre that local_type found.

    The count is read off the Kodaira symbol and the data that decide which
    components are rational: the splitness of I_n, IV and IV*, and the
    rational legs of I0*.  The k rational components of an additive fibre
    are lines forming a tree, k (q + 1) - (k - 1) = 1 + k q points.
    """
    q = surface.fieldad.q
    sym, n = fib.kodaira, fib.n
    if sym == "I0":
        raise ValueError("fibre is smooth after minimalisation")
    if sym[1:].isdigit():
        if fib.split is None:
            raise AssertionError("multiplicative fibre without a unique node")
        # a split n-gon has n (q - 1) smooth points and n nodes.  Otherwise
        # Frobenius reflects it: the identity component gives q + 1 points
        # and what lies opposite a node (odd n) or a component (even n)
        return n * q if fib.split else 2 + q * (2 - n % 2)
    if sym == "I0*":
        rational = 1 + fib.legs_rational
    elif sym in ("IV", "IV*"):
        # every component, or only the identity arm: IV's identity
        # component, IV*'s identity component, its neighbour and the centre
        split = surface.iv_split(fib.place)
        rational = COMPONENTS[sym] if split else {"IV": 1, "IV*": 3}[sym]
    elif sym in COMPONENTS:
        # II, III, III*, II*: no symmetry of the dual graph fixes the
        # identity and moves another component, so every one is rational
        rational = COMPONENTS[sym]
    else:
        raise NotImplementedError(f"fibre counting for type {sym} not implemented")
    return 1 + q * rational
