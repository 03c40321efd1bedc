"""tate's section_component_data and local_contribution as they were before
each surface kept one critical point per place, lifted to the precision
the component is read at.  Kept unchanged as the differential oracle of
that change: here the critical point is lifted afresh on every call, to
pi^(v(Delta) + 4), and nothing is cached.  mw_height is the package's sum
with this local_contribution in it.
"""

from __future__ import annotations

from fractions import Fraction

from dyk3.poly import RationalFunc
from dyk3.tate import (LocalRing, _x_at_infinity, critical_point,
                       section_zero_intersection)


def section_component_data(P, place, fib):
    """(kind, m) where kind in {'identity','cycle','nonidentity'};
    for I_n, m = min(k, n-k) identifies the unordered component pair."""
    E, pi = P.surface._chart(place)
    x = _x_at_infinity(P) if place.infinity else P.x
    local = E._local_minimal(pi)
    a2, a4 = local.model.a2, local.model.a4
    if local.e:
        x = x / RationalFunc(pi ** (2 * local.e))
    vx = x.valuation(pi)
    if vx < 0 or not fib.vdelta:
        return ("identity", 0)
    N = fib.vdelta + 4
    R = LocalRing(pi, N)
    if fib.type.family == "I":
        n = fib.n
        x0 = local.model._node_residue(pi)
        if x0 is None:
            raise RuntimeError("no node found at a multiplicative place")
        xs = critical_point(R, a2, a4, x0)
        xloc = R.from_rational(x)
        m = R.valuation(xloc - xs)
        if m == 0:
            return ("identity", 0)
        if m >= (n + 1) // 2:
            if n % 2:
                raise AssertionError("component valuation exceeds (n-1)/2 at odd I_n")
            m = n // 2
        return ("cycle", m)
    # additive: through the cusp or not
    F = E.fieldad
    s = a2 * F.inv(F.from_int(3))
    xc = -s  # exact triple-root shift
    xloc = R.from_rational(x)
    v = R.valuation(xloc - R.red(xc))
    return ("nonidentity", 1) if v >= 1 else ("identity", 0)


def local_contribution(P, place, fib) -> Fraction:
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


def mw_height(E, P, bad) -> Fraction:
    """Shioda height <P, P> = 2 chi + 2 (P.O) - sum of local corrections."""
    if P.is_zero:
        return Fraction(0)
    h = Fraction(2 * E.chi) + 2 * section_zero_intersection(P)
    for place, fib in bad:
        if abs(fib.type.det) == 1:     # the identity is the only simple component
            continue
        h -= place.degree * local_contribution(P, place, fib)
    return h
