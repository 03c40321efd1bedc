"""Irreducible factors of square-free polynomials over Q and Q(sqrt5).

Over Q, Zassenhaus (Cohen, GTM 138, section 3.5): the primitive integer
polynomial is split modulo a small prime p where it stays square-free, by
distinct and equal degree on ffield's F_p int lists; the factors are
Hensel-lifted to p^K beyond twice the Mignotte bound, and products of
subsets of them are tried as true factors by exact division over Z.

Over Q(sqrt5), Trager's norm method (Trager 1976; Cohen 3.6.2): with
g(t) = f(t - k sqrt5) = A + sqrt5 B for A, B in Q[t], the norm A^2 - 5 B^2
is square-free for some small k; then each of its irreducible factors N_i
over Q gives the irreducible factor gcd(g, N_i) of g over Q(sqrt5).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import gcd, isqrt, lcm

from .ffield import (_distinct_degree, _poly_add, _poly_divmod,
                     _poly_equal_degree_split, _poly_monic,
                     _poly_squarefree_part, is_prime)
from .numfield import SQRT5, TOWER, TowerElement
from .poly import QQ, Poly

_PRIMES_TRIED = 3   # good primes compared; the one with fewest factors wins


def _primitive(cs):
    """The primitive integer multiple of a rational list, leading term > 0."""
    den = lcm(*(Fraction(c).denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def _mul(m, a, *more):
    """The product of int lists mod m."""
    a = [c % m for c in a]
    for b in more:
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        a = [c % m for c in out]
    return a


def _hensel_lift(f, fac, p, P):
    """Monic u_i mod P with f = lc(f) prod u_i, from f = lc(f) prod fac mod p,
    halving the list at each level.  A pair f = g h is lifted from m to m^2
    with its Bezout pair s g + t h = 1 (von zur Gathen and Gerhard, Modern
    Computer Algebra, Algorithm 15.10); h is monic, so _poly_divmod divides
    by it mod m^2 without an inverse."""
    if len(fac) == 1:
        return [_mul(P, f, [pow(f[-1], -1, P)])]
    k = len(fac) // 2
    g, h = _mul(p, [f[-1]], *fac[:k]), _mul(p, [1], *fac[k:])
    r0, r1, s, s1, t, t1 = g, h, [1], [], [], [1]     # Euclid over F_p
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s, s1 = s1, _poly_add(p, s, _mul(p, q, s1), -1)
        t, t1 = t1, _poly_add(p, t, _mul(p, q, t1), -1)
    s, t = _mul(p, s, [pow(r0[0], -1, p)]), _mul(p, t, [pow(r0[0], -1, p)])
    m = p
    while m < P:
        m *= m
        e = _poly_add(m, f, _mul(m, g, h), -1)
        q, r = _poly_divmod(_mul(m, s, e), h, m)
        g = _poly_add(m, g, _poly_add(m, _mul(m, t, e), _mul(m, q, g)))
        h = _poly_add(m, h, r)
        b = _poly_add(m, _poly_add(m, _mul(m, s, g), _mul(m, t, h)), [1], -1)
        c, d = _poly_divmod(_mul(m, s, b), h, m)
        s = _poly_add(m, s, d, -1)
        t = _poly_add(m, t, _poly_add(m, _mul(m, t, b), _mul(m, c, g)), -1)
    return (_hensel_lift(_mul(P, g), fac[:k], p, P)
            + _hensel_lift(_mul(P, h), fac[k:], p, P))


def _exact_quotient(f, g):
    """f / g over Z, or None when g does not divide f."""
    r, dg = list(f), len(g) - 1
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        q[i], rem = divmod(r[i + dg], g[-1])
        if rem:
            return None
        for j, gj in enumerate(g):
            r[i + j] -= q[i] * gj
    return q if not any(r[:dg]) else None


def _squarefree_mod(f, p):
    """f mod p made monic, or None when p divides lc(f) or f mod p has a
    repeated factor."""
    if f[-1] % p == 0:
        return None
    fp = _poly_monic([c % p for c in f], p)
    return fp if _poly_squarefree_part(fp, p) == fp else None


def factor_integer(f, scan=10_000):
    """Irreducible primitive factors over Z of a primitive integer list f
    with positive leading coefficient (Zassenhaus), or None when f is
    square-free modulo no odd prime below `scan`, as when it is not
    square-free at all."""
    if len(f) <= 2:
        return [f] if len(f) == 2 else []
    good = islice((p for p in range(3, scan) if is_prime(p)
                   and _squarefree_mod(f, p)), _PRIMES_TRIED)
    split = [(p, _distinct_degree(_squarefree_mod(f, p), p)) for p in good]
    if not split:
        return None
    p, ddf = min(split, key=lambda s: sum((len(g) - 1) // d for g, d in s[1]))
    fac = [u for g, d in ddf for u in _poly_equal_degree_split(g, d, p)]
    if len(fac) == 1:
        return [f]
    # every factor of lc(f) f/lc(g) has coefficients below this (Mignotte)
    bound = abs(f[-1]) * 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    P = p
    while P <= 2 * bound:
        P *= p
    us, out, k = _hensel_lift(f, fac, p, P), [], 1
    while 2 * k <= len(us):
        for S in combinations(range(len(us)), k):
            G = _mul(P, [f[-1]], *(us[i] for i in S))
            G = _primitive([c - P if 2 * c > P else c for c in G])
            q = _exact_quotient(f, G)
            if q is not None:
                out.append(G)
                f, us = q, [u for i, u in enumerate(us) if i not in S]
                break
        else:
            k += 1
    return out + [f]


def _qsqrt5_factors(f: Poly):
    """Trager's norm method over Q(sqrt5) for a monic square-free f."""
    if any(k not in (0, 2) for c in f.coeffs for k in c.num):
        raise NotImplementedError("coefficient outside Q(sqrt5)")
    # g(t) = f(t - k sqrt5), k = 0, 1, -1, 2, ...: roots a of f and b of its
    # conjugate meet in the norm only at k = (b - a) / (2 sqrt5), so at most
    # deg(f)^2 shifts fail; the monic norm is square-free if it is mod p
    for i in range(2 * f.degree() ** 2 + 2):
        k = (i + 1) // 2 if i % 2 else -(i // 2)
        g = f.shift(SQRT5 * -k) if k else f
        A = Poly(QQ, [Fraction(c.num.get(0, 0), c.den) for c in g.coeffs])
        B = Poly(QQ, [Fraction(c.num.get(2, 0), c.den) for c in g.coeffs])
        factors = factor_integer(_primitive((A * A - B * B * 5).coeffs), 30)
        if factors is not None:
            break
    else:
        raise ValueError("polynomial is not square-free")
    out, rest = [], g
    for N in factors[:-1]:
        out.append(g.gcd(Poly(TOWER, [TowerElement.rational(c) for c in N])))
        rest = rest.exact_div(out[-1])
    return [h.shift(SQRT5 * k) if k else h for h in out + [rest]]


def irreducible_factors(f: Poly):
    """The monic irreducible factors of a square-free f over QQ (Fraction
    coefficients) or over Q(sqrt5) inside TOWER."""
    if f.degree() <= 0:
        return []
    if f.field is not QQ:
        return _qsqrt5_factors(f.monic())
    factors = factor_integer(_primitive(f.coeffs))
    if factors is None:
        raise ValueError("polynomial is not square-free")
    return [Poly(QQ, [Fraction(c, G[-1]) for c in G]) for G in factors]
