"""Property tests of the exact arithmetic shortcuts.

Poly.divmod inverts the divisor's leading coefficient once; it is checked
against the division identity.  Tower elements hold integer numerators over
one common denominator: every ring result is checked to be in lowest terms
and equal to the element the constructor builds from its coordinates, and
each operation is checked against the 24-Fraction oracle of
tests/tower_oracle.py on K4, Q(sqrt5) and sparse full-tower elements.  The
square roots in quadratic fields and K4 are checked against the values they
invert.  The Weierstrass formulas of elliptic (Delta, c4, c6, the depressed
cubic and the node of a cubic with a double root) are checked across every
ring that runs them: integer models over Q reduce mod p to their values
over F_q, the vector kernel agrees elementwise, the polynomial rings agree
with their coefficient rings at every point, and c4^3 - c6^2 = 1728 Delta
holds throughout.  The vector F_q kernel of the surface counts is checked
elementwise against ExtField, and ExtField's closed forms at n = 2 against
the generic polynomial product, the Euler criterion and the powers they
invert.  The sieve's F_p root finder is checked against an exhaustive search
of F_{p^2} on products of irreducibles of every shape up to degree 4, and
the distinct-degree split against the shape of the square-free ones.  The
truncated series of the intersection-matrix derivation are
checked against untruncated Poly composition, and the Smith normal form
against unimodular changes of basis.
"""

from fractions import Fraction
from functools import cache
from math import gcd

import numpy as np

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from dyk3 import numfield as nf
from dyk3 import picard_fixture as pf
from dyk3.elliptic import (cubic_node, depressed_cubic, weierstrass_c4_c6,
                           weierstrass_discriminant)
from dyk3.ffield import (FqPoly, _distinct_degree, _is_irreducible,
                         _poly_monic, _poly_mulmod, build_extension,
                         find_roots)
from dyk3.lattice import _kernel_basis, _matmul, matrix_rank, smith
from dyk3.numfield import TOWER, TowerElement, rational_sqrt, sqrt_in_quadratic
from dyk3.poly import OpRing, Poly, QQ
from dyk3.siverify import sqrt_in_k4
from dyk3.sscan import roots_in_fp2
from dyk3.surface import _VecFq
from dyk3.tate import EllipticSurface, LocalRing, residue_is_square
from tower_oracle import TowerElement as OracleElement

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
nonzero_rationals = rationals.filter(bool)
QQ_RING = OpRing(Fraction(1))


@st.composite
def tower_elements(draw, k4_only=False):
    """Sparse elements: K4 coordinates, plus a few others unless k4_only."""
    co = [Fraction(0)] * nf.DIM
    for i in range(4):
        co[i] = draw(rationals)
    if not k4_only:
        for i in draw(st.lists(st.integers(4, nf.DIM - 1), max_size=3)):
            co[i] = draw(rationals)
    return TowerElement(co)


def _polys(coeff, max_degree=6):
    return st.lists(coeff, max_size=max_degree + 1)


def _divisors(coeff, nonzero_coeff, max_degree=4):
    # an explicitly nonzero leading coefficient, rarely 1
    return st.tuples(st.lists(coeff, max_size=max_degree), nonzero_coeff).map(
        lambda lc: lc[0] + [lc[1]])


def _check_division(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree() < b.degree()
    if a.degree() < b.degree():
        assert q.is_zero()


@given(_polys(rationals), _divisors(rationals, nonzero_rationals))
def test_divmod_identity_over_qq(a, b):
    _check_division(Poly(QQ, a), Poly(QQ, b))


tower_coeffs = tower_elements(k4_only=True)
nonzero_tower_coeffs = tower_coeffs.filter(bool)


@settings(max_examples=60, deadline=None)
@given(_polys(tower_coeffs, 5), _divisors(tower_coeffs, nonzero_tower_coeffs, 3))
def test_divmod_identity_over_tower(a, b):
    _check_division(Poly(TOWER, a), Poly(TOWER, b))


@given(_polys(rationals), _divisors(rationals, nonzero_rationals))
def test_exact_div_recovers_the_quotient(q, b):
    q, b = Poly(QQ, q), Poly(QQ, b)
    assert (q * b).exact_div(b) == q


def _normal(x):
    """x is in lowest terms with no stored zero, its coordinates are
    Fractions, and it equals the element built from them."""
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int and v for v in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1
    assert all(type(c) is Fraction for c in x.co)
    assert len(x.co) == nf.DIM
    assert TowerElement(list(x.co)) == x
    return x


@settings(deadline=None)
@given(tower_elements(), tower_elements(),
       st.one_of(rationals, st.integers(-20, 20)))
def test_tower_ring_results_are_normal(x, y, q):
    _normal(x + y)
    _normal(x - y)
    _normal(-x)
    _normal(x * y)
    assert _normal(x + y - y) == x
    # the rational fast paths agree with the general ones
    Q = TowerElement.rational(q)
    assert _normal(x + q) == x + Q
    assert _normal(q - x) == Q - x
    assert _normal(x * q) == x * Q
    if q:
        assert _normal(x / q) == x * Q.inv()


@settings(max_examples=40, deadline=None)
@given(tower_elements())
def test_tower_inverse_is_normal(x):
    if not x:
        return
    inv = _normal(x.inv())
    assert x * inv == 1


@settings(deadline=None)
@given(tower_elements(k4_only=True))
def test_k4_inverse_is_normal(x):
    if not x:
        return
    inv = _normal(x.inv())
    assert x * inv == 1


def _padded(coords):
    return [coords.get(i, Fraction(0)) for i in range(nf.DIM)]


# coordinate lists of K4 elements, of Q(sqrt5) elements, and of sparse
# elements of the whole tower
oracle_coords = st.one_of(
    st.dictionaries(st.integers(0, 3), rationals, max_size=4).map(_padded),
    st.dictionaries(st.sampled_from([0, 2]), rationals).map(_padded),
    st.dictionaries(st.integers(0, nf.DIM - 1), rationals, max_size=4).map(_padded))


def _agrees(x, X):
    """x is normal and holds the oracle element X."""
    assert _normal(x).co == X.co
    assert repr(x) == repr(X)
    assert (x.in_k4(), x.is_rational(), bool(x)) == (X.in_k4(), X.is_rational(), bool(X))


@settings(max_examples=80, deadline=None)
@given(oracle_coords, oracle_coords, st.one_of(rationals, st.integers(-20, 20)),
       st.integers(-2, 4))
def test_tower_matches_the_oracle(a, b, q, e):
    x, y, X, Y = TowerElement(a), TowerElement(b), OracleElement(a), OracleElement(b)
    _agrees(x, X)
    _agrees(x + y, X + Y)
    _agrees(x - y, X - Y)
    _agrees(-x, -X)
    _agrees(x * y, X * Y)
    _agrees(x + q, X + q)
    _agrees(q - x, q - X)
    _agrees(x * q, X * q)
    if q:
        _agrees(x / q, X / q)
    if y:
        _agrees(y.inv(), Y.inv())
        _agrees(x / y, X / Y)
    if x or e >= 0:
        _agrees(x ** e, X ** e)
    assert (x == y) == (X == Y) and (x == q) == (X == q)
    # the oracle hashes a rational element apart from its value; here equal
    # elements hash alike, and a rational one as its Fraction
    if X == Y:
        assert hash(x) == hash(y)
    if X.is_rational():
        assert hash(x) == hash(X.co[0])


@settings(max_examples=40, deadline=None)
@given(st.tuples(rationals, rationals), st.tuples(rationals, rationals),
       st.booleans(), st.booleans())
def test_node_residue_is_the_double_root(r, s, quadratic, triple):
    # (x - r)^2 (x - s) over kappa = Q[t]/(t) or Q[t]/(t^2 - 2)
    t = Poly.x(QQ)
    pi = t * t - 2 if quadratic else t
    r = Poly(QQ, r) % pi
    s = r if triple else Poly(QQ, s) % pi
    a2, a4, a6 = (c % pi for c in (-(2 * r + s), r * r + 2 * r * s, -(r * r * s)))
    want = None if r == s else r
    assert cubic_node(LocalRing(pi, 1), a2, a4, a6) == want
    # pi^4 keeps the discriminant nonzero without changing the residues
    assert EllipticSurface(QQ, a2, a4, a6 + pi ** 4)._node_residue(pi) == want
    if not quadratic:
        # kappa = Q: the same node over the rationals
        node = cubic_node(QQ_RING, a2.coeff(0), a4.coeff(0), a6.coeff(0))
        assert node == (None if want is None else want.coeff(0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (31, 1), (7, 2)]), st.data())
def test_cubic_node_over_fq(pn, data):
    F = build_extension(*pn)
    elt = st.integers(0, F.q - 1).map(F.decode)
    r = data.draw(elt)
    s = r if data.draw(st.booleans()) else data.draw(elt)
    A2 = F.neg(F.add(F.smul(2, r), s))
    A4 = F.add(F.mul(r, r), F.smul(2, F.mul(r, s)))
    A6 = F.neg(F.mul(F.mul(r, r), s))
    assert cubic_node(F, A2, A4, A6) == (None if r == s else r)
    # an integer double root: the node over Q reduces to the node over F_q
    ri, si = data.draw(st.integers(-50, 50)), data.draw(st.integers(-50, 50))
    a = (-(2 * ri + si), ri * ri + 2 * ri * si, -ri * ri * si)
    node = cubic_node(QQ_RING, *map(Fraction, a))
    assert node == (None if ri == si else ri)
    assert cubic_node(F, *map(F.from_int, a)) == (
        None if (ri - si) % F.p == 0 else F.from_int(ri))


positive_nonsquares = st.builds(Fraction, st.integers(1, 200),
                                st.integers(2, 12)).filter(
    lambda d: d.denominator > 1 and rational_sqrt(d) is None)


@given(rationals, rationals, positive_nonsquares)
def test_sqrt_in_quadratic_with_rational_radicand(u, v, d):
    # (u + v sqrt d)^2 = (u^2 + d v^2) + 2uv sqrt d, d not an integer
    s, t = u * u + d * v * v, 2 * u * v
    a, b = sqrt_in_quadratic(s, t, d)
    assert a * a + d * b * b == s and 2 * a * b == t


@given(rationals, rationals, rationals, rationals)
def test_residue_is_square_at_quadratic_places(b, a, e0, e1):
    # kappa = Q[t]/(t^2 + bt + a) = Q(sqrt D) with D = b^2 - 4a rational
    D = b * b - 4 * a
    assume(D > 0 and rational_sqrt(D) is None)
    t = Poly.x(QQ)
    pi = t * t + b * t + a
    e = Poly(QQ, [e0, e1])
    assert residue_is_square(e * e % pi, pi)


@settings(deadline=None)
@given(tower_elements(k4_only=True))
def test_sqrt_in_k4_of_a_square(y):
    r = sqrt_in_k4(y * y)
    assert r is not None and r * r == y * y


@cache
def _kernel(p, n):
    F = build_extension(p, n)
    return F, _VecFq(F)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 7, 11]), st.integers(1, 4), st.data())
def test_vector_kernel_matches_extfield(p, n, data):
    F, K = _kernel(p, n)
    idx = st.lists(st.integers(0, F.q - 1), min_size=1, max_size=20)
    i, j = data.draw(idx), data.draw(idx)
    m = min(len(i), len(j))
    i, j = np.array(i[:m]), np.array(j[:m])
    # kernel index k is the element F.decode(k), and encode inverts it
    a = tuple(u[i] for u in K.elements)
    b = tuple(u[j] for u in K.elements)
    assert list(K.encode(a)) == list(i)
    prod, diff, chi = K.encode(K.mul(a, b)), K.encode(K.sub(a, b)), K.chi(a)
    for k in range(m):
        x, y = F.decode(int(i[k])), F.decode(int(j[k]))
        assert F.decode(int(prod[k])) == F.mul(x, y)
        assert F.decode(int(diff[k])) == F.sub(x, y)
        assert chi[k] == F.chi(x)


def _formulas(R, a):
    """Delta, c4, c6 and the depressed cubic's (P, Q) of the model a over R."""
    return (weierstrass_discriminant(R, *a), *weierstrass_c4_c6(R, *a),
            *depressed_cubic(R, *a))


def _vector(K, index_lists):
    """Kernel vectors holding the elements F.decode(k) for k in each list."""
    return [tuple(u[np.array(ks)] for u in K.elements) for ks in index_lists]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.integers(1, 4),
       st.lists(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3),
                min_size=1, max_size=8), st.data())
def test_weierstrass_formulas_agree_across_rings(p, n, models, data):
    F, K = _kernel(p, n)
    # integer models: over Q, then reduced mod p, equal their values over F_q
    for a in models:
        # x^3 + a2 x^2 + a4 x + a6 = X^3 + P X + Q at X = x + a2/3
        P, Q = depressed_cubic(QQ_RING, *a)
        for x in (Fraction(0), Fraction(1), Fraction(-7, 2)):
            X = x + Fraction(a[0], 3)
            assert ((x + a[0]) * x + a[1]) * x + a[2] == (X * X + P) * X + Q
        want = [F.from_int(x.numerator * pow(x.denominator, -1, p))
                for x in map(Fraction, _formulas(QQ_RING, a))]
        assert list(_formulas(F, [F.from_int(x) for x in a])) == want
    # the vector kernel's invariants, elementwise, on F_q models
    m = data.draw(st.integers(1, 8))
    idx = data.draw(st.lists(st.lists(st.integers(0, F.q - 1), min_size=m,
                                      max_size=m), min_size=3, max_size=3))
    vec = _vector(K, idx)
    got = [K.encode(x) for x in (weierstrass_discriminant(K, *vec),
                                 *weierstrass_c4_c6(K, *vec))]
    for k in range(m):
        a = [F.decode(ks[k]) for ks in idx]
        assert [F.decode(int(e[k])) for e in got] == list(_formulas(F, a)[:3])


def _gap_1728(R, a):
    """c4^3 - c6^2 - 1728 Delta of the model a over R."""
    c4, c6 = weierstrass_c4_c6(R, *a)
    return R.sub(R.sub(R.mul(R.mul(c4, c4), c4), R.mul(c6, c6)),
                 R.smul(1728, weierstrass_discriminant(R, *a)))


_FQ = [(5, 1), (7, 2), (5, 3), (7, 4)]


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[rationals] * 3), st.tuples(*[tower_coeffs] * 3),
       st.tuples(*[_polys(rationals, 3)] * 3), st.sampled_from(_FQ), st.data())
def test_c4_c6_delta_identity_over_every_ring(qs, ts, ps, pn, data):
    F, K = _kernel(*pn)
    elts = st.lists(st.integers(0, F.q - 1), min_size=3, max_size=3)
    assert _gap_1728(QQ_RING, qs) == 0
    assert _gap_1728(OpRing(TowerElement.rational(1)), ts).is_zero()
    assert _gap_1728(OpRing(Poly.const(QQ, QQ.one)),
                     [Poly(QQ, c) for c in ps]).is_zero()
    assert _gap_1728(F, [F.decode(k) for k in data.draw(elts)]) == F.zero
    vec = _vector(K, [data.draw(elts) for _ in range(3)])
    assert not K.encode(_gap_1728(K, vec)).any()
    fq = [FqPoly(F, [F.decode(k) for k in data.draw(elts)]) for _ in range(3)]
    assert _gap_1728(OpRing(FqPoly(F, [F.one])), fq).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[_polys(rationals, 3)] * 3), rationals,
       st.sampled_from(_FQ), st.data())
def test_polynomial_rings_agree_pointwise(ps, t0, pn, data):
    # the formulas over k[t], evaluated at t0, are the formulas over k at a(t0)
    a = [Poly(QQ, c) for c in ps]
    over_t = _formulas(OpRing(Poly.const(QQ, QQ.one)), a)
    assert [f(t0) for f in over_t] == list(_formulas(QQ_RING, [f(t0) for f in a]))
    F, _ = _kernel(*pn)
    elts = st.lists(st.integers(0, F.q - 1), max_size=4).map(
        lambda ks: [F.decode(k) for k in ks])
    a = [FqPoly(F, data.draw(elts)) for _ in range(3)]
    x = F.decode(data.draw(st.integers(0, F.q - 1)))
    over_t = _formulas(OpRing(FqPoly(F, [F.one])), a)
    assert [f(x) for f in over_t] == list(_formulas(F, [f(x) for f in a]))


_FP2_PRIMES = (7, 11, 31, 4871)


@cache
def _fp2(p):
    return build_extension(p, 2)


def _fp2_elements(p):
    return st.integers(0, p * p - 1).map(_fp2(p).decode)


@st.composite
def _fp2_pair(draw):
    p = draw(st.sampled_from(_FP2_PRIMES))
    return _fp2(p), draw(_fp2_elements(p)), draw(_fp2_elements(p))


@settings(max_examples=120, deadline=None)
@given(_fp2_pair())
def test_fp2_closed_mul_and_inv(fab):
    F, a, b = fab
    c = _poly_mulmod(list(a), list(b), F._modlist, F.p)
    assert F.mul(a, b) == tuple(c) + (0,) * (2 - len(c))
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one


@settings(max_examples=120, deadline=None)
@given(_fp2_pair())
def test_fp2_norm_chi_and_sqrt(fab):
    F, a, b = fab
    euler = F.pow(a, (F.q - 1) // 2)
    assert F.chi(a) == (0 if a == F.zero else 1 if euler == F.one else -1)
    r = F.sqrt(a)
    if F.chi(a) >= 0:
        assert r is not None and F.mul(r, r) == a
    else:
        assert r is None
    # a square, and a square times a non-square
    sq = F.mul(b, b)
    r = F.sqrt(sq)
    assert F.mul(r, r) == sq
    if b != F.zero and F.chi(a) == -1:
        assert F.sqrt(F.mul(sq, a)) is None


@settings(max_examples=120, deadline=None)
@given(_fp2_pair())
def test_fp2_cbrt(fab):
    F, a, b = fab
    cube = F.mul(b, F.mul(b, b))
    r = F.cbrt(cube)
    assert F.mul(r, F.mul(r, r)) == cube
    is_cube = a == F.zero or F.pow(a, (F.q - 1) // 3) == F.one
    r = F.cbrt(a)
    if is_cube:
        assert r is not None and F.mul(r, F.mul(r, r)) == a
    else:
        assert r is None


_SPLIT_PRIMES = (7, 11, 13)
# degrees of the distinct irreducible factors: every shape of a quartic,
# and a few larger products
_SPLIT_SHAPES = [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 1, 2),
                 (1, 3), (1, 1, 1, 1), (1, 2, 3), (1, 1, 2, 2), (3, 4)]


@cache
def _irreducibles(p, d):
    """Every monic irreducible of degree d <= 3 over F_p, low-to-high."""
    cands = ([(k // p ** i) % p for i in range(d)] for k in range(p ** d))
    return [c + [1] for c in cands if d == 1 or _is_irreducible(c, d, p)]


def _irreducible_quartic_from(k, p):
    """The first monic irreducible quartic over F_p from index k on."""
    while True:
        c = [(k // p ** i) % p for i in range(4)]
        if _is_irreducible(c, 4, p):
            return c + [1]
        k += 1


@st.composite
def _split_case(draw):
    """(p, f, shape, squared): f is a scalar times distinct monic
    irreducibles over F_p with the degrees in shape, times the square of
    the first when squared."""
    p = draw(st.sampled_from(_SPLIT_PRIMES))
    shape = draw(st.sampled_from(_SPLIT_SHAPES))
    factors = []
    for d in sorted(set(shape)):
        if d == 4:
            factors.append(_irreducible_quartic_from(
                draw(st.integers(0, p ** 4 - 1)), p))
            continue
        pool = _irreducibles(p, d)
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=shape.count(d),
                         max_size=shape.count(d), unique=True)
        factors += [pool[i] for i in draw(picks)]
    squared = draw(st.booleans())
    f = [draw(st.integers(1, p - 1))]
    for g in factors + factors[:squared]:
        f = [int(c) for c in np.convolve(f, g)]
    return p, f, shape, squared


@settings(max_examples=100, deadline=None)
@given(_split_case())
def test_fp_root_finder_matches_fp2_search(case):
    p, f, shape, squared = case
    F2, roots = roots_in_fp2(f, p)
    assert roots == find_roots(FqPoly.from_ints(F2, f), F2, exhaustive=True)
    assert len(roots) == sum(d for d in shape if d <= 2)
    if not squared:
        # one (product, d) per degree d in shape, in increasing d
        ddf = _distinct_degree(_poly_monic(f, p), p)
        assert [(len(g) - 1, d) for g, d in ddf] == [
            (d * shape.count(d), d) for d in sorted(set(shape))]


@settings(max_examples=20, deadline=None)
@given(_polys(tower_coeffs, pf.NTRUNC + 2), _polys(tower_coeffs, 2),
       nonzero_tower_coeffs, _polys(tower_coeffs, 3))
def test_truncated_series_compose_and_inverses(a, inner_tail, lead, tail):
    a = Poly(TOWER, a)
    inner = Poly(TOWER, [TOWER.zero] + inner_tail)
    assert pf._compose(a, inner) == pf._trunc(a(inner))
    x = Poly(TOWER, [TOWER.zero, lead] + tail)
    x_inv = pf._series_inverse_param(x)
    assert pf._compose(x, x_inv) == pf.S
    assert pf._compose(x_inv, x) == pf.S
    unit = Poly(TOWER, [lead] + tail)
    assert pf._tmul(unit, LocalRing(pf.S, pf.NTRUNC).inv(unit)) == 1


small_ints = st.integers(-4, 4)


@st.composite
def _unimodular(draw, n):
    """A product of elementary integer row operations on the n x n identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["swap", "negate", "add"]))
        if op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
        elif i != j:
            k = draw(small_ints)
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


@st.composite
def _snf_case(draw):
    """M = A B of rank at most r, with unimodular U and V around it."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(rows, cols)))
    A = [[draw(small_ints) for _ in range(r)] for _ in range(rows)]
    B = [[draw(small_ints) for _ in range(cols)] for _ in range(r)]
    M = _matmul(A, B) if r else [[0] * cols for _ in range(rows)]
    return M, draw(_unimodular(rows)), draw(_unimodular(cols))


@settings(max_examples=60, deadline=None)
@given(_snf_case())
def test_smith_is_invariant_and_kernel_is_saturated(case):
    M, U, V = case
    assert smith(_matmul(_matmul(U, M), V)).d == smith(M).d
    rows, cols = len(M), len(M[0])
    kernel = _kernel_basis(M)
    assert len(kernel) == cols - matrix_rank(M)
    for k in kernel:
        assert all(sum(M[i][j] * k[j] for j in range(cols)) == 0
                   for i in range(rows))
    if kernel:
        # saturated: Z^n / span(kernel) is torsion-free
        assert smith(kernel).d == [1] * len(kernel)
