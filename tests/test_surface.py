import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyk3 import surface
from dyk3.cli import MAX_Q
from dyk3.elliptic import weierstrass_discriminant
from dyk3.ffield import build_extension, is_prime, kronecker, rational_mod_p
from dyk3.fixtures import SurfaceFixture, load_surface
from dyk3.models import e2_surface, rational_elliptic_test_surface
from dyk3.poly import Poly, QQ
from dyk3.surface import (SurfaceCount, count_singular, count_smooth,
                          count_via_fibration, _fibration_good, _poly_mod_p,
                          _VecFq, three_way_counts)
from dyk3.tate import EllipticSurface, Place
from fibre_oracle import bad_fiber_points_oracle, shifted_poly
from scalar_oracle import _count_singular_scalar, _fibration_good_scalar


def test_chi_table():
    for p in (7, 31):
        chi = _VecFq(build_extension(p, 1)).chi
        assert chi((0,)) == 0
        for a in range(1, p):
            assert chi((a,)) == kronecker(a, p)


def test_x6_example():
    # f = x^6 over F_3: 22 points
    fix = SurfaceFixture({
        "provenance": "derived",
        "name": "drell-yan",
        "sextic_monomials": [[[6, 0, 0], 1]],
        "singular_profile": [],
        "bad_primes": [],
    })
    fix.name = "test-x6"
    F3 = build_extension(3, 1)
    assert _count_singular_scalar(fix, F3) == 22
    assert count_singular(fix, F3) == 22


def test_fiber_size_bound():
    fix = load_surface()
    for p, n in ((7, 1), (11, 1), (7, 2)):
        F = build_extension(p, n)
        cnt = count_singular(fix, F)
        assert cnt <= 2 * (F.q ** 2 + F.q + 1)


def test_chart_decomposition_exactness():
    # with f = 0 identically the count visits every point exactly once
    fix = SurfaceFixture({
        "provenance": "derived", "name": "drell-yan",
        "sextic_monomials": [[[6, 0, 0], 0]],
        "singular_profile": [], "bad_primes": []})
    fix.name = "zero"
    for p, n in ((5, 1), (3, 2), (3, 3), (3, 4)):
        F = build_extension(p, n)
        assert _count_singular_scalar(fix, F) == F.q ** 2 + F.q + 1
        assert count_singular(fix, F) == F.q ** 2 + F.q + 1


# f(1, 0, 0) = 3 is a non-square mod 7 but a square in F_49
X6 = SurfaceFixture({
    "provenance": "derived", "name": "drell-yan",
    "sextic_monomials": [[[6, 0, 0], 3], [[0, 6, 0], 1], [[0, 0, 6], 2],
                         [[1, 2, 3], 5]],
    "singular_profile": [], "bad_primes": []})


def test_numpy_matches_scalar(monkeypatch):
    # blocks of 6 rows by slabs of 5 y-values at n = 2: the 28 orbits of
    # F_49 and the 49 values of y each end in a partial block or slab
    monkeypatch.setattr(surface, "BLOCK", 64)
    monkeypatch.setattr(surface, "SLAB", 5)
    fix = load_surface()
    for p, n in ((7, 1), (11, 1), (13, 1), (7, 2)):
        F = build_extension(p, n)
        assert count_singular(fix, F) == _count_singular_scalar(fix, F)
    for p, n in ((7, 1), (7, 2)):
        F = build_extension(p, n)
        assert count_singular(X6, F) == _count_singular_scalar(X6, F), (p, n)
    E = e2_surface()
    for p, n in ((7, 1), (11, 1), (13, 1), (7, 2), (11, 2)):
        F = build_extension(p, n)
        coeffs = [_poly_mod_p(c, p) for c in (E.a2, E.a4, E.a6)]
        good, bad = _fibration_good(_VecFq(F), *coeffs)
        good_ref, bad_ref = _fibration_good_scalar(F, *coeffs)
        assert good == good_ref, (p, n)
        assert _bad_orbits_cover(F, bad, bad_ref), (p, n)


@pytest.mark.parametrize("p, n", [(3, 3), (3, 4), (5, 3)])
def test_kernel_matches_scalar_oracle_in_degree_3_and_4(p, n):
    # the cubic and quartic moduli fold x^3..x^6 back in more than one step
    F = build_extension(p, n)
    assert count_singular(X6, F) == _count_singular_scalar(X6, F)
    E = e2_surface()
    coeffs = [_poly_mod_p(c, p) for c in (E.a2, E.a4, E.a6)]
    good, bad = _fibration_good(_VecFq(F), *coeffs)
    good_ref, bad_ref = _fibration_good_scalar(F, *coeffs)
    assert good == good_ref
    assert _bad_orbits_cover(F, bad, bad_ref)


def _bad_orbits_cover(F, bad, bad_ref):
    """The Frobenius orbits of the (t, orbit size) pairs in bad, each of
    the stated size, are disjoint and make up exactly the bad t's bad_ref."""
    covered = []
    for t, size in bad:
        for _ in range(size):
            covered.append(t)
            t = F.frobenius(t)
        if t != covered[-size]:
            return False
    return sorted(covered) == sorted(bad_ref)


def _frobenius_cases():
    return [(p, n) for p in (3, 5, 7, 11, 13) for n in range(1, 5)
            if p ** n <= MAX_Q]


@pytest.mark.parametrize("p, n", _frobenius_cases())
def test_frobenius_orbits(p, n):
    F = build_extension(p, n)
    K = _VecFq(F)
    reps, sizes = K.orbits()
    assert all(n % int(s) == 0 for s in sizes)
    assert int(sizes.sum()) == F.q
    # necklace count: (1/n) sum_{d | n} phi(d) p^(n/d) orbits of x -> x^p
    phi = {1: 1, 2: 1, 3: 2, 4: 2}
    assert n * len(reps) == sum(phi[d] * p ** (n // d) for d in (1, 2, 3, 4)
                                if n % d == 0)
    frob = K.encode(K.frobenius(K.elements))
    ks = range(F.q) if F.q <= 2401 else random.Random(p * n).sample(range(F.q), 300)
    for k in ks:
        assert frob[k] == F.encode(F.pow(F.decode(k), p)), k
    # each representative is the least element of an orbit of its size
    for r, s in zip(reps[:50], sizes[:50]):
        orbit, x = [int(r)], int(frob[r])
        while x != r:
            orbit.append(x)
            x = int(frob[x])
        assert len(orbit) == s and min(orbit) == r


def test_char_sum_bound_admits_every_count_made():
    # both routes sum polynomials of degree B <= 6 in y: the sextic's
    # charts and the fibre cubic; the float64 product needs
    # n (B + 1) (p - 1)^2 < 2^53, the int64 kernel 2 n^2 p^3 < 2^63, and
    # every count at n >= 2 runs in float32, n (B + 1) (p - 1)^2 < 2^24
    fix = load_surface()
    assert max(sum(e) for e, _ in fix.monomials) == 6
    for n in range(1, 5):
        for p in range(3, round(MAX_Q ** (1 / n)) + 2):
            if p ** n <= MAX_Q and is_prime(p):
                assert n * 7 * (p - 1) ** 2 < 2 ** 53, (p, n)
                assert 2 * n * n * p ** 3 < 2 ** 63, (p, n)
                assert n == 1 or n * 7 * (p - 1) ** 2 < 2 ** 24, (p, n)


def _char_sum_at(p, rows, weights, monkeypatch):
    """(K.char_sum, the scalar sum, the dtypes of the products) at n = 1."""
    F = build_extension(p, 1)
    dtypes = set()
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul",
                        lambda a, b, out: dtypes.add(out.dtype) or matmul(a, b, out=out))
    C = [(np.array([row[b] for row in rows]),) for b in range(len(rows[0]))]
    got = _VecFq(F).char_sum(C, weights)
    monkeypatch.undo()
    expect = 0
    for row, w in zip(rows, weights):
        coeffs = [F.from_int(c) for c in row]
        for y in F.elements():
            acc = F.zero
            for c in reversed(coeffs):
                acc = F.add(F.mul(acc, y), c)
            expect += w * F.chi(acc)
    return got, expect, dtypes


def test_char_sum_exact_at_the_largest_prime(monkeypatch):
    # p = 32,749 is the largest p <= MAX_Q; an all-(p - 1) row gives the
    # largest entries of A @ M, at most (p - 1) (1 + (m - 1) (p - 1)) as y^0 = 1
    p = 32749
    assert is_prime(p) and not any(map(is_prime, range(p + 1, MAX_Q + 1)))
    rng = random.Random(4)
    rows = [[p - 1] * 7, [rng.randrange(p) for _ in range(7)],
            [0, 1, 0, 0, 0, 0, rng.randrange(1, p)]]
    got, expect, dtypes = _char_sum_at(p, rows, [1, 3, 2], monkeypatch)
    assert got == expect and dtypes == {np.dtype(np.float64)}


@pytest.mark.parametrize("p, dtype", [(1831, np.float32), (1847, np.float64)])
def test_char_sum_exact_at_the_float32_edge(p, dtype, monkeypatch):
    # m = 5 columns, as the sextic's chart z = 1 at n = 1: 5 (p - 1)^2 is
    # just below 2^24 at p = 1831, and 1847 is the next prime, past it
    assert is_prime(p) and (5 * (p - 1) ** 2 < 2 ** 24) == (dtype is np.float32)
    assert not any(map(is_prime, range(1832, 1847)))
    rng = random.Random(p)
    rows = [[p - 1] * 5] + [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
    got, expect, dtypes = _char_sum_at(p, rows, [1, 3, 2, 5], monkeypatch)
    assert got == expect and dtypes == {np.dtype(dtype)}


def test_count_smooth_structure():
    fix = load_surface()
    F = build_extension(7, 1)
    sc = count_smooth(fix, F)
    assert sc.smooth == sc.raw + 14 * 7
    assert fix.correction_sum == 14
    with pytest.raises(ValueError):
        SurfaceCount(7, 10, 98, 100)


def test_smooth_profile_point_rejected():
    # (1 : 0 : 1) lies on x^6 + y^6 - z^6, but the gradient there is (6, 0, -6)
    fix = SurfaceFixture({
        "provenance": "derived", "name": "drell-yan",
        "sextic_monomials": [[[6, 0, 0], 1], [[0, 6, 0], 1], [[0, 0, 6], -1]],
        "singular_profile": [{"point": ["1", "0", "1"], "type": 1,
                              "rational_exceptional": True}],
        "bad_primes": []})
    with pytest.raises(ValueError, match="not singular"):
        count_smooth(fix, build_extension(7, 1))


@pytest.mark.parametrize("first, singular", [
    # (2x - z)^2 z^4 + (3y - z)^2 x^4: both squares vanish at (1/2 : 1/3 : 1)
    ([[[2, 0, 4], 4], [[1, 0, 5], -4], [[0, 0, 6], 1]], True),
    # (2x - z) z^5 + (3y - z)^2 x^4: f = 0 there, but df/dx = 2
    ([[[1, 0, 5], 2], [[0, 0, 6], -1]], False)])
def test_profile_point_with_denominators(first, singular):
    square = [[[4, 2, 0], 9], [[4, 1, 1], -6], [[4, 0, 2], 1]]
    fix = SurfaceFixture({
        "provenance": "derived", "name": "drell-yan",
        "sextic_monomials": first + square,
        "singular_profile": [{"point": ["1/2", "1/3", "1"], "type": 1,
                              "rational_exceptional": True}],
        "bad_primes": []})
    F = build_extension(7, 1)
    if singular:
        assert count_smooth(fix, F).correction == 7
    else:
        with pytest.raises(ValueError, match="not singular"):
            count_smooth(fix, F)


def test_bad_prime_rejected():
    fix = load_surface()
    with pytest.raises(ValueError):
        count_singular(fix, build_extension(5, 1))


def test_rational_surface_fibration_count():
    # y^2 = x^3 + x + t: rational elliptic surface, NS fully rational
    # (II* at infinity, two I1), so |S(F_q)| = q^2 + 10q + 1 exactly --
    # a strong independent oracle for the good+bad decomposition, since the
    # nonsplit I1 corrections must cancel against the character sums
    E = rational_elliptic_test_surface()
    tab = E.bad_fibres()
    syms = sorted(f.kodaira for _, f in tab)
    assert "II*" in syms
    for p in (7, 11, 13, 31, 41):
        F = build_extension(p, 1)
        assert count_via_fibration(E, F) == p * p + 10 * p + 1, p
    for p, n in ((7, 2), (7, 3), (5, 3), (5, 4)):
        F = build_extension(p, n)
        q = F.q
        assert count_via_fibration(E, F) == q * q + 10 * q + 1, (p, n)
    # p = 3 is out of reach: the II* fibre at infinity is wild there, and
    # the count refuses on entry
    for n in (1, 4):
        with pytest.raises(ValueError, match="p >= 5"):
            count_via_fibration(E, build_extension(3, n))


def test_rational_surface_free_section():
    # y^2 = x^3 + t x + 1: III* over infinity, MW rank 1 generated by the
    # rational section (0, 1): NS again fully rational of rank 10
    E = rational_elliptic_test_surface("free-section")
    syms = sorted(f.kodaira for _, f in E.bad_fibres())
    assert "III*" in syms
    for p in (7, 11, 13):
        F = build_extension(p, 1)
        assert count_via_fibration(E, F) == p * p + 10 * p + 1, p


def _rational_surface(a4, a6):
    """y^2 = x^3 + a4 x + a6 over Q, a4 and a6 integer lists low-to-high."""
    return EllipticSurface(QQ, Poly(QQ, []), Poly.from_ints(QQ, a4),
                           Poly.from_ints(QQ, a6), chi=1)


# (7, 3) has q = 343 > 256, so find_roots splits the I0* cubics by
# Cantor-Zassenhaus rather than by scanning F_q
ADDITIVE_FIELDS = ((7, 1), (11, 1), (13, 1), (31, 1), (7, 2), (5, 3), (7, 3))


def test_rational_surface_iv_and_iv_star():
    # y^2 = x^3 + c t^2: IV over 0, IV* over infinity.  |S(F_q)| is
    # q^2 + 10q + 1 when c is a square in F_q, and q^2 + 4q + 1 otherwise
    for c in (1, 2, 3):
        E = _rational_surface([], [0, 0, c])
        assert sorted(f.kodaira for _, f in E.bad_fibres()) == ["IV", "IV*"]
        for p, n in ADDITIVE_FIELDS:
            F = build_extension(p, n)
            q = F.q
            want = q * q + (10 if F.chi(F.from_int(c)) == 1 else 4) * q + 1
            assert count_via_fibration(E, F) == want, (c, p, n)


def test_rational_surface_two_i0_star_with_rational_legs():
    # y^2 = x^3 - t^2 (t-1)^2 x: I0* over 0 and 1, the step-6 cubic
    # X^3 - X splits over F_p, so every leg is rational
    E = _rational_surface([0, 0, -1, 2, -1], [])
    assert [f.kodaira for _, f in E.bad_fibres()] == ["I0*", "I0*"]
    for p, n in ADDITIVE_FIELDS:
        q = p ** n
        assert count_via_fibration(E, build_extension(p, n)) == q * q + 10 * q + 1


def test_rational_surface_two_i0_star_with_cube_root_legs():
    # y^2 = x^3 + 2 t^3 (t-1)^3: I0* over 0 and 1, with legs at the cube
    # roots of 2 and of -2, so r rational legs each
    E = _rational_surface([], [0, 0, 0, -2, 6, -6, 2])
    assert [f.kodaira for _, f in E.bad_fibres()] == ["I0*", "I0*"]
    for p, n in ADDITIVE_FIELDS:
        F = build_extension(p, n)
        q = F.q
        r = sum(1 for x in F.elements()
                if F.mul(x, F.mul(x, x)) == F.from_int(2))
        assert count_via_fibration(E, F) == q * q + q * (4 + 2 * r) + 1, (p, n)


def test_three_way_agreement_all_primes():
    for p in (11, 31, 41):
        for n in (1, 2):
            r = three_way_counts(p, n)
            assert r["agree"], r


def test_weil_window():
    # derived traces satisfy |mu1| <= 3p (checked inside transcendental_traces)
    from dyk3.weil import transcendental_traces
    for p in (11, 31):
        c1 = three_way_counts(p, 1)["count_smooth"]
        c2 = three_way_counts(p, 2)["count_smooth"]
        mu1, mu2 = transcendental_traces(c1, c2, p)
        assert abs(mu1) <= 3 * p and abs(mu2) <= 3 * p * p


def test_vanishing_discriminant_mod_p_is_refused():
    # y^2 = x^3 + 7t x reduces to y^2 = x^3 mod 7: every fibre is a cusp
    E = _rational_surface([0, 7], [])
    with pytest.raises(ValueError, match="mod p = 7"):
        count_via_fibration(E, build_extension(7, 1))
    assert count_via_fibration(E, build_extension(11, 1)) == 11 * 11 + 10 * 11 + 1


def _reduced(E, F):
    """E over Q reduced mod p, as the int lists and the EllipticSurface over F_q."""
    coeffs = [_poly_mod_p(a, F.p) for a in (E.a2, E.a4, E.a6)]
    Ep = EllipticSurface(F, *(Poly.from_ints(F, a) for a in coeffs), chi=E.chi)
    return coeffs, Ep


def _linear_place(F, t0):
    return Place(Poly(F, [F.neg(t0), F.one]))


def _compare_with_old_classifier(E, F):
    """Per-place fibre counts of E mod p: bad_fiber_points on local_type
    against the old classifier, over each bad orbit and infinity."""
    coeffs, Ep = _reduced(E, F)
    _, bad = _fibration_good(_VecFq(F), *coeffs)
    for t0, _ in bad:
        want = bad_fiber_points_oracle(F, *(shifted_poly(F, a, t0) for a in coeffs))
        fib = Ep.local_type(_linear_place(F, t0))
        assert surface.bad_fiber_points(Ep, fib) == want, (F, t0, fib)
    inf = E.infinity_model()
    U = [shifted_poly(F, _poly_mod_p(a, F.p), None) for a in (inf.a2, inf.a4, inf.a6)]
    fib = Ep.local_type(Place(infinity=True))
    bad_at_inf = weierstrass_discriminant(F, *(u.coeff(0) for u in U)) == F.zero
    assert bad_at_inf == (fib.vdelta > 0)
    if bad_at_inf:
        want = bad_fiber_points_oracle(F, *U)
        assert surface.bad_fiber_points(Ep, fib) == want, (F, fib)
    return len(bad) + bad_at_inf


def _separate_rational_places(E, F):
    """[(t0, Q symbol)] for the degree-1 bad places t - r of E over Q whose
    r reduces to a t0 of F_q where no other finite bad place does."""
    polys = [pl.poly for pl, _ in E.bad_fibres() if not pl.infinity]
    out = []
    for pl, fib in E.bad_fibres():
        if pl.infinity or pl.degree != 1:
            continue
        r = -pl.poly.coeff(0)
        if Fraction(r).denominator % F.p == 0:
            continue
        t0 = F.from_int(rational_mod_p(r, F.p))
        others = [Poly.from_ints(F, _poly_mod_p(pi, F.p)) for pi in polys
                  if pi != pl.poly]
        if all(not F.is_zero(pi(t0)) for pi in others):
            out.append((t0, fib.kodaira))
    return out


E2_FIELDS = [(p, n) for p in (31, 37, 41, 43, 47, 71) for n in (1, 2)]


def _chi1_surfaces():
    return [rational_elliptic_test_surface(),
            rational_elliptic_test_surface("free-section"),
            *(_rational_surface([], [0, 0, c]) for c in (1, 2, 3)),
            _rational_surface([0, 0, -1, 2, -1], []),
            _rational_surface([], [0, 0, 0, -2, 6, -6, 2])]


@pytest.mark.parametrize("p, n", E2_FIELDS)
def test_e2_fibre_counts_match_the_old_classifier(p, n):
    E = e2_surface()
    F = build_extension(p, n)
    assert _compare_with_old_classifier(E, F) >= 4
    coeffs, Ep = _reduced(E, F)
    separate = _separate_rational_places(E, F)
    # t = 0, 1, -1 (I10, I4, I2) stay apart mod every tested prime
    assert len(separate) >= 3
    for t0, sym in separate:
        assert Ep.local_type(_linear_place(F, t0)).kodaira == sym, (p, n, t0)


@pytest.mark.parametrize("p, n", ADDITIVE_FIELDS)
def test_chi1_fibre_counts_match_the_old_classifier(p, n):
    F = build_extension(p, n)
    symbols = set()
    for E in _chi1_surfaces():
        _compare_with_old_classifier(E, F)
        _, Ep = _reduced(E, F)
        for t0, sym in _separate_rational_places(E, F):
            fib = Ep.local_type(_linear_place(F, t0))
            assert fib.kodaira == sym, (E.a4, E.a6, p, n, t0)
            symbols.add(sym)
        symbols.add(Ep.local_type(Place(infinity=True)).kodaira)
    assert {"I0*", "IV", "IV*", "III*", "II*"} <= symbols


def test_surface_has_no_classifier_of_its_own():
    # Kodaira types over F_q come from tate.EllipticSurface.local_type
    path = Path(__file__).resolve().parents[1] / "src" / "dyk3" / "surface.py"
    banned = {"classify_tame", "weierstrass_c4_c6", "shift_down", "_shifted_poly"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        else:
            continue
        found += [f"{n}:{node.lineno}" for n in names if n in banned]
    assert found == []
