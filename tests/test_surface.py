import random

import pytest

from dyk3.ffield import build_extension, kronecker
from dyk3.fixtures import SurfaceFixture, load_surface
from dyk3.models import e2_surface, rational_elliptic_test_surface
from dyk3.surface import (SurfaceCount, chi_table, count_singular,
                          count_smooth, count_via_fibration,
                          _count_singular_scalar, _fibration_good_np,
                          _fibration_good_scalar, _poly_mod_p,
                          three_way_counts)


def test_chi_table():
    for p in (7, 31):
        t = chi_table(p)
        assert t[0] == 0
        for a in range(1, p):
            assert t[a] == kronecker(a, p)


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
    for p, n in ((5, 1), (3, 2)):
        F = build_extension(p, n)
        assert _count_singular_scalar(fix, F) == F.q ** 2 + F.q + 1


def test_numpy_matches_scalar():
    fix = load_surface()
    for p, n in ((7, 1), (11, 1), (13, 1), (7, 2)):
        F = build_extension(p, n)
        assert count_singular(fix, F) == _count_singular_scalar(fix, F)
    # f(1, 0, 0) = 3 is a non-square mod 7 but a square in F_49
    x6 = SurfaceFixture({
        "provenance": "derived", "name": "drell-yan",
        "sextic_monomials": [[[6, 0, 0], 3], [[0, 6, 0], 1], [[0, 0, 6], 2],
                             [[1, 2, 3], 5]],
        "singular_profile": [], "bad_primes": []})
    x6.name = "test-x6-nonsquare"
    for p, n in ((7, 1), (7, 2)):
        F = build_extension(p, n)
        assert count_singular(x6, F) == _count_singular_scalar(x6, F), (p, n)
    E = e2_surface()
    for p, n in ((7, 1), (11, 1), (13, 1), (7, 2), (11, 2)):
        F = build_extension(p, n)
        coeffs = [_poly_mod_p(c, p) for c in (E.a2, E.a4, E.a6)]
        good, bad = _fibration_good_np(F, *coeffs)
        good_ref, bad_ref = _fibration_good_scalar(F, *coeffs)
        assert good == good_ref, (p, n)
        assert set(bad) == set(bad_ref), (p, n)


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
    F = build_extension(7, 2)
    q = 49
    assert count_via_fibration(E, F) == q * q + 10 * q + 1


def test_rational_surface_free_section():
    # y^2 = x^3 + t x + 1: III* over infinity, MW rank 1 generated by the
    # rational section (0, 1): NS again fully rational of rank 10
    E = rational_elliptic_test_surface("free-section")
    syms = sorted(f.kodaira for _, f in E.bad_fibres())
    assert "III*" in syms
    for p in (7, 11, 13):
        F = build_extension(p, 1)
        assert count_via_fibration(E, F) == p * p + 10 * p + 1, p


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
