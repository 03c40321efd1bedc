from fractions import Fraction

import pytest

from dyk3.ffield import kronecker
from dyk3.surface import three_way_counts
from dyk3.weil import (FrobeniusSpectrum, artin_tate_sqclass, charpoly,
                       functional_equation_sign, predicted_count,
                       resolve_ambiguity, solve_transcendental, spectrum_report,
                       transcendental_traces, van_luijk)


def spectrum_for(p):
    c1 = three_way_counts(p, 1)["count_smooth"]
    c2 = three_way_counts(p, 2)["count_smooth"]
    mu1, mu2 = transcendental_traces(c1, c2, p)
    return solve_transcendental(mu1, mu2, p)


def test_traces_at_31():
    c1 = three_way_counts(31, 1)["count_smooth"]
    c2 = three_way_counts(31, 2)["count_smooth"]
    mu1, mu2 = transcendental_traces(c1, c2, 31)
    assert mu1 == -15
    assert mu2 == (-46) ** 2 - 31 ** 2  # t(31)^2 - p^2
    spec = solve_transcendental(mu1, mu2, 31)
    assert spec.s == 1 and spec.c == Fraction(-46, 31)
    assert not spec.ambiguous


def test_rank_and_square_classes():
    s31 = spectrum_for(31)
    s71 = spectrum_for(71)
    assert s31.rho == 20
    assert s71.rho == 20
    assert artin_tate_sqclass(s31) == 3
    assert artin_tate_sqclass(s71) == 35
    assert van_luijk(s31, s71) == 19


def test_sign_matches_kron10():
    for p in (31, 41, 71, 79):
        spec = spectrum_for(p)
        rep = spectrum_report(spec)
        assert rep["sign_matches_kron10"], (p, rep)


def test_supersingular_style_extremes():
    spec = solve_transcendental(3 * 7, 3 * 49, 7)
    assert (spec.s, spec.c) == (1, 2)
    assert spec.rho == 22
    spec2 = solve_transcendental(-7, 3 * 49, 7)
    # c = +-2; s forced on one branch only
    assert abs(spec2.c) == 2 and spec2.s in (1, -1)
    assert not spec2.ambiguous


def test_ambiguous_case_and_resolution():
    # mu1 = 0, mu2 = 0: c = +-1 both admit s = -+1
    spec = solve_transcendental(0, 0, 7)
    assert spec.ambiguous
    # fabricate the degree-3 count for (s, c) = (-1, 1): trace at n=3:
    # algebraic + s^3 p^3 + p^3 (c^3 - 3c) = algebraic - p^3 - 2 p^3
    from dyk3.weil import algebraic_trace
    count3 = 1 + 7 ** 6 + algebraic_trace(7, 3, kronecker(5, 7)) - 3 * 7 ** 3
    fixed = resolve_ambiguity(spec, count3)
    assert (fixed.s, fixed.c) == (-1, 1)
    assert fixed.potential_rank_degree == 3


def test_charpoly_roots_and_coefficients():
    # a solved spectrum made up with p*c integral, as charpoly requires
    p, c = 7, Fraction(3, 7)
    for kron5, s in ((1, -1), (-1, 1)):
        coeffs = charpoly(FrobeniusSpectrum(p, kron5, 0, 0, s, c))
        assert len(coeffs) == 23 and coeffs[22] == 1
        for root in (p, kron5 * p, s * p):
            assert sum(a * root ** i for i, a in enumerate(coeffs)) == 0
        # sum and product of the 22 roots
        assert -coeffs[21] == 18 * p + kron5 * p + s * p + p * c
        assert coeffs[0] == p ** 18 * (kron5 * p) * (s * p) * p * p


def test_charpoly_functional_equation():
    for p in (31, 71):
        spec = spectrum_for(p)
        coeffs = charpoly(spec)
        assert len(coeffs) == 23
        assert functional_equation_sign(coeffs, p) in (1, -1)
        # root multiset contains p with multiplicity >= 18: P and its first
        # 17 derivatives vanish at p
        poly = [Fraction(c) for c in coeffs]
        for _ in range(18):
            val = Fraction(0)
            for c in reversed(poly):
                val = val * p + c
            assert val == 0
            poly = [c * i for i, c in enumerate(poly)][1:]


def test_predicted_counts_round_trip():
    for p in (31, 41):
        spec = spectrum_for(p)
        assert predicted_count(spec, 1) == three_way_counts(p, 1)["count_smooth"]
        assert predicted_count(spec, 2) == three_way_counts(p, 2)["count_smooth"]
        spec.verify_roundtrip()


def test_bad_inputs():
    with pytest.raises(ValueError):
        transcendental_traces(10 ** 9, 0, 31)
    supers = solve_transcendental(3 * 7, 3 * 49, 7)
    with pytest.raises(ValueError):
        artin_tate_sqclass(supers)
    s31 = spectrum_for(31)
    with pytest.raises(ValueError):
        van_luijk(s31, supers)


def test_degree3_prediction_vs_direct_count():
    # the solved spectrum predicts |S(F_{p^3})| and |S(F_{p^4})|; both
    # routes count them directly on the vector kernel
    p = 7
    spec = spectrum_for(p)
    for n in (3, 4):
        r = three_way_counts(p, n)
        assert r["agree"], r
        assert predicted_count(spec, n) == r["count_smooth"], n


@pytest.mark.slow
def test_degree3_prediction_at_31():
    r = three_way_counts(31, 3)
    assert r["agree"], r
    assert predicted_count(spectrum_for(31), 3) == r["count_smooth"]
