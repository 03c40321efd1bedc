import random
from fractions import Fraction

import pytest

from dyk3.elliptic import (PHI2, CurveOverFq, IsogenyMap, TraceRecord,
                           WeierstrassModel, _cubic_roots, _phi2_at,
                           curve_with_j, is_supersingular,
                           supersingular_walk, trace_lift, verify_isogeny)
from dyk3.ffield import FqPoly, build_extension, kronecker
from dyk3.fixtures import load_tower_constants
from dyk3.numfield import SQRT2, SQRT5, SplitEmbedding, TowerElement
from tower_oracle import eval_poly_at_tower, minimal_polynomial_over_Q


def brute_count(field, a2, a4, a6):
    n = 1
    for x in field.elements():
        rhs = field.add(field.mul(field.add(field.mul(field.add(x, a2), x), a4), x), a6)
        if rhs == field.zero:
            n += 1
        elif field.chi(rhs) == 1:
            n += 2
    return n


def test_count_examples():
    F3 = build_extension(3, 1)
    E = CurveOverFq.from_ints(F3, 0, 1, 0)  # y^2 = x^3 + x
    rec = E.count_points()
    assert rec.count == brute_count(F3, *map(F3.from_int, (0, 1, 0))) == 4
    assert rec.a == 0

    # y^2 = x^3 - x: supersingular exactly at p = 3 mod 4; the brute-force
    # oracle gives a = -2 over F_5 and a = 0 over F_7
    F5 = build_extension(5, 1)
    E2 = CurveOverFq.from_ints(F5, 0, -1, 0)
    assert E2.count_points().count == brute_count(F5, F5.from_int(0), F5.from_int(-1), F5.zero) == 8
    assert E2.count_points().a == -2
    F7 = build_extension(7, 1)
    E3 = CurveOverFq.from_ints(F7, 0, -1, 0)
    assert E3.count_points().a == 0


def test_twist_pairing():
    rng = random.Random(11)
    for p in (7, 11, 13):
        F = build_extension(p, 1)
        u = next(x for x in range(2, p) if kronecker(x, p) == -1)
        for _ in range(8):
            while True:
                a2, a4, a6 = (rng.randrange(p) for _ in range(3))
                try:
                    E = CurveOverFq.from_ints(F, a2, a4, a6)
                    break
                except ValueError:
                    continue
            Et = CurveOverFq.from_ints(F, u * a2, u * u * a4, u ** 3 * a6)
            assert E.count_points().count + Et.count_points().count == 2 * p + 2


def test_trace_lift():
    assert trace_lift(0, 7, 2) == -2 * 7
    for a in range(-5, 6):
        if a * a <= 4 * 7:
            assert trace_lift(a, 7, 2) == a * a - 2 * 7
    with pytest.raises(ValueError):
        trace_lift(12, 7, 2)


def test_trace_lift_vs_extension_count():
    # every curve over F_p, small p, against the F_{p^2} brute count
    for p in (5, 7):
        F1 = build_extension(p, 1)
        F2 = build_extension(p, 2)
        for a4 in range(p):
            for a6 in range(p):
                try:
                    E = CurveOverFq.from_ints(F1, 0, a4, a6)
                except ValueError:
                    continue
                a = E.count_points().a
                E2 = CurveOverFq.from_ints(F2, 0, a4, a6)
                assert E2.count_points().count == p * p + 1 - trace_lift(a, p, 2)
    # a random curve over F_31
    rng = random.Random(12)
    F1, F2 = build_extension(31, 1), build_extension(31, 2)
    for _ in range(3):
        a4, a6 = rng.randrange(31), rng.randrange(31)
        try:
            E = CurveOverFq.from_ints(F1, 0, a4, a6)
        except ValueError:
            continue
        a = E.count_points().a
        assert CurveOverFq.from_ints(F2, 0, a4, a6).count_points().count \
            == 961 + 1 - trace_lift(a, 31, 2)


def test_j_invariant_basics():
    E = WeierstrassModel.short(Fraction(0), Fraction(1))
    assert E.j_invariant() == 0
    E2 = WeierstrassModel.short(Fraction(1), Fraction(0))
    assert E2.j_invariant() == 1728
    # j preserved by quadratic twist
    E3 = WeierstrassModel.short(Fraction(3), Fraction(5))
    assert E3.quadratic_twist(Fraction(7)).j_invariant() == E3.j_invariant()


def test_j_of_E1_has_stated_minimal_polynomial():
    cst = load_tower_constants()
    E1 = WeierstrassModel(cst.curves["E1"]["a2"], cst.curves["E1"]["a4"],
                          cst.curves["E1"]["a6"])
    j = E1.j_invariant()
    assert j.in_k4()
    mp = minimal_polynomial_over_Q(j)
    assert [c for c in mp] == [Fraction(c) for c in cst.j_min_poly]
    assert eval_poly_at_tower(mp, j).is_zero()


def test_twist_by_kappa_matches_E1_j():
    cst = load_tower_constants()
    E256 = WeierstrassModel(cst.curves["E256_i2"]["a2"],
                            cst.curves["E256_i2"]["a4"],
                            cst.curves["E256_i2"]["a6"])
    E1 = WeierstrassModel(cst.curves["E1"]["a2"], cst.curves["E1"]["a4"],
                          cst.curves["E1"]["a6"])
    twisted = E256.quadratic_twist(cst.kappa)
    assert twisted.j_invariant() == E1.j_invariant()


def test_supersingular_examples():
    F5 = build_extension(5, 1)
    assert is_supersingular(CurveOverFq.from_ints(F5, 0, 0, 1))  # j=0, 5 % 3 == 2
    F13 = build_extension(13, 1)
    assert not is_supersingular(CurveOverFq.from_ints(F13, 0, 1, 0))  # j=1728, 13%4==1
    assert CurveOverFq.from_ints(F13, 0, 1, 0).count_points().a != 0


def test_hasse_vs_count_exhaustive_sweep():
    # Hasse-invariant verdict == (trace = 0) for every curve, p <= 61
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        F = build_extension(p, 1)
        chi_table = [kronecker(x, p) if x else 0 for x in range(p)]
        for A in range(p):
            for B in range(p):
                if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                    continue
                count = p + 1 + sum(chi_table[(x * x * x + A * x + B) % p] for x in range(p))
                # for p >= 5 the trace vanishes exactly when count = p + 1
                E = CurveOverFq.from_ints(F, 0, A, B)
                assert is_supersingular(E) == (count == p + 1), (p, A, B)


def test_hasse_ext_field():
    # over F_{p^2}: supersingular iff count == q + 1 - traceless... use
    # count % p == 1 as the independent oracle
    for p in (5, 7, 11, 13):
        F2 = build_extension(p, 2)
        rng = random.Random(p)
        for _ in range(12):
            while True:
                A = F2.decode(rng.randrange(F2.q))
                B = F2.decode(rng.randrange(F2.q))
                try:
                    E = CurveOverFq(F2, F2.zero, A, B)
                    break
                except ValueError:
                    continue
            cnt = E.count_points().count
            assert is_supersingular(E) == (cnt % p == 1 % p), (p, A, B)


def test_curve_with_j():
    F = build_extension(31, 1)
    for j in (0, 5, 7, 29, 1728):
        E = curve_with_j(F, F.from_int(j))
        # j of y^2 = x^3 + ax + b over F_q: 1728 * 4a^3/(4a^3+27b^2)
        a, b = E.a4, E.a6
        num = F.smul(1728 * 4, F.pow(a, 3))
        den = F.add(F.smul(4, F.pow(a, 3)), F.smul(27, F.mul(b, b)))
        assert F.mul(num, F.inv(den)) == F.from_int(j)


def test_phi2_vanishes_on_known_2_isogenies():
    # 1728 -> 66^3 and 0 -> 2 * 30^3 are 2-isogenies, and j = 8000 (CM by
    # sqrt(-2)) and j = -3375 (CM by (1 + sqrt(-7))/2) have a degree-2
    # endomorphism; Phi_2 is symmetric
    def phi2(x, y):
        return sum(c * x ** a * y ** b for a, b, c in PHI2)
    for x, y in ((1728, 287496), (0, 54000), (8000, 8000), (-3375, -3375)):
        assert phi2(x, y) == 0 and phi2(y, x) == 0
    assert sorted(PHI2) == sorted((b, a, c) for a, b, c in PHI2)


def test_cardano_splits_exactly_when_three_roots():
    # the roots of Phi_2(j, Y) in F_{p^2}, with multiplicity, against a scan
    for p in (7, 11, 13):
        F = build_extension(p, 2)
        for j in F.elements():
            e0, e1, e2 = _phi2_at(F, j)
            roots = _cubic_roots(F, e0, e1, e2)
            cubic = FqPoly(F, [e0, e1, e2, F.one])
            mult = 0
            for y in F.elements():
                # multiplicity of y: divide out Y - y while it is a root
                c = cubic
                while c.degree() > 0 and c(y) == F.zero:
                    c = c.divmod(FqPoly(F, [F.neg(y), F.one]))[0]
                    mult += 1
            if roots is None:
                assert mult < 3, (p, j)
            else:
                assert mult == 3, (p, j)
                assert all(cubic(y) == F.zero for y in roots)
                # Vieta: the roots sum to -e2 and multiply to -e0
                assert F.add(F.add(roots[0], roots[1]), roots[2]) == F.neg(e2)
                assert F.mul(F.mul(roots[0], roots[1]), roots[2]) == F.neg(e0)


def test_walk_agrees_with_hasse_exhaustive():
    # every j in F_{p^2} but 0 and 1728, every prime 7 <= p <= 59: the
    # 2-isogeny walk and the Hasse invariant give the same verdict
    primes = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
    checked = 0
    for p in primes:
        F = build_extension(p, 2)
        supersingular = 0
        for j in F.elements():
            if j == F.zero or j == F.from_int(1728):
                continue
            ss = is_supersingular(curve_with_j(F, j))
            assert supersingular_walk(F, j) == ss, (p, j)
            checked += 1
            supersingular += ss
        # Eichler-Deuring: apart from 0 and 1728 there are floor(p/12)
        # supersingular j-invariants
        assert supersingular == p // 12, p
    assert checked == 16690


def test_walk_rejects_other_degrees():
    with pytest.raises(ValueError):
        supersingular_walk(build_extension(7, 1), (3,))


def _paper_isogeny():
    cst = load_tower_constants()
    E1 = WeierstrassModel(cst.curves["E1"]["a2"], cst.curves["E1"]["a4"],
                          cst.curves["E1"]["a6"])
    E2 = WeierstrassModel(cst.curves["E2"]["a2"], cst.curves["E2"]["a4"],
                          cst.curves["E2"]["a6"])
    k4 = TowerElement.k4
    num_x = [k4(0), k4(54, 0, -18, 0), k4(30, 6, -6, -6), k4(7, 0, 0, -2)]
    den_x = [k4(74, 36, 18, 20), k4(-6, -18, -18, -6), k4(9)]
    num_y = [k4(192, 72, -72, -24), k4(142, 82, -34, -38),
             k4(63, 38, -23, -18), k4(0, 17, -11, 0)]
    den_y = [k4(760, 648, 432, 256), k4(-666, -324, -162, -180),
             k4(27, 81, 81, 27), k4(-27)]
    kernel_x = k4(Fraction(1, 3), 1, 1, Fraction(1, 3))
    return IsogenyMap(E1, E2, num_x, den_x, num_y, den_y, 3, kernel_x)


def test_isogeny_sampled():
    phi = _paper_isogeny()
    res = verify_isogeny(phi, mode="sampled", primes=(31, 41, 79), points_per_prime=50)
    assert res["ok"]
    assert res["points_checked"] >= 150
    assert res["kernel_root_ok"] is True


def test_isogeny_symbolic():
    phi = _paper_isogeny()
    res = verify_isogeny(phi, mode="symbolic")
    assert res["ok"]


def test_isogeny_wrong_target_fails():
    cst = load_tower_constants()
    phi = _paper_isogeny()
    bad_target = phi.target.quadratic_twist(TowerElement.rational(3))
    bad = IsogenyMap(phi.source, bad_target, phi.num_x, phi.den_x,
                     phi.num_y, phi.den_y, 3, phi.kernel_x)
    res = verify_isogeny(bad, mode="sampled", primes=(31,), points_per_prime=10)
    assert not res["ok"]
    assert "witness" in res


def test_identity_map_symbolic():
    z = TowerElement.rational(0)
    E = WeierstrassModel.short(TowerElement.rational(1), TowerElement.rational(1))
    ident = IsogenyMap(E, E, [z, TowerElement.rational(1)], [TowerElement.rational(1)],
                       [TowerElement.rational(1)], [TowerElement.rational(1)], 1)
    assert verify_isogeny(ident, mode="symbolic")["ok"]


def test_reduce_rejects_a_denominator_divisible_by_p():
    emb = SplitEmbedding.enumerate_k4(31)[0]
    assert WeierstrassModel.short(Fraction(1, 2), 1).reduce(emb).a4 == (16,)
    # 1/31 has no image in F_31
    with pytest.raises(ValueError, match="divisible by p = 31"):
        WeierstrassModel.short(Fraction(1, 31), 1).reduce(emb)
