"""Acceptance criteria, one test per numbered item.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is exact integer/fraction equality; runtime
targets are asserted with wall clocks.
"""

import random
import time
from fractions import Fraction

import pytest

from dyk3 import models
from dyk3.ffield import build_extension
from dyk3.fixtures import load_gram, load_surface, load_tower_constants
from dyk3.surface import count_smooth, count_via_fibration, three_way_counts


def _line(num, ok, msg):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, msg


def test_criterion_1_van_luijk():
    from dyk3.weil import (artin_tate_sqclass, solve_transcendental,
                           transcendental_traces, van_luijk)
    t0 = time.time()
    specs = {}
    for p in (31, 71):
        c1 = three_way_counts(p, 1)["count_smooth"]
        c2 = three_way_counts(p, 2)["count_smooth"]
        mu1, mu2 = transcendental_traces(c1, c2, p)
        specs[p] = solve_transcendental(mu1, mu2, p)
    elapsed = time.time() - t0
    ok = (specs[31].rho == 20 and specs[71].rho == 20
          and artin_tate_sqclass(specs[31]) == 3
          and artin_tate_sqclass(specs[71]) == 35
          and van_luijk(specs[31], specs[71]) == 19
          and elapsed < 60)
    _line(1, ok, f"rho=20/20, square classes 3/35, bound 19, {elapsed:.1f}s")


def test_criterion_2_three_way_agreement():
    from dyk3.siverify import predict_counts
    from dyk3.numfield import SplitEmbedding
    results = []
    for p in (11, 31, 41, 71, 79):
        split = SplitEmbedding.splits_k4(p)
        pred = predict_counts(p) if split else None
        for n in (1, 2):
            r = three_way_counts(p, n)
            agree = r["agree"]
            if pred is not None:
                want = pred.count1 if n == 1 else pred.count2
                agree = agree and r["count_smooth"] == want
            results.append(((p, n), agree))
    ok = all(a for _, a in results)
    _line(2, ok, "count_smooth = count_via_fibration (= prediction at split "
          f"primes) for {[k for k, _ in results]}")


def test_criterion_3_lattice_suite():
    from dyk3.lattice import (GramLattice, discriminant_group,
                              index2_overlattice_candidates, kernel_relation,
                              rank_det, apply_basis_change,
                              direct_sum_split_check)
    lam = load_gram("lambda24")
    L = GramLattice.from_fixture(lam)
    r, d = rank_det(L)
    ok = r == 19 and abs(d) == 24 and discriminant_group(L) == [2, 2, 6]
    cands = index2_overlattice_candidates(L)["candidates"]
    ok = ok and len(cands) == 2
    fib = load_gram("fibration_gram")
    Lf = GramLattice.from_fixture(fib)
    rf, _ = rank_det(Lf)
    ok = ok and rf == 19
    rad = kernel_relation(Lf)
    expected = {"a1": 1, "a2": 2, "a3": 3, "a4": 4, "a5": 5, "a6": 4,
                "a7": 3, "a8": 2, "a9": 1, "inf1": 1, "ep": 1, "em": 1,
                "T": 2, "P": 0, "O": -2, "F": -4,
                "b1": 0, "b2": 0, "b3": 0, "m1": 0}
    want = [expected[l] for l in fib.labels]
    ok = ok and len(rad) == 1 and (rad[0] == want or rad[0] == [-x for x in want])
    keep = [l for l in fib.labels if l != "inf1"]
    idx = {l: i for i, l in enumerate(fib.labels)}
    B0 = GramLattice(keep, [[fib.gram[idx[a]][idx[b]] for b in keep]
                            for a in keep])
    r0, d0 = rank_det(B0)
    ok = ok and r0 == 19 and abs(d0) == 24
    rows = []
    for l in keep:
        row = [0] * Lf.n
        row[idx[l]] = 1
        if l in ("P", "T"):
            row[idx["O"]] -= 1
            row[idx["F"]] -= 2
        rows.append(row)
    M = apply_basis_change(Lf, rows)
    part_u = [keep.index("F"), keep.index("O")]
    part_l = [i for i in range(len(keep)) if i not in part_u]
    ok = ok and direct_sum_split_check(M, [part_l, part_u])
    Lblock = GramLattice([keep[i] for i in part_l], M.submatrix(part_l))
    rl, dl = rank_det(Lblock)
    ok = ok and (rl, abs(dl)) == (17, 24)
    _line(3, ok, "Lambda: rank 19, |disc| 24, group (2,2,6), 2 overlattice "
          "candidates; fibration: relation vector, |det B0| = 24, L + U split")


def test_criterion_3b_candidates_galois_swapped():
    # the two index-2 classes are exchanged by the sqrt5-conjugation
    import tests.test_picard_fixture as tpf
    tpf.test_lambda24_index2_candidates_swapped_by_galois()
    _line("3b", True, "index-2 candidate pair is Galois-swapped")


def test_criterion_4_galois_cohomology():
    import tests.test_picard_fixture as tpf
    import tests.test_lattice as tl
    tl.test_c2_cohomology_picard_module()
    tpf.test_lambda24_galois_cohomology()
    _line(4, True, "(H0, H1, H2) = (Z^18, 0, (Z/2)^17) in both presentations;"
          " Br quotient trivial")


def test_criterion_5_tate_tables():
    from dyk3.tate import analyze_quartic_double_cover
    t0 = time.time()
    e1 = models.e1_surface()
    tab1 = {("inf" if p.infinity else tuple(map(str, p.poly.coeffs))):
            f.kodaira for p, f in e1.bad_fibres()}
    ok = (tab1["inf"] == "I6" and tab1[("0", "1")] == "I6"
          and tab1[("-1", "1")] == "I0*" and tab1[("1", "1")] == "I2"
          and tab1[("1", "8", "-2", "8", "1")] == "I1")
    e2 = models.e2_surface()
    tab2 = {("inf" if p.infinity else tuple(map(str, p.poly.coeffs))):
            (f.kodaira, p.degree) for p, f in e2.bad_fibres()}
    ok = ok and (tab2[("0", "1")] == ("I10", 1) and tab2["inf"] == ("I2", 1)
                 and tab2[("-1", "1", "1")] == ("I2", 2)
                 and tab2[("-1", "1")] == ("I4", 1)
                 and tab2[("1", "1")] == ("I2", 1)
                 and tab2[("1/9", "2/9", "1")] == ("I1", 2))
    ok = ok and sum(f.vdelta * p.degree for p, f in e1.bad_fibres()) == 24
    ok = ok and sum(f.vdelta * p.degree for p, f in e2.bad_fibres()) == 24
    res = analyze_quartic_double_cover(models.third_fibration_quartic())
    syms = sorted(sym for _, sym, _ in res["t_table"])
    i1_deg = sum(p.degree for p, sym, _ in res["t_table"] if sym == "I1")
    ok = ok and syms.count("II*") == 2 and i1_deg == 4
    ok = ok and res["t_locus"] == models.third_fibration_i1_quartic().monic()
    ok = ok and res["total_vdelta"] == 24
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    _line(5, ok, f"E1/E2/base-changed-third tables exact, sums 24, {elapsed:.1f}s")


def test_criterion_6_mordell_weil():
    from dyk3.tate import (min_positive_height_on_grid, mw_height,
                           shioda_tate_disc, torsion_two_divisibility,
                           trivial_lattice_disc)
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    T, P3 = models.e2_sections(E2)
    ok = mw_height(E2, P3, bad) == Fraction(3, 20)
    ok = ok and mw_height(E2, T, bad) == 0
    dtriv = trivial_lattice_disc(bad)
    ok = ok and dtriv == -640
    ok = ok and shioda_tate_disc(1, dtriv, Fraction(3, 20), 2) == 24
    ok = ok and torsion_two_divisibility(E2, T)["two_divisible"] is False
    _line(6, ok, "heights 3/20 and 0, Shioda-Tate 24 from discTriv -640, "
          "(0,0) not 2-divisible")


@pytest.mark.xfail(strict=True,
                   reason="the stated grid minimum 1/20 is arithmetically "
                   "unattainable: 20h = 2 a0^2 mod 5 can only be 0, 2, 3; "
                   "the true grid minimum is 1/10 (see the decisions ledger)")
def test_criterion_6e_grid_minimum_as_stated():
    from dyk3.tate import min_positive_height_on_grid
    E2 = models.e2_surface()
    m = min_positive_height_on_grid(E2.bad_fibres())
    print(f"ACCEPTANCE 6e: FAIL - grid minimum computed {m}, stated 1/20")
    assert m == Fraction(1, 20)


def test_criterion_7_supersingular_sieve():
    from dyk3.sscan import ScanConfig, scan
    cst = load_tower_constants()
    t0 = time.time()
    rep = scan(ScanConfig(cst.j_min_poly, 7, 3500))
    elapsed = time.time() - t0
    expected = [p for p in cst.supersingular_primes if p <= 3500]
    ok = rep.primes == expected and elapsed < 300
    _line(7, ok, f"scan [7,3500] = paper list ({len(expected)} primes), "
          f"{elapsed:.1f}s")


def test_criterion_8_shioda_inose_system():
    from dyk3.elliptic import WeierstrassModel
    from dyk3.numfield import verify_si_system
    from tower_oracle import minimal_polynomial_over_Q
    cst = load_tower_constants()
    rep = verify_si_system(cst.A, cst.a, cst.b, cst.c, cst.d)
    ok = all(e["zero"] for e in rep)
    Eab = WeierstrassModel.short(cst.a, cst.b)
    Ecd = WeierstrassModel.short(cst.c, cst.d)
    E1 = WeierstrassModel(cst.curves["E1"]["a2"],
                          cst.curves["E1"]["a4"],
                          cst.curves["E1"]["a6"])
    E2 = WeierstrassModel(cst.curves["E2"]["a2"],
                          cst.curves["E2"]["a4"],
                          cst.curves["E2"]["a6"])
    ok = ok and Eab.j_invariant() == E1.j_invariant()
    ok = ok and Ecd.j_invariant() == E2.j_invariant()
    mp = minimal_polynomial_over_Q(E1.j_invariant())
    ok = ok and [c for c in mp] == [Fraction(c) for c in cst.j_min_poly]
    _line(8, ok, "five equations vanish; j(E(a,b)) = j(E1), j(E(c,d)) = j(E2);"
          " min poly matches coefficient-for-coefficient")


def test_criterion_9_isogeny():
    from dyk3.elliptic import verify_isogeny
    from tests.test_elliptic import _paper_isogeny
    phi = _paper_isogeny()
    res = verify_isogeny(phi, mode="sampled", primes=(31, 41, 79),
                         points_per_prime=50)
    ok = res["ok"] and res["points_checked"] >= 150 and res["kernel_root_ok"]
    _line(9, ok, f"degree-3 map verified at {res['points_checked']} points "
          "across 3 split primes; kernel x annihilates the denominator")


def test_criterion_10a_search_unconditional():
    from census_oracle import brute_force_fibres
    from dyk3.kodaira import CurveSet, find_fibres
    rng = random.Random(116)
    ok = True
    for trial in range(200):
        n = rng.randrange(3, 10)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = -2
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.random()
                v = 0 if r < 0.55 else (1 if r < 0.92 else 2)
                g[i][j] = g[j][i] = v
        S = CurveSet([f"c{i}" for i in range(n)], g)
        mine = {(f.kind, f.components) for f in find_fibres(S, max_n=10)}
        oracle = {(f.kind, f.components) for f in brute_force_fibres(S, max_n=10)}
        ok = ok and mine == oracle
    import tests.test_kodaira as tk
    tk.test_partial_fixture_detects_lemma_fibres()
    _line("10a", ok, "200-set exhaustive-oracle equality; lemma configurations "
          "detected in the partial fixture")


def test_criterion_10b_census_counts():
    from dyk3.kodaira import (CurveSet, find_fibres, group_fibrations,
                              orbit_count)
    from dyk3.picard_fixture import _mirror_label
    t0 = time.time()
    fix = load_gram("curves34")
    S = CurveSet(fix.labels, fix.gram)
    fibres = find_fibres(S, max_n=16)
    fibs = group_fibrations(fibres, S)
    labels = fix.labels
    gal = {"L3": "L4", "L4": "L3", "C1": "C2", "C2": "C1",
           "Lt3": "Lt4", "Lt4": "Lt3", "Ct1": "Ct2", "Ct2": "Ct1"}
    gens = [[labels.index(_mirror_label(l)) for l in labels],
            [labels.index(gal.get(l, l)) for l in labels]]
    counts = (len(fibres), len(fibs),
              sum(1 for f in fibs if f.has_section_in_set),
              orbit_count(fibs, gens, S),
              orbit_count(fibs, gens, S, predicate=lambda f: f.has_section),
              orbit_count(fibs, gens, S,
                          predicate=lambda f: f.has_section_in_set))
    elapsed = time.time() - t0
    ok = counts == (105856, 104600, 86416, 29111, 27807, 24270) \
        and elapsed < 600
    _line("10b", ok, f"census counts {counts} on the derived 34-curve matrix, "
          f"{elapsed:.0f}s")
