from fractions import Fraction

import pytest

from dyk3.fixtures import load_gram
from dyk3.lattice import (GramLattice, c2_cohomology, discriminant_group,
                          index2_overlattice_candidates, rank_det,
                          span_action, span_basis, _reduced_gram)


def test_lambda24_invariants():
    fix = load_gram("lambda24")
    L = GramLattice.from_fixture(fix)
    rank, det = rank_det(L)
    assert rank == 19
    assert abs(det) == 24
    assert discriminant_group(L) == [2, 2, 6]


def test_curves34_spans_the_same_lattice():
    fix = load_gram("curves34")
    L = GramLattice.from_fixture(fix)
    rank, det = rank_det(L)
    assert rank == 19
    assert abs(det) == 24
    assert discriminant_group(L) == [2, 2, 6]
    # every curve is a -2-curve with nonnegative mutual intersections
    for i in range(34):
        assert fix.gram[i][i] == -2
        for j in range(34):
            if i != j:
                assert fix.gram[i][j] >= 0


def _galois_perm(fix):
    perm = list(range(len(fix.labels)))
    swaps = {"L3": "L4", "L4": "L3", "C1": "C2", "C2": "C1",
             "Lt3": "Lt4", "Lt4": "Lt3", "Ct1": "Ct2", "Ct2": "Ct1"}
    for i, l in enumerate(fix.labels):
        if l in swaps:
            perm[i] = fix.labels.index(swaps[l])
    return perm


def test_lambda24_index2_candidates_swapped_by_galois():
    fix = load_gram("lambda24")
    L = GramLattice.from_fixture(fix)
    res = index2_overlattice_candidates(L)
    cands = res["candidates"]
    assert len(cands) == 2
    basis = res["basis"]
    n = L.n
    perm = _galois_perm(fix)
    reps = []
    for cand in cands:
        vec = [sum(cand[i] * basis[i][j] for i in range(len(basis))) % 2
               for j in range(n)]
        reps.append(vec)

    def profile(vec):
        return tuple(sum(L.gram[i][j] * vec[j] for j in range(n)) % 4
                     for i in range(n))

    imgs = [[vec[perm[j]] % 2 for j in range(n)] for vec in reps]
    assert {profile(v) for v in reps} == {profile(v) for v in imgs}
    # the action genuinely exchanges the two classes
    assert profile(imgs[0]) == profile(reps[1])
    assert profile(imgs[1]) == profile(reps[0])
    assert profile(reps[0]) != profile(reps[1])


def test_lambda24_galois_cohomology():
    fix = load_gram("lambda24")
    L = GramLattice.from_fixture(fix)
    perm = _galois_perm(fix)
    basis = span_basis(L)
    red = _reduced_gram(L, basis)
    # induced action on the span: solve sigma on the 19-dim quotient
    n = L.n
    P = [[int(perm[j] == i) for j in range(n)] for i in range(n)]
    # images of basis rows under sigma, re-expressed in the basis
    images = [[sum(basis[k][i] * P[i][j] for i in range(n)) for j in range(n)]
              for k in range(len(basis))]
    from dyk3.lattice import _solve_int
    sig = [[0] * 19 for _ in range(19)]
    for k, img in enumerate(images):
        sol = _solve_int(basis, img)
        assert sol is not None
        for i in range(19):
            sig[i][k] = sol[i]
    h0, h1, h2 = c2_cohomology(red, sig)
    assert h0 == 18
    assert h1 == []
    assert h2 == [2] * 17
    # the action the CLI builds agrees with this permutation-matrix one
    assert span_action(L, perm) == (red, sig)


def test_rederivation_matches_fixture():
    # the derivation pipeline reproduces the shipped fixtures exactly
    from dyk3.picard_fixture import derive_matrices
    res = derive_matrices()
    fix34 = load_gram("curves34")
    assert fix34.labels == list(res["labels34"])
    assert [list(r) for r in fix34.gram] == res["gram34"]
    fix24 = load_gram("lambda24")
    assert fix24.labels == list(res["labels24"])
    assert [list(r) for r in fix24.gram] == res["gram24"]


def test_branches_lie_on_their_curves_and_split_the_sextic():
    # along every branch through a singular point, q(u, v) = 0 and
    # f(u, v) = h(u, v)^2 to the truncation order
    from dyk3 import picard_fixture as pf
    curves = pf.build_curves()
    by_name = {c.name: c for c in curves}
    for _, _, point in pf.SING_POINTS:
        base = pf._affine_chart(point)
        Floc, branches = pf.branches_at_point(curves, point)
        assert branches
        for name, u, v, h in branches:
            qloc = pf._localize(by_name[name].q, base)
            assert pf._poly2_eval_series(qloc, u, v).is_zero()
            assert pf._poly2_eval_series(Floc, u, v) == pf._tmul(h, h)


def test_param_germ_solves_a_branch_quadratic_in_both_coordinates():
    # every bundled curve is linear in the coordinate it is solved for, where
    # one Newton step is exact; the circle u^2 + v^2 + v = 0 is not
    from dyk3 import picard_fixture as pf
    one = pf.ONE
    for q in ({(2, 0): one, (0, 2): one, (0, 1): one},
              {(2, 0): one, (0, 2): one, (1, 0): one}):
        u, v = pf._param_germ(q)
        assert pf._poly2_eval_series(q, u, v).is_zero()
        assert min(pf._ord(u), pf._ord(v)) == 1


def test_node_meet_reads_both_coordinates():
    # two germs landing on the same point of an A1 exceptional curve meet
    # upstairs with multiplicity min(ord(vA - vB), ord(wA - wB)) - 1
    from dyk3 import picard_fixture as pf
    F = {(2, 0): pf.ONE, (0, 2): -pf.ONE}
    s = pf.S
    gA = pf.Germ("A+", s, s + s ** 2)
    for vB, wB, meet in ((s + s ** 4, s + s ** 3, 1),
                         (s + s ** 4, s + s ** 2 + s ** 5, 3)):
        landings, meets = pf.analyze_singularity(F, [gA, pf.Germ("B+", vB, wB)])
        assert landings["A+"] == landings["B+"]
        assert meets == {("A+", "B+"): meet}


def test_derived_agrees_with_partial_everywhere():
    part = load_gram("lemma_partial")
    full = load_gram("curves34")
    fi = {l: i for i, l in enumerate(full.labels)}
    pi = {l: i for i, l in enumerate(part.labels)}
    for a in part.labels:
        for b in part.labels:
            v = part.gram[pi[a]][pi[b]]
            if a != b and v:
                assert full.gram[fi[a]][fi[b]] == v, (a, b)


def test_lemma_configs_are_fibres_of_full_matrix():
    # the displayed fibres all pass the D.D = 0, D.C = 0 test on the
    # derived matrix, including the two E8-tilde divisors with their stated
    # multiplicities and the section/evenness claims
    from dyk3.kodaira import CurveSet, fibre_key
    fix = load_gram("curves34")
    S = CurveSet(fix.labels, fix.gram)
    lab = {l: i for i, l in enumerate(fix.labels)}

    def comps(pairs):
        return tuple(sorted((lab[n], m) for n, m in pairs))

    e8_i = comps([("E4m2", 6), ("E4m1", 5), ("E4p1", 4), ("L6", 4),
                  ("Lt3", 3), ("L5", 3), ("E11", 2), ("E2p1", 2),
                  ("E2m1", 1)])
    assert S.check_config(e8_i)
    e8_ii = comps([("Lt2", 6), ("E5m2", 5), ("E5m1", 4), ("E30", 4),
                   ("L4", 3), ("E5p1", 3), ("E3m1", 2), ("E5p2", 2),
                   ("L7", 1)])
    assert S.check_config(e8_ii)
    # no sections: every pairing of the E8 fibre with the curve set is even
    from dyk3.kodaira import FibreConfig
    key = fibre_key(S, FibreConfig("E8", e8_i))
    assert all(v % 2 == 0 for v in key)
    # the three fibres of the first fibration share one key
    i6a = comps([("L1", 1), ("E2p1", 1), ("E2m1", 1), ("Lt1", 1),
                 ("E5m1", 1), ("E5p1", 1)])
    i6b = comps([("Lt7", 1), ("L7", 1), ("E4p2", 1), ("E4p1", 1),
                 ("E4m1", 1), ("E4m2", 1)])
    d4 = comps([("L2", 1), ("Lt2", 1), ("E3m1", 1), ("E3p1", 1), ("E30", 2)])
    keys = {fibre_key(S, FibreConfig("I6", i6a)),
            fibre_key(S, FibreConfig("I6", i6b)),
            fibre_key(S, FibreConfig("D4", d4))}
    assert len(keys) == 1
    # its sections: exactly the curves stated in the fibre-data lemma
    key = keys.pop()
    secs = {fix.labels[i] for i, v in enumerate(key) if v == 1}
    stated = {"L3", "Lt3", "L4", "Lt4", "L5", "Lt5", "L6", "Lt6",
              "C1", "Ct1", "C2", "Ct2", "C3", "Ct3", "E5m2", "E5p2"}
    assert secs == stated
    # second fibration: stated section list
    i10 = comps([("L6", 1), ("L1", 1), ("E5p1", 1), ("E5m1", 1), ("Lt1", 1),
                 ("Lt6", 1), ("E4p2", 1), ("E4p1", 1), ("E4m1", 1),
                 ("E4m2", 1)])
    assert S.check_config(i10)
    key_b = fibre_key(S, FibreConfig("I10", i10))
    secs_b = {fix.labels[i] for i, v in enumerate(key_b) if v == 1}
    assert secs_b == {"L5", "Lt5", "L7", "Lt7", "E2p1", "E2m1",
                      "E3p1", "E3m1", "E5p2", "E5m2"}


@pytest.mark.slow
def test_full_census_counts():
    from dyk3.kodaira import CurveSet, find_fibres, group_fibrations, orbit_count
    fix = load_gram("curves34")
    S = CurveSet(fix.labels, fix.gram)
    fibres = find_fibres(S, max_n=16)
    assert len(fibres) == 105856
    kinds = {}
    for f in fibres:
        kinds.setdefault(f.kind[0] if not f.kind[1:].isdigit() else "I", set())
    i_ns = sorted(int(f.kind[1:]) for f in fibres
                  if f.kind.startswith("I") and f.kind[1:].isdigit())
    assert set(i_ns) == set(range(2, 15)) | {16}
    d_ns = sorted({int(f.kind[1:]) for f in fibres if f.kind.startswith("D")})
    assert set(d_ns) == set(range(4, 11)) | {12, 14, 16}
    assert {f.kind for f in fibres if f.kind.startswith("E")} == {"E6", "E7", "E8"}
    fibs = group_fibrations(fibres, S)
    assert len(fibs) == 104600
    assert sum(1 for f in fibs if f.has_section_in_set) == 86416
    labels = fix.labels

    def perm_of(mapping):
        return [labels.index(mapping.get(l, l)) for l in labels]

    from dyk3.picard_fixture import _mirror_label
    mirror = {l: _mirror_label(l) for l in labels}
    gal = {"L3": "L4", "L4": "L3", "C1": "C2", "C2": "C1",
           "Lt3": "Lt4", "Lt4": "Lt3", "Ct1": "Ct2", "Ct2": "Ct1"}
    gens = [perm_of(mirror), perm_of(gal)]
    assert orbit_count(fibs, gens, S) == 29111
    assert orbit_count(fibs, gens, S, predicate=lambda f: f.has_section) == 27807
    assert orbit_count(fibs, gens, S,
                       predicate=lambda f: f.has_section_in_set) == 24270
