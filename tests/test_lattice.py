import random

import pytest

from dyk3.fixtures import load_gram
from dyk3.lattice import (GramLattice, apply_basis_change, bareiss_det,
                          c2_cohomology, direct_sum_split_check,
                          discriminant_group, index2_overlattice_candidates,
                          kernel_relation, matrix_rank, rank_det, smith,
                          span_action, span_basis, _matmul)


def U_lattice():
    return GramLattice(["x", "y"], [[0, 1], [1, 0]])


def test_rank_det_basics():
    A1 = GramLattice(["e"], [[-2]])
    assert rank_det(A1) == (1, -2)
    assert rank_det(U_lattice()) == (2, -1)


def test_smith_examples():
    assert smith([[2, 0], [0, 6]]).elementary_divisors == [2, 6]
    assert smith([[2, 0], [0, 3]]).elementary_divisors == [6]
    d = smith([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]).d
    assert d == [2, 6, 12] or d[0] > 0


def test_smith_construct_then_solve():
    rng = random.Random(14)
    for _ in range(8):
        n = 6
        D = [[0] * n for _ in range(n)]
        chain = [1, 2, 4, 12, 24, 0]
        for i in range(n):
            D[i][i] = chain[i]
        # random unimodular transforms built from elementary operations
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        V = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(20):
            i, j = rng.sample(range(n), 2)
            k = rng.randrange(-3, 4)
            for r in range(n):
                U[i][r] += k * U[j][r]
            i, j = rng.sample(range(n), 2)
            k = rng.randrange(-3, 4)
            for r in range(n):
                V[r][i] += k * V[r][j]
        M = _matmul(_matmul(U, D), V)
        got = [x for x in smith(M).d if x != 0]
        assert got == [1, 2, 4, 12, 24]


def test_disc_group_examples():
    assert discriminant_group(GramLattice(["e"], [[-2]])) == [2]
    assert discriminant_group(U_lattice()) == []


def fibration_lattice():
    fix = load_gram("fibration_gram")
    return fix, GramLattice.from_fixture(fix)


def test_fibration_rank_and_relation():
    fix, L = fibration_lattice()
    rank, _ = rank_det(L)
    assert rank == 19
    rad = kernel_relation(L)
    assert len(rad) == 1
    v = rad[0]
    expected = {"a1": 1, "a2": 2, "a3": 3, "a4": 4, "a5": 5, "a6": 4,
                "a7": 3, "a8": 2, "a9": 1, "inf1": 1, "ep": 1, "em": 1,
                "T": 2, "P": 0, "O": -2, "F": -4,
                "b1": 0, "b2": 0, "b3": 0, "m1": 0}
    want = [expected[l] for l in fix.labels]
    assert v == want or v == [-x for x in want]


def test_fibration_b0_determinant():
    fix, L = fibration_lattice()
    idx = [i for i, l in enumerate(fix.labels) if l != "inf1"]
    B0 = GramLattice([fix.labels[i] for i in idx], L.submatrix(idx))
    rank, det = rank_det(B0)
    assert rank == 19
    assert abs(det) == 24
    assert discriminant_group(B0) == [2, 2, 6]


def test_fibration_split_L_plus_U():
    fix, L = fibration_lattice()
    labels = fix.labels
    idx = {l: i for i, l in enumerate(labels)}
    keep = [l for l in labels if l != "inf1"]
    # basis change: replace P -> P - O - 2F and T -> T - O - 2F
    rows = []
    for l in keep:
        row = [0] * L.n
        row[idx[l]] = 1
        if l in ("P", "T"):
            row[idx["O"]] -= 1
            row[idx["F"]] -= 2
        rows.append(row)
    M = apply_basis_change(L, rows)
    part_u = [keep.index("F"), keep.index("O")]
    part_l = [i for i in range(len(keep)) if i not in part_u]
    assert direct_sum_split_check(M, [part_l, part_u])
    Lblock = GramLattice([keep[i] for i in part_l], M.submatrix(part_l))
    Ublock = GramLattice([keep[i] for i in part_u], M.submatrix(part_u))
    rl, dl = rank_det(Lblock)
    ru, du = rank_det(Ublock)
    assert (rl, dl) == (17, -24)
    assert (ru, du) == (2, -1)
    # negative definite: all leading minors of -G positive
    neg = [[-x for x in row] for row in Lblock.gram]
    for k in range(1, 18):
        sub = [row[:k] for row in neg[:k]]
        assert bareiss_det(sub) > 0


def test_split_check_counterexample():
    assert not direct_sum_split_check(U_lattice(), [[0], [1]])
    diag = GramLattice(["a", "b"], [[2, 0], [0, 4]])
    assert direct_sum_split_check(diag, [[0], [1]])
    with pytest.raises(ValueError):
        direct_sum_split_check(diag, [[0]])


def test_index2_candidates_fibration():
    fix, L = fibration_lattice()
    res = index2_overlattice_candidates(L)
    cands = res["candidates"]
    assert len(cands) == 2
    # swapped by the Galois transposition ep <-> em
    basis = res["basis"]
    perm = fix.galois_permutation()
    # express sigma on the span basis: conjugate the permutation matrix
    n = L.n
    sig = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    # map candidates back to 24-vector representatives and compare mod 2
    reps = []
    for cand in cands:
        vec = [sum(cand[i] * basis[i][j] for i in range(len(basis))) % 2
               for j in range(n)]
        reps.append(vec)
    imgs = []
    for vec in reps:
        img = [vec[perm[j]] % 2 for j in range(n)]
        imgs.append(img)
    # sigma permutes the two candidate classes nontrivially... compare the
    # image classes with the original ones modulo 2L: use Gram pairings as a
    # class invariant, and check the set of classes is preserved and swapped
    def pairing_profile(vec):
        return tuple(sum(L.gram[i][j] * vec[j] for j in range(n)) % 4
                     for i in range(n))
    orig = {pairing_profile(v) for v in reps}
    image = {pairing_profile(v) for v in imgs}
    assert orig == image
    assert reps[0] != imgs[0] or reps[1] != imgs[1]


def test_index2_unimodular_empty():
    res = index2_overlattice_candidates(U_lattice())
    assert res["candidates"] == []


def test_c2_cohomology_trivial_and_regular():
    n = 4
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    h0, h1, h2 = c2_cohomology(None, ident)
    assert h0 == n and h1 == [] and h2 == [2] * n
    swap = [[0, 1], [1, 0]]
    assert c2_cohomology(None, swap) == (1, [], [])


def test_c2_cohomology_picard_module():
    fix, L = fibration_lattice()
    idx = [i for i, l in enumerate(fix.labels) if l != "inf1"]
    B0 = GramLattice([fix.labels[i] for i in idx], L.submatrix(idx))
    labels = [fix.labels[i] for i in idx]
    e1, e2 = labels.index("ep"), labels.index("em")
    n = len(labels)
    sigma = [[int(i == j) for j in range(n)] for i in range(n)]
    sigma[e1][e1] = sigma[e2][e2] = 0
    sigma[e1][e2] = sigma[e2][e1] = 1
    h0, h1, h2 = c2_cohomology(B0.gram, sigma)
    assert h0 == 18
    assert h1 == []
    assert h2 == [2] * 17


def test_c2_cohomology_block_sums():
    rng = random.Random(15)
    for _ in range(5):
        # random block modules: permutation blocks of size 1 or 2
        blocks = []
        for _ in range(rng.randrange(2, 5)):
            if rng.random() < 0.5:
                blocks.append([[rng.choice([1, -1])]])
            else:
                blocks.append([[0, 1], [1, 0]])
        n = sum(len(b) for b in blocks)
        sigma = [[0] * n for _ in range(n)]
        at = 0
        parts = []
        for b in blocks:
            k = len(b)
            for i in range(k):
                for j in range(k):
                    sigma[at + i][at + j] = b[i][j]
            parts.append((at, k, b))
            at += k
        h = c2_cohomology(None, sigma)
        h0 = sum(c2_cohomology(None, b)[0] for b in blocks)
        h1 = sum((c2_cohomology(None, b)[1] for b in blocks), [])
        h2 = sum((c2_cohomology(None, b)[2] for b in blocks), [])
        assert h[0] == h0
        assert sorted(h[1]) == sorted(h1)
        assert sorted(h[2]) == sorted(h2)


def test_sigma_must_be_involution():
    with pytest.raises(ValueError):
        c2_cohomology(None, [[1, 1], [0, 1]])


def test_radical_block_additivity():
    deg = [[2, 4], [4, 8]]  # rank 1, radical rank 1
    L1 = GramLattice(["a", "b"], deg)
    assert len(kernel_relation(L1)) == 1
    block = [[2, 4, 0, 0], [4, 8, 0, 0], [0, 0, 2, 4], [0, 0, 4, 8]]
    L2 = GramLattice(list("abcd"), block)
    assert len(kernel_relation(L2)) == 2
    nondeg = GramLattice(["x"], [[-2]])
    assert kernel_relation(nondeg) == []


def test_span_action():
    # a - b spans the radical, so the span basis is (b, c)
    L = GramLattice(["a", "b", "c"], [[2, 2, 1], [2, 2, 1], [1, 1, -2]])
    red = [[2, 1], [1, -2]]
    assert span_action(L, [0, 1, 2]) == (red, [[1, 0], [0, 1]])
    assert span_action(L, [0, 2, 1]) == (red, [[0, 1], [1, 0]])
    # a -> c, b -> a: the image a of the basis row b leaves the span
    assert span_action(L, [2, 0, 1]) is None


def test_span_action_works_modulo_the_radical():
    # swapping a and b is an isometry and fixes L/rad, though the image a of
    # the span-basis row b lies outside the span of (b, c) inside Z^3
    L = GramLattice(["a", "b", "c"], [[2, 2, 1], [2, 2, 1], [1, 1, -2]])
    red, sig = span_action(L, [1, 0, 2])
    assert (red, sig) == ([[2, 1], [1, -2]], [[1, 0], [0, 1]])
    assert c2_cohomology(red, sig) == (2, [], [2, 2])


def test_span_basis_reduces_correctly():
    fix, L = fibration_lattice()
    basis = span_basis(L)
    assert len(basis) == 19
    from dyk3.lattice import _reduced_gram
    red = _reduced_gram(L, basis)
    assert matrix_rank(red) == 19
    assert abs(bareiss_det(red)) == 24
    sub = GramLattice([f"v{i}" for i in range(19)], red)
    assert discriminant_group(sub) == [2, 2, 6]
    assert discriminant_group(L) == [2, 2, 6]


def _degenerate_gram(rng, n, m):
    """The Gram of n random vectors in Z^m under a random symmetric form:
    of rank at most m, so degenerate for m < n."""
    B = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            B[i][j] = B[j][i] = rng.randrange(-3, 4)
    vs = [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(n)]
    return _matmul(_matmul(vs, B), [list(c) for c in zip(*vs)])


def _invariants(lib, L, perms):
    """Every invariant the one-split lattice code changed, as lib computes it;
    a raised error stands for its message."""
    out = []
    for f in (lib.rank_det, lib.discriminant_group, lib.span_basis,
              lib.index2_overlattice_candidates,
              *[lambda L, p=p: lib.span_action(L, p) for p in perms]):
        try:
            out.append(f(L))
        except (ValueError, AssertionError) as exc:
            out.append(repr(exc))
    return out


def test_one_split_invariants_match_the_parent_code():
    import lattice_oracle
    import dyk3.lattice as lib
    cases = []
    for name in ("curves34", "lambda24", "lemma_partial"):
        fix = load_gram(name)
        perms = [fix.galois_permutation() if fix.meta.get("galois-swap")
                 else list(range(len(fix.labels)))]
        cases.append((GramLattice.from_fixture(fix), perms))
    rng = random.Random(27)
    for _ in range(40):
        n = rng.randrange(1, 8)
        g = _degenerate_gram(rng, n, rng.randrange(1, n + 2))
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append((GramLattice([f"g{i}" for i in range(n)], g),
                      [list(range(n)), perm]))
    degenerate = 0
    for k, (L, perms) in enumerate(cases):
        assert _invariants(lib, L, perms) == \
            _invariants(lattice_oracle, L, perms), k
        degenerate += bool(lattice_oracle.kernel_relation(L))
    assert degenerate > 15
    # the empty lattice, whose radical the parent code could not split
    E = GramLattice([], [])
    for f in (rank_det, discriminant_group, index2_overlattice_candidates):
        assert f(E) == getattr(lattice_oracle, f.__name__)(E)
    assert span_basis(E) == [] and span_action(E, []) == ([], [])


def test_smith_builds_the_inverse_of_V_when_read():
    rng = random.Random(28)
    for _ in range(20):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        snf = smith(M)
        assert "V_inv" not in vars(snf)
        ident = [[int(i == j) for j in range(cols)] for i in range(cols)]
        assert _matmul(snf.V, snf.V_inv) == ident
        assert snf.V_inv is snf.V_inv


def test_rank_det_takes_the_gram_smith_form_once(monkeypatch):
    # the Bareiss cross-check reads the diagonal that the radical was read
    # off; a degenerate Gram adds only the Smith form of its radical
    import dyk3.lattice as lib
    L = GramLattice.from_fixture(load_gram("lambda24"))
    S = GramLattice([f"b{i}" for i in range(19)], lib._reduced_gram(L, span_basis(L)))
    sizes = []
    monkeypatch.setattr(lib, "smith", lambda m: sizes.append(len(m)) or smith(m))
    assert rank_det(S) == (19, bareiss_det(S.gram)) and abs(bareiss_det(S.gram)) == 24
    assert sizes == [19]
    sizes.clear()
    assert rank_det(L) == (19, 24)
    assert sizes == [24, 5]
