import gc
import random
from math import gcd

import numpy as np
import pytest

import census_oracle
from census_oracle import (_chordless_cycles, _e_type, _neighbors,
                           _nonzero_masks, brute_force_fibres, find_sections,
                           walk_fibres)
from dyk3.fixtures import load_gram
from dyk3.kodaira import (_E_ARMS, CurveSet, FibreConfig, Fibrations,
                          _config_divisors, _configs, _e_rows, _Graph,
                          _generated_group, _keys, fibre_key, find_fibres,
                          group_fibrations, orbit_count)
from dyk3.picard_fixture import _mirror_label


# Reference keys, grouping and orbit canonicalisation: the pure-Python
# code that the int8 key matrix replaced, kept to test against.

def ref_fibre_key(S, cfg):
    g = S.gram
    return tuple(sum(g[i][j] * m for j, m in cfg.components)
                 for i in range(S.n))


def ref_group_fibrations(fibres, S):
    """[(key, fibres)] sorted by key; fibres sharing a key must be disjoint."""
    groups = {}
    for cfg in fibres:
        groups.setdefault(ref_fibre_key(S, cfg), []).append(cfg)
    for cfgs in groups.values():
        for a in range(len(cfgs)):
            da = cfgs[a].divisor(S.n)
            for b in range(a + 1, len(cfgs)):
                db = cfgs[b].divisor(S.n)
                if sum(da[i] * S.gram[i][j] * db[j]
                       for i in range(S.n) for j in range(S.n)):
                    raise ValueError("key collision with nonzero intersection")
    return sorted(groups.items(), key=lambda kv: kv[0])


def ref_has_section(key):
    g = 0
    for v in key:
        if v:
            g = gcd(g, v)
    return g == 1


def ref_orbit_count(keys, generators, n):
    group = _generated_group(generators, n)
    return len({min(tuple(key[p[i]] for i in range(n)) for p in group)
                for key in keys})


def random_gram(rng, n):
    """The criterion-10a generator: -2 diagonal, off-diagonal 0, 1 or 2."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        for j in range(i + 1, n):
            r = rng.random()
            g[i][j] = g[j][i] = 0 if r < 0.55 else (1 if r < 0.92 else 2)
    return g


def wide_gram(rng, n):
    """n curves: criterion-10a blocks of 4 to 8 curves along the diagonal,
    joined by n // 4 random unit edges, so that masks exceed 63 bits."""
    g = [[0] * n for _ in range(n)]
    a = 0
    while a < n:
        b = min(n, a + rng.randrange(4, 9))
        for i, row in enumerate(random_gram(rng, b - a)):
            g[a + i][a:b] = row
        a = b
    for _ in range(n // 4):
        i, j = rng.sample(range(n), 2)
        g[i][j] = g[j][i] = 1
    return g


@pytest.fixture(scope="module")
def census34():
    """The curves34 census and its walk oracle, shared by this module."""
    fix = load_gram("curves34")
    S = CurveSet(fix.labels, fix.gram)
    return S, find_fibres(S), walk_fibres(S)


def triangle():
    return CurveSet(["a", "b", "c"],
                    [[-2, 1, 1], [1, -2, 1], [1, 1, -2]])


def test_triangle_is_one_i3():
    fibres = find_fibres(triangle())
    assert len(fibres) == 1
    assert fibres[0].kind == "I3"


def test_i2_pair():
    S = CurveSet(["a", "b"], [[-2, 2], [2, -2]])
    fibres = find_fibres(S)
    assert len(fibres) == 1 and fibres[0].kind == "I2"


def test_d4_tilde():
    labels = list("cabde")
    g = [[-2, 1, 1, 1, 1],
         [1, -2, 0, 0, 0],
         [1, 0, -2, 0, 0],
         [1, 0, 0, -2, 0],
         [1, 0, 0, 0, -2]]
    S = CurveSet(labels, g)
    fibres = find_fibres(S)
    kinds = sorted(f.kind for f in fibres)
    assert kinds == ["D4"]
    d4 = fibres[0]
    mult = dict(d4.components)
    assert mult[0] == 2 and all(mult[i] == 1 for i in range(1, 5))


def test_e8_tilde_chain():
    # affine E8 diagram: chain with multiplicities 1-2-3-4-5-6-4-2, branch 3
    labels = [f"v{i}" for i in range(9)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
    g = [[-2 if i == j else 0 for j in range(9)] for i in range(9)]
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    S = CurveSet(labels, g)
    fibres = find_fibres(S)
    assert sorted(f.kind for f in fibres) == ["E8"]
    mult = dict(fibres[0].components)
    assert sorted(mult.values()) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_exhaustive_oracle_random_sets():
    rng = random.Random(16)
    trials = 0
    agreements = 0
    for trial in range(200):
        n = rng.randrange(3, 10)
        g = random_gram(rng, n)
        S = CurveSet([f"c{i}" for i in range(n)], g)
        fibres = find_fibres(S, max_n=10)
        mine = {(f.kind, f.components) for f in fibres}
        assert len(mine) == len(fibres), trial          # each found once
        oracle = {(f.kind, f.components) for f in brute_force_fibres(S, max_n=10)}
        assert mine == oracle, (trial, sorted(mine - oracle), sorted(oracle - mine))
        trials += 1
        agreements += len(oracle)
    assert trials == 200
    assert agreements > 0


def test_partial_fixture_detects_lemma_fibres():
    fix = load_gram("lemma_partial")
    S = CurveSet(fix.labels, fix.gram)
    fibres = find_fibres(S)
    by_kind = {}
    for f in fibres:
        by_kind.setdefault(f.kind, []).append(f)
    lab = {l: i for i, l in enumerate(fix.labels)}

    def support(names):
        return tuple(sorted(lab[x] for x in names))

    i6_supports = {tuple(sorted(s for s, _ in f.components)) for f in by_kind["I6"]}
    assert support(["L1", "E2p1", "E2m1", "Lt1", "E5m1", "E5p1"]) in i6_supports
    assert support(["Lt7", "L7", "E4p2", "E4p1", "E4m1", "E4m2"]) in i6_supports
    d4 = [f for f in by_kind["D4"]
          if tuple(sorted(s for s, _ in f.components)) ==
          support(["L2", "Lt2", "E3m1", "E3p1", "E30"])]
    assert len(d4) == 1
    assert dict(d4[0].components)[lab["E30"]] == 2
    i10 = [f for f in by_kind.get("I10", [])
           if tuple(sorted(s for s, _ in f.components)) ==
           support(["L6", "L1", "E5p1", "E5m1", "Lt1", "Lt6",
                    "E4p2", "E4p1", "E4m1", "E4m2"])]
    assert len(i10) == 1
    i2_supports = {tuple(sorted(s for s, _ in f.components)) for f in by_kind["I2"]}
    for pair in (["C1", "Ct1"], ["C2", "Ct2"], ["C3", "Ct3"]):
        assert support(pair) in i2_supports
    e8s = by_kind.get("E8", [])
    e8_supports = {tuple(sorted(s for s, _ in f.components)) for f in e8s}
    assert support(["E4m2", "E4m1", "E4p1", "L6", "Lt3", "L5",
                    "E11", "E2p1", "E2m1"]) in e8_supports
    assert support(["Lt2", "E5m2", "E5m1", "E30", "L4", "E5p1",
                    "E3m1", "E5p2", "L7"]) in e8_supports
    # multiplicities of the first E8-tilde match the displayed divisor
    target = {lab["E4m2"]: 6, lab["E4m1"]: 5, lab["E4p1"]: 4, lab["L6"]: 4,
              lab["Lt3"]: 3, lab["L5"]: 3, lab["E11"]: 2, lab["E2p1"]: 2,
              lab["E2m1"]: 1}
    assert any(dict(f.components) == target for f in e8s)


def test_partial_fixture_disjointness_and_sections():
    fix = load_gram("lemma_partial")
    S = CurveSet(fix.labels, fix.gram)
    lab = {l: i for i, l in enumerate(fix.labels)}
    fibres = find_fibres(S)

    def get(kind, names):
        sup = tuple(sorted(lab[x] for x in names))
        return next(f for f in fibres if f.kind == kind and
                    tuple(sorted(s for s, _ in f.components)) == sup)

    a1 = get("I6", ["L1", "E2p1", "E2m1", "Lt1", "E5m1", "E5p1"])
    a2 = get("I6", ["Lt7", "L7", "E4p2", "E4p1", "E4m1", "E4m2"])
    a3 = get("D4", ["L2", "Lt2", "E3m1", "E3p1", "E30"])
    n = S.n
    for x, y in ((a1, a2), (a1, a3), (a2, a3)):
        dx, dy = x.divisor(n), y.divisor(n)
        inter = sum(dx[i] * S.gram[i][j] * dy[j]
                    for i in range(n) for j in range(n))
        assert inter == 0
    # sections of the second fibration visible in the partial data
    b1 = get("I10", ["L6", "L1", "E5p1", "E5m1", "Lt1", "Lt6",
                     "E4p2", "E4p1", "E4m1", "E4m2"])
    fib = [f for f in group_fibrations(fibres, S) if b1 in f.fibres][0]
    secs = set(find_sections(fib, S))
    assert {"L5", "Lt5", "L7", "Lt7", "E2p1", "E2m1", "E5p2", "E5m2"} <= secs
    # evenness of the no-section fibration's key needs the full matrix; in
    # the partial fixture only the listed even pairings are checkable
    c1 = get("E8", ["E4m2", "E4m1", "E4p1", "L6", "Lt3", "L5",
                    "E11", "E2p1", "E2m1"])
    key = fibre_key(S, c1)
    for name in ("L1", "L7", "Lt7", "Lt6", "C1", "Ct3", "L2"):
        assert key[lab[name]] % 2 == 0, name


def test_group_fibrations_disjoint_vs_meeting():
    # two I3 triangles sharing one curve: distinct fibrations
    labels = [f"c{i}" for i in range(5)]
    g = [[0] * 5 for _ in range(5)]
    for i in range(5):
        g[i][i] = -2
    for a, b in ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)):
        g[a][b] = g[b][a] = 1
    S = CurveSet(labels, g)
    fibres = find_fibres(S)
    tri = [f for f in fibres if f.kind == "I3"]
    assert len(tri) == 2
    keys = {fibre_key(S, f) for f in tri}
    assert len(keys) == 2


def test_search_restores_the_collector_state():
    # reading the configurations off D (_configs) pauses the cyclic
    # collector; after a normal return and after an error, it is as it was
    # before, and the searches and the grouping leave it as it is
    S = triangle()
    bad = [FibreConfig("I2", ((0, 1), (5, 1)))]    # curve 5 is not in S
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            fibres = find_fibres(S)
            assert len(group_fibrations(fibres, S)) == 1
            assert gc.isenabled() is enabled
            assert [f.kind for f in fibres] == ["I3"]
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError):         # a negative multiplicity
                _configs(["I2"], np.array([[-1, 1]], dtype=np.int8))
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError):
                find_fibres(S, max_n=1)
            assert gc.isenabled() is enabled
            with pytest.raises(IndexError):
                group_fibrations(bad, S)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_orbit_count_identity_and_symmetry():
    S = triangle()
    fibres = find_fibres(S)
    fibs = group_fibrations(fibres, S)
    ident = [list(range(3))]
    assert orbit_count(fibs, ident, S) == len(fibs) == 1
    rot = [[1, 2, 0]]
    assert orbit_count(fibs, rot, S) == 1
    # two disjoint I2 pairs have equal (zero) keys: one fibration, any group
    g = [[-2, 2, 0, 0], [2, -2, 0, 0], [0, 0, -2, 2], [0, 0, 2, -2]]
    S2 = CurveSet(list("abcd"), g)
    fibs2 = group_fibrations(find_fibres(S2), S2)
    assert len(fibs2) == 1
    assert orbit_count(fibs2, [[2, 3, 0, 1]], S2) == 1
    # two triangles sharing a vertex: swapped by the evident symmetry
    labels = [f"c{i}" for i in range(5)]
    g3 = [[0] * 5 for _ in range(5)]
    for i in range(5):
        g3[i][i] = -2
    for a, b in ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)):
        g3[a][b] = g3[b][a] = 1
    S3 = CurveSet(labels, g3)
    fibs3 = group_fibrations(find_fibres(S3), S3)
    assert len(fibs3) == 2
    swap = [[3, 4, 2, 0, 1]]
    assert orbit_count(fibs3, swap, S3) == 1
    assert orbit_count(fibs3, [list(range(5))], S3) == 2


def test_orbit_generator_must_preserve_gram():
    # path a-b-c: swapping b and c does not preserve intersections
    path = CurveSet(list("abc"), [[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    fibs = group_fibrations(find_fibres(path), path)
    with pytest.raises(ValueError):
        orbit_count(fibs, [[0, 2, 1]], path)


def test_section_gcd_semantics():
    # the object path's Fibration, and the masks of a Fibrations holding the
    # same keys (the zero key padded to three entries)
    from census_oracle import Fibration
    f_even = Fibration((0, 2, 4), [])
    assert not f_even.has_section and not f_even.has_section_in_set
    f_unit = Fibration((0, 1, 2), [])
    assert f_unit.has_section and f_unit.has_section_in_set
    f_coprime = Fibration((0, 2, 3), [])
    assert f_coprime.has_section and not f_coprime.has_section_in_set
    f_zero = Fibration((0, 0), [])
    assert not f_zero.has_section
    keys = np.array([(0, 2, 4), (0, 1, 2), (0, 2, 3), (0, 0, 0)], dtype=np.uint8)
    fibs = Fibrations(keys, (), np.zeros(0, dtype=np.intp), np.zeros(4, dtype=np.intp))
    assert fibs.has_section.tolist() == [False, True, True, False]
    assert fibs.has_section_in_set.tolist() == [False, True, False, False]
    assert [(f.key, f.fibres, f.has_section, f.has_section_in_set)
            for f in fibs] == [(tuple(k), [], s, i) for k, s, i in zip(
                keys.tolist(), fibs.has_section.tolist(),
                fibs.has_section_in_set.tolist())]


def doubled_gram(rng, b):
    """Two copies of a random block joined by a symmetric cross block, so
    that swapping the copies preserves the Gram matrix.  Two I2 pairs are
    appended, each met once by curve k and by its copy: they share a key."""
    block, cross = random_gram(rng, b), random_gram(rng, b)
    for i in range(b):
        cross[i][i] = rng.choice((0, 0, 1))
    n = 2 * b + 4
    g = [block[i] + cross[i] + [0] * 4 for i in range(b)] + \
        [cross[i] + block[i] + [0] * 4 for i in range(b)] + \
        [[0] * n for _ in range(4)]
    k = rng.randrange(b)
    for x in (2 * b, 2 * b + 2):
        g[x][x] = g[x + 1][x + 1] = -2
        g[x][x + 1] = g[x + 1][x] = 2
        for c in (k, k + b):
            g[x][c] = g[c][x] = 1
    return g


def test_key_matrix_matches_reference_on_doubled_sets():
    rng = random.Random(4)
    multi = 0
    for trial in range(100):
        b = rng.randrange(3, 8)
        g = doubled_gram(rng, b)
        S = CurveSet([f"c{i}" for i in range(len(g))], g)
        fibres = find_fibres(S, max_n=10)
        assert len(set(fibres)) == len(fibres), trial
        fibs = group_fibrations(fibres, S)
        ref = ref_group_fibrations(fibres, S)
        assert [fibre_key(S, f) for f in fibres] == \
            [ref_fibre_key(S, f) for f in fibres], trial
        assert [(f.key, f.fibres) for f in fibs] == ref, trial
        multi += sum(len(f.fibres) > 1 for f in fibs)
        swap = [list(range(b, 2 * b)) + list(range(b)) + list(range(2 * b, S.n))]
        keys = [k for k, _ in ref]
        for pred, ref_pred in ((None, lambda k: True),
                               (lambda f: f.has_section, ref_has_section),
                               (lambda f: f.has_section_in_set,
                                lambda k: 1 in k)):
            assert orbit_count(fibs, swap, S, predicate=pred) == \
                ref_orbit_count([k for k in keys if ref_pred(k)], swap, S.n), trial
    assert multi > 0


def test_key_entries_beyond_int8_are_refused():
    # an I2 pair met 64 times each by a third curve: that curve's key entry is 128
    S = CurveSet(list("abc"), [[-2, 2, 64], [2, -2, 64], [64, 64, -2]])
    fibres = find_fibres(S)
    assert [fibre_key(S, f) for f in fibres] == [(0, 0, 128)]
    with pytest.raises(AssertionError):
        group_fibrations(fibres, S)


def test_group_fibrations_refuses_meeting_fibres_with_one_key():
    # D = a + b with a.b = 3 has key (1, 1) but D.D = 2
    S = CurveSet(list("ab"), [[-2, 3], [3, -2]])
    cfg = FibreConfig("I2", ((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        ref_group_fibrations([cfg, cfg], S)
    with pytest.raises(ValueError):
        group_fibrations([cfg, cfg], S)


def _e_rows_and_oracle(S):
    """(rows, oracle rows) per E~ kind: kodaira's numpy row blocks, and the
    divisors of the pure-Python arm search in census_oracle, in its order."""
    adj1, nz, arms = _neighbors(S), _nonzero_masks(S), _Graph(S).arms()
    for kind in _E_ARMS:
        oracle = [FibreConfig(kind, tuple(sorted(comps))).divisor(S.n)
                  for _, comps in _e_type(adj1, nz, S.n, kind)]
        yield kind, _e_rows(arms, S.n, kind).tolist(), oracle


def test_e_rows_match_the_arm_search_oracle(census34):
    S, _, walk = census34                   # the oracle's E~ rows on curves34
    arms = _Graph(S).arms()
    for kind in _E_ARMS:
        rows = _e_rows(arms, S.n, kind).tolist()
        assert rows == [FibreConfig(kind, c).divisor(S.n)
                        for k, c in walk if k == kind], kind
        assert len(rows) == {"E6": 6388, "E7": 26780, "E8": 47480}[kind]
    fix = load_gram("lemma_partial")
    sets = [CurveSet(fix.labels, fix.gram)]
    rng = random.Random(116)                # criterion 10a's 200 sets
    for _ in range(200):
        n = rng.randrange(3, 10)
        sets.append(CurveSet([f"c{i}" for i in range(n)], random_gram(rng, n)))
    rng = random.Random(4)                  # the doubled sets
    for _ in range(100):
        g = doubled_gram(rng, rng.randrange(3, 8))
        sets.append(CurveSet([f"c{i}" for i in range(len(g))], g))
    random_rows = 0
    for k, S in enumerate(sets):
        for kind, rows, oracle in _e_rows_and_oracle(S):
            assert rows == oracle, (k, kind)
            random_rows += (k >= 1) * len(rows)
    assert random_rows > 0


def _cycles_and_oracle(S, max_n):
    """(kinds, supports) of the I_n rows, and the walk oracle's cycles."""
    kinds, D = _Graph(S).cycles(max_n)
    adj1, nz = _neighbors(S), _nonzero_masks(S)
    cycles = list(_chordless_cycles(S, adj1, nz, max_n))
    return (kinds, [np.flatnonzero(r).tolist() for r in D]), \
        ([f"I{len(c)}" for c in cycles], [sorted(c) for c in cycles])


# The census counted off arrays against the object path it replaced
# (census_oracle.group_fibrations, orbit_count), in order.

PREDICATES = (None, lambda f: f.has_section, lambda f: f.has_section_in_set)


def _oracle_sets():
    """(S, generator lists) for lemma_partial (its Galois swap does not
    preserve the matrix, so both paths refuse it), the 72-curve set with
    object masks, criterion 10a's 200 sets and the doubled sets."""
    fix = load_gram("lemma_partial")
    mirror = [fix.labels.index(_mirror_label(l)) for l in fix.labels]
    sets = [(CurveSet(fix.labels, fix.gram),
             [[mirror], [fix.galois_permutation()]])]
    rng = random.Random(23)
    sets.append((CurveSet([f"c{i}" for i in range(72)], wide_gram(rng, 72)),
                 [[list(range(72))]]))
    rng = random.Random(116)                # criterion 10a's 200 sets
    for _ in range(200):
        n = rng.randrange(3, 10)
        sets.append((CurveSet([f"c{i}" for i in range(n)], random_gram(rng, n)),
                     [[list(range(n))]]))
    rng = random.Random(4)                  # the doubled sets
    for _ in range(100):
        b = rng.randrange(3, 8)
        g = doubled_gram(rng, b)
        swap = list(range(b, 2 * b)) + list(range(b)) + list(range(2 * b, len(g)))
        sets.append((CurveSet([f"c{i}" for i in range(len(g))], g), [[swap]]))
    return sets


def _orbit_counts(count, fibs, gens, S):
    """The three orbit counts, or the error that refuses the generators."""
    try:
        return tuple(count(fibs, gens, S, predicate=p) for p in PREDICATES)
    except ValueError as exc:
        return str(exc)


def _assert_census_matches_the_oracle(S, fibres, generator_sets, label):
    """Kinds, D, K, keys, member lists, section flags and orbit counts equal
    the object path's, which reads D and K off the configurations."""
    configs = list(fibres)
    assert fibres.kinds == tuple(f.kind for f in configs), label
    D = _config_divisors(configs, S.n)
    K = _keys(S, D)
    assert np.array_equal(fibres.D, D) and np.array_equal(fibres.K, K), label
    fibs = group_fibrations(fibres, S)
    want = census_oracle.group_fibrations(
        census_oracle.RowTuple(configs, curves=S, D=D, K=K), S)
    assert np.array_equal(fibs.keys, want.keys), label
    if len(fibs) < 10 ** 4:
        assert [(f.key, f.fibres, f.has_section, f.has_section_in_set)
                for f in fibs] == [(f.key, f.fibres, f.has_section,
                                    f.has_section_in_set) for f in want], label
    else:                       # the members in one list, and the group sizes
        assert [configs[i] for i in fibs._order.tolist()] == \
            [c for f in want for c in f.fibres], label
        assert np.diff(fibs._ends, prepend=0).tolist() == \
            [len(f.fibres) for f in want], label
        assert fibs.has_section.tolist() == \
            [f.has_section for f in want], label
        assert fibs.has_section_in_set.tolist() == \
            [f.has_section_in_set for f in want], label
    for gens in generator_sets:
        assert _orbit_counts(orbit_count, fibs, gens, S) == \
            _orbit_counts(census_oracle.orbit_count, want, gens, S), (label, gens)
    return fibs


def test_find_fibres_matches_the_walk_oracles(census34):
    # rows and kinds in the order of the depth-first walks, for each max_n;
    # on curves34, whose census is shared, max_n = 2, 3, 10 check the I_n
    # search, the only one that reads max_n; at max_n = 16 each census also
    # equals the object path's (curves34's in the next test)
    S, fibres, walk = census34
    assert [(f.kind, f.components) for f in fibres] == walk
    for max_n in (2, 3, 10):
        mine, oracle = _cycles_and_oracle(S, max_n)
        assert mine == oracle, max_n
    sets = _oracle_sets()
    for max_n in (2, 3, 10, 16):
        for k, (S, generator_sets) in enumerate(sets):
            fibres = find_fibres(S, max_n)
            assert [(f.kind, f.components) for f in fibres] == \
                walk_fibres(S, max_n), (max_n, k)
            if k == 1:                      # object masks, fibres past bit 63
                assert fibres.D[:, 64:].any() and fibres.D[:, :64].any()
            if max_n == 16:
                _assert_census_matches_the_oracle(S, fibres, generator_sets, k)


def test_census_matches_the_object_path_oracle(census34):
    S, fibres, _ = census34
    fix = load_gram("curves34")
    galois = fix.galois_permutation()
    mirror = [fix.labels.index(_mirror_label(l)) for l in fix.labels]
    fibs = _assert_census_matches_the_oracle(S, fibres, [[galois, mirror]],
                                             "curves34")
    # the generators in the other order: the labels kept for their group
    assert _orbit_counts(orbit_count, fibs, [mirror, galois], S) == \
        (29111, 27807, 24270)
    assert len(fibs._orbits) == 1


def test_cycle_and_chain_caps():
    # a 17-cycle is found at max_n = 17 only; chains stop at 14 curves, so a
    # D~17 is found and a D~18 (a chain of 15) is not
    g = [[-2 if i == j else int((i - j) % 17 in (1, 16)) for j in range(17)]
         for i in range(17)]
    S = CurveSet([f"c{i}" for i in range(17)], g)
    assert [f.kind for f in find_fibres(S, max_n=17)] == ["I17"]
    assert len(find_fibres(S, max_n=16)) == 0
    for m, kinds in ((16, ["D16"]), (17, ["D17"]), (18, [])):
        edges = [(v, v + 1) for v in range(m - 4)] + \
            [(0, m - 3), (0, m - 2), (m - 4, m - 1), (m - 4, m)]
        g = [[-2 if i == j else 0 for j in range(m + 1)] for i in range(m + 1)]
        for a, b in edges:
            g[a][b] = g[b][a] = 1
        S = CurveSet([f"c{i}" for i in range(m + 1)], g)
        assert [f.kind for f in find_fibres(S)] == kinds, m


def test_sets_without_unit_edges_have_no_fibres():
    # the empty set, one curve, and curves meeting 0 or 3 times
    for g in ([], [[-2]], [[-2, 0, 3], [0, -2, 0], [3, 0, -2]]):
        S = CurveSet([f"c{i}" for i in range(len(g))], g)
        fibres = find_fibres(S)
        assert len(fibres) == 0 and fibres.D.shape == (0, S.n)
        assert len(group_fibrations(fibres, S)) == 0


def test_e_rows_beyond_63_curves():
    # masks of 64 or more bits: an affine E8 and E7 on the last curves of 70
    n = 70
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)):
        g[61 + a][61 + b] = g[61 + b][61 + a] = 1
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)):
        g[50 + a][50 + b] = g[50 + b][50 + a] = 1
    S = CurveSet([f"c{i}" for i in range(n)], g)
    for kind, rows, oracle in _e_rows_and_oracle(S):
        assert rows == oracle and len(rows) == (kind != "E6"), kind
    assert sorted(f.kind for f in find_fibres(S)) == ["E7", "E8"]


def test_keys_equal_integer_products(census34):
    fix = load_gram("lemma_partial")
    S = CurveSet(fix.labels, fix.gram)
    for S, fibres in (census34[:2], (S, find_fibres(S))):
        D = fibres.D.astype(np.int64)
        assert np.array_equal(fibres.K, D @ np.array(S.gram, dtype=np.int64))
        assert fibres.K.dtype == np.int16 and fibres.curves is S
        if len(fibres) < 10 ** 4:
            assert D.tolist() == [f.divisor(S.n) for f in fibres]


def test_keys_refuse_a_bound_of_2_15():
    # an I2 pair met m times each by a third curve: the bound is 2m
    D = np.array([[1, 1, 0]], dtype=np.int8)
    for m, exact in ((2 ** 14 - 1, True), (2 ** 14, False)):
        S = CurveSet(list("abc"), [[-2, 2, m], [2, -2, m], [m, m, -2]])
        if exact:
            assert _keys(S, D).tolist() == [[0, 0, 2 * m]]
            assert [fibre_key(S, f) for f in find_fibres(S)] == [(0, 0, 2 * m)]
        else:
            with pytest.raises(AssertionError):
                _keys(S, D)
            with pytest.raises(AssertionError):
                find_fibres(S)


def test_matrices_travel_with_the_sequences():
    rng = random.Random(9)
    for trial in range(30):
        b = rng.randrange(3, 8)
        g = doubled_gram(rng, b)
        S = CurveSet([f"c{i}" for i in range(len(g))], g)
        fibres = find_fibres(S, max_n=10)
        with pytest.raises(ValueError):
            fibres.D[0, 0] = 1                  # read-only
        with pytest.raises(ValueError):
            fibres.K[0, 0] = 1
        assert type(fibres[:]) is tuple
        fibs = group_fibrations(fibres, S)
        with pytest.raises(ValueError):
            fibs.keys[0, 0] = 1
        assert type(fibs[:]) is tuple and list(fibs[1:3]) == list(fibs)[1:3]
        assert [f.key for f in fibs[::-1]] == [fibs[-1 - k].key
                                               for k in range(len(fibs))]
        # a plain list and a copy of S take the path through the configs
        for again in (group_fibrations(list(fibres), S),
                      group_fibrations(fibres, CurveSet(S.labels, S.gram))):
            assert [(f.key, f.fibres) for f in again] == \
                [(f.key, f.fibres) for f in fibs], trial
            assert np.array_equal(again.keys, fibs.keys)
        assert fibs.keys.tolist() == [list(f.key) for f in fibs]
        swap = [list(range(b, 2 * b)) + list(range(b)) + list(range(2 * b, S.n))]
        for pred in (None, lambda f: f.has_section):
            assert orbit_count(fibs, swap, S, predicate=pred) == \
                orbit_count(list(fibs), swap, S, predicate=pred), trial


def test_fibres_of_another_curve_set_are_keyed_afresh():
    # two disjoint I2 pairs share the zero key; a curve set in which a meets c
    # keys them apart, so matrices carried for the first set must not be used
    g = [[-2, 2, 0, 0], [2, -2, 0, 0], [0, 0, -2, 2], [0, 0, 2, -2]]
    S = CurveSet(list("abcd"), g)
    fibres = find_fibres(S)
    assert [f.key for f in group_fibrations(fibres, S)] == [(0, 0, 0, 0)]
    g[0][2] = g[2][0] = 1
    T = CurveSet(list("abcd"), g)
    assert [f.key for f in group_fibrations(fibres, T)] == \
        [(0, 0, 1, 0), (1, 0, 0, 0)]


def test_orbit_labels_are_kept_per_generated_group():
    rng = random.Random(5)
    seen = 0
    for trial in range(20):
        b = rng.randrange(3, 8)
        g = doubled_gram(rng, b)
        S = CurveSet([f"c{i}" for i in range(len(g))], g)
        ident = list(range(S.n))
        swap = ident[b:2 * b] + ident[:b] + ident[2 * b:]
        fibres = find_fibres(S, max_n=10)
        fibs = group_fibrations(fibres, S)
        want = census_oracle.group_fibrations(list(fibres), S)
        for gens in ([ident], [swap], [swap, ident], [ident, swap], [ident]):
            assert _orbit_counts(orbit_count, fibs, gens, S) == _orbit_counts(
                census_oracle.orbit_count, want, gens, S), (trial, gens)
        assert len(fibs._orbits) == (2 if len(fibs) else 0), trial
        seen += orbit_count(fibs, [swap], S) < len(fibs)
    assert seen > 0                         # the swap merges some orbits
