"""Oracles for the Kodaira census, kept out of the package.

brute_force_fibres is the exhaustive search that the constructive one in
dyk3.kodaira is checked against: it classifies every connected subset of
curves whose restricted Gram matrix is singular.  The depth-first walks
below (_chordless_cycles, _d_fibres with _d_chains and _fork_pairs, and
_arms_from with _e_type) are the pure-Python searches that kodaira's
level-by-level walk over numpy row blocks replaced; walk_fibres runs them
in the order find_fibres must reproduce.

RowTuple, Fibration, group_fibrations, orbit_count, _key_rows and
_generated_group are the object path that the census took before it was
counted off arrays: a Fibration per key with its member list, and keys
read back from the objects.  They are kept unchanged, with _gc_paused, as
the oracle of kodaira's Fibres and Fibrations.
"""

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, wraps
from itertools import combinations, permutations
from math import gcd, lcm

import numpy as np

from dyk3.kodaira import (_E_ARMS, CurveSet, FibreConfig, _config_divisors,
                          _keys)
from dyk3.lattice import bareiss_det


def walk_fibres(S: CurveSet, max_n: int = 16):
    """(kind, components) of every fibre on S, in find_fibres' order: I2
    pairs, I_n cycles, D~ diagrams, then the E6, E7 and E8 diagrams."""
    g, n = S.gram, S.n
    adj1, nz = _neighbors(S), _nonzero_masks(S)
    found = [("I2", (i, j), (1, 1)) for i in range(n)
             for j in range(i + 1, n) if g[i][j] == 2]
    found += [(f"I{len(c)}", c, (1,) * len(c))
              for c in _chordless_cycles(S, adj1, nz, max_n)]
    found += list(_d_fibres(adj1, nz, n))
    out = [(kind, tuple(sorted(zip(c, m)))) for kind, c, m in found]
    for kind in _E_ARMS:
        out += [(kind, tuple(sorted(comps)))
                for _, comps in _e_type(adj1, nz, n, kind)]
    return out


def find_sections(fib, S: CurveSet):
    """Labels of the curves that meet the fibration's fibre once."""
    return [S.labels[i] for i, v in enumerate(fib.key) if v == 1]


def _neighbors(S: CurveSet):
    """adj1[v]: the curves meeting v with intersection number 1, ascending."""
    return [[u for u, x in enumerate(row) if u != v and x == 1]
            for v, row in enumerate(S.gram)]


def _nonzero_masks(S: CurveSet):
    """nz[v]: bitmask of the curves u != v with a nonzero intersection with v."""
    return [sum(1 << u for u, x in enumerate(row) if u != v and x != 0)
            for v, row in enumerate(S.gram)]


def _chordless_cycles(S, adj1, nz, max_n):
    """Each chordless unit-edge cycle of length 3..max_n, found exactly once.

    Canonical form: the cycle is rooted at its least vertex r with the
    second vertex smaller than the last; all other vertices exceed r.
    Interior vertices may touch nothing else on the path (zero intersection
    with all non-neighbours, including weight-2 contacts).
    """
    for r in range(S.n):
        gr = S.gram[r]
        rbit = 1 << r
        stack = [(r, (r,), rbit)]
        while stack:
            v, path, pm = stack.pop()
            inner = pm & ~rbit & ~(1 << v)          # path[1:-1]
            for w in adj1[v]:
                if w <= r or pm >> w & 1 or nz[w] & inner:
                    continue
                if len(path) == 1:
                    # first step away from the root: the r-w edge is part of
                    # the cycle, not a chord
                    stack.append((w, path + (w,), pm | 1 << w))
                    continue
                grw = gr[w]
                if grw != 0:
                    # w touches the root: only valid as the closing vertex
                    if grw == 1 and path[1] < w and len(path) + 1 <= max_n:
                        yield path + (w,)
                    continue
                if len(path) < max_n:
                    stack.append((w, path + (w,), pm | 1 << w))


def _d_fibres(adj1, nz, n):
    """(kind, columns, multiplicities) of the D~_n (n >= 4) configurations."""
    # D~_4: central c with four legs, pairwise disjoint
    for c in range(n):
        for legs in combinations(adj1[c], 4):
            lm = sum(1 << l for l in legs)
            if not any(nz[l] & lm for l in legs):
                yield "D4", (c,) + legs, (2, 1, 1, 1, 1)

    # D~_m, m >= 5: chain c_1 .. c_{m-3} (multiplicity 2) with fork pairs
    # at both ends
    for path, pm, left in _d_chains(adj1, nz, n):
        right = _fork_pairs(adj1, nz, path[-1], pm)
        kind, mults = f"D{len(path) + 3}", (2,) * len(path) + (1, 1, 1, 1)
        for l1, l2, lreach in left:
            for r1, r2, _ in right:
                if lreach & (1 << r1 | 1 << r2):
                    continue
                yield kind, path + (l1, l2, r1, r2), mults


def _d_chains(adj1, nz, n):
    """Induced paths (length 2..14 vertices) with no extra adjacencies,
    emitted once (first endpoint < last endpoint), with their vertex masks
    and the fork pairs left at the first vertex.  Those pairs only shrink
    as the path grows, so a path without any is not extended."""
    for start in range(n):
        stack = [(start, (start,), 1 << start,
                  _fork_pairs(adj1, nz, start, 1 << start))]
        while stack:
            v, path, pm, left = stack.pop()
            if len(path) >= 2 and path[0] < path[-1]:
                yield path, pm, left
            if len(path) >= 14:
                continue
            before = pm & ~(1 << v)                 # path[:-1]
            for w in adj1[v]:
                if pm >> w & 1 or nz[w] & before:
                    continue
                keep = [f for f in left if not f[2] >> w & 1]
                if keep:
                    stack.append((w, path + (w,), pm | 1 << w, keep))


def _fork_pairs(adj1, nz, end, pm):
    """Disjoint pairs of unit neighbours of the chain end `end` that miss
    the rest of the chain (vertex mask pm), in combinations order.  Each
    pair carries the mask of its vertices and of every curve they meet."""
    rest = pm & ~(1 << end)
    opts = [v for v in adj1[end] if not (pm >> v & 1 or nz[v] & rest)]
    return [(a, b, 1 << a | 1 << b | nz[a] | nz[b])
            for a, b in combinations(opts, 2) if not nz[a] >> b & 1]


def _arms_from(adj1, nz, c, length):
    """Chordless paths of `length` vertices hanging off c (excluding c),
    each with its vertex mask and that mask joined with every curve it meets."""
    out = []
    stack = [(c, (c,), 1 << c)]
    while stack:
        v, path, pm = stack.pop()
        if len(path) == length + 1:
            arm = path[1:]
            reach = pm & ~(1 << c)
            mask = reach
            for u in arm:
                reach |= nz[u]
            out.append((arm, mask, reach))
            continue
        before = pm & ~(1 << v)
        for w in adj1[v]:
            if pm >> w & 1 or nz[w] & before:
                continue
            stack.append((w, path + (w,), pm | 1 << w))
    return out


def _e_type(adj1, nz, n, kind):
    """Affine E diagrams: three disjoint, mutually untouching chordless arms
    from a center.  Arms of equal length are taken in increasing list order,
    so each diagram is found once, in the order of its first arm triple."""
    center_mult, arm_mults = _E_ARMS[kind]
    L1, L2, L3 = (len(a) for a in arm_mults)
    for c in range(n):
        arms = {L: _arms_from(adj1, nz, c, L) for L in {L1, L2, L3}}
        A1, A2, A3 = arms[L1], arms[L2], arms[L3]
        for i, (a1, _, r1) in enumerate(A1):
            for j in range(i + 1 if L2 == L1 else 0, len(A2)):
                a2, m2, r2 = A2[j]
                if r1 & m2:
                    continue
                r12 = r1 | r2
                for k in range(j + 1 if L3 == L2 else 0, len(A3)):
                    a3, m3, _ = A3[k]
                    if r12 & m3:
                        continue
                    comps = [(c, center_mult)]
                    for arm, mults in zip((a1, a2, a3), arm_mults):
                        comps.extend(zip(arm, mults))
                    yield kind, comps



@cache
def _diagram(kind):
    """Adjacency + multiplicities of the affine diagram as a small graph."""
    if kind.startswith("I"):
        raise ValueError("cycles handled separately")
    if kind.startswith("D"):
        m = int(kind[1:])
        # chain of m-3 double vertices, two forks each end
        mults = {v: 2 for v in range(m - 3)}
        edges = [(v, v + 1) for v in range(m - 4)]
        for k, end in enumerate((0, 0, m - 4, m - 4)):
            mults[m - 3 + k] = 1
            edges.append((end, m - 3 + k))
        return edges, mults
    edges = []
    center_m, arms = _E_ARMS[kind]
    mults = {0: center_m}
    nxt = 1
    for arm in arms:
        prev = 0
        for m in arm:
            mults[nxt] = m
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges, mults


def brute_force_fibres(S: CurveSet, max_mult: int = 6, max_n: int = 16):
    """Exhaustive oracle, independent of the constructive search.

    For every connected subset, the multiplicity vector of a fibre must span
    the kernel of the restricted Gram matrix (D.C_i = 0 for all components);
    corank-1 subsets with a positive primitive kernel vector bounded by
    max_mult are then classified against the affine diagrams directly.
    """
    n = S.n
    g = S.gram
    found = set()
    for size in range(2, n + 1):
        for sub in combinations(range(n), size):
            if not _connected(g, sub):
                continue
            sub_gram = [[g[i][j] for j in sub] for i in sub]
            if bareiss_det(sub_gram) != 0:
                continue        # a fibre's support has corank 1
            kern = _int_kernel(sub_gram)
            if len(kern) != 1:
                continue
            m = kern[0]
            if any(x == 0 for x in m):
                continue
            if all(x < 0 for x in m):
                m = [-x for x in m]
            if any(x <= 0 for x in m) or max(m) > max_mult or min(m) != 1:
                continue
            comps = tuple(zip(sub, m))
            if not S.check_config(comps):
                continue
            kind = _classify_config(S, comps, max_n)
            if kind is None:
                continue
            found.add((kind, tuple(sorted(comps))))
    return {FibreConfig(k, c) for k, c in found}


def _int_kernel(mat):
    """Primitive integer basis of the kernel of a small integer matrix."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for ri, c in enumerate(pivots):
            v[c] = -a[ri][fc]
        den = lcm(*(x.denominator for x in v))
        iv = [int(x * den) for x in v]
        gg = gcd(*iv)
        out.append([x // gg for x in iv])
    return out


def _connected(g, sub):
    seen = {sub[0]}
    frontier = [sub[0]]
    while frontier:
        v = frontier.pop()
        for w in sub:
            if w not in seen and g[v][w] != 0:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(sub)


def _classify_config(S, comps, max_n):
    """Match the weighted support against a Kodaira diagram, or None."""
    g = S.gram
    idx = [i for i, _ in comps]
    mults = {i: m for i, m in comps}
    size = len(idx)
    edges = [(a, b) for k, a in enumerate(idx) for b in idx[k + 1:]
             if g[a][b] != 0]
    if all(m == 1 for m in mults.values()):
        if size == 2 and g[idx[0]][idx[1]] == 2:
            return "I2"
        # cycle: every vertex degree 2 with unit edges
        if size >= 3 and size <= max_n and len(edges) == size and \
                all(g[a][b] == 1 for a, b in edges):
            deg = {i: 0 for i in idx}
            for a, b in edges:
                deg[a] += 1
                deg[b] += 1
            if all(d == 2 for d in deg.values()):
                return f"I{size}"
        return None
    # weighted tree types: D~_m has m + 1 vertices, E~_k has k + 1
    if size < 5:
        return None
    for kind in [f"D{size - 1}"] + ([f"E{size - 1}"] if 7 <= size <= 9 else []):
        if _matches_diagram(S, comps, kind):
            return kind
    return None


def _matches_diagram(S, comps, kind):
    edges, mults = _diagram(kind)
    g = S.gram
    idx = [i for i, _ in comps]
    want = sorted(mults.values())
    have = sorted(m for _, m in comps)
    if want != have:
        return False
    k = len(idx)
    eset = {(min(a, b), max(a, b)) for a, b in edges}
    cm = {i: m for i, m in comps}
    for perm in permutations(range(k)):
        ok = True
        for pos in range(k):
            if cm[idx[perm[pos]]] != mults[pos]:
                ok = False
                break
        if not ok:
            continue
        for a in range(k):
            for b in range(a + 1, k):
                want_edge = (a, b) in eset
                val = g[idx[perm[a]]][idx[perm[b]]]
                if want_edge and val != 1:
                    ok = False
                    break
                if not want_edge and val != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# the object path of the grouping and the orbit counts


class RowTuple(tuple):
    """A tuple that carries, as attributes, matrices with one row per item:
    find_fibres' configurations carry their divisor matrix D and key matrix
    K and the CurveSet `curves` they belong to; group_fibrations'
    fibrations carry their uint8 key matrix `keys`.  The matrices are
    read-only, and a slice of a RowTuple is a plain tuple."""

    def __new__(cls, items, **carried):
        self = super().__new__(cls, items)
        for value in carried.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        vars(self).update(carried)
        return self


def _matrices(fibres, S: CurveSet):
    """(D, K) of a fibre sequence: those find_fibres(S) carries, or else
    built from the configurations."""
    if isinstance(fibres, RowTuple) and getattr(fibres, "curves", None) is S:
        return fibres.D, fibres.K
    D = _config_divisors(fibres, S.n)
    return D, _keys(S, D)


@dataclass(slots=True)
class Fibration:
    key: tuple              # intersection vector of D against the curve set
    fibres: list

    @property
    def has_section_in_set(self):
        return 1 in self.key

    @property
    def has_section(self):
        return gcd(*self.key) == 1


def _gc_paused(fn):
    """fn with the cyclic collector paused, its state restored after, on
    errors too: the searches build 10^5 small objects holding no cycles."""
    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return paused


@_gc_paused
def group_fibrations(fibres, S: CurveSet):
    """Group fibres by their intersection key; check pairwise disjointness.

    Fibrations come out sorted by key, each listing its fibres in input
    order, as a RowTuple carrying their uint8 key matrix.  Keys are
    compared as byte strings: their entries are asserted to lie in
    [0, 127], where byte order is numeric order.
    """
    n = S.n
    if not fibres:
        return RowTuple((), keys=np.zeros((0, n), dtype=np.uint8))
    D, K = _matrices(fibres, S)
    if K.min() < 0 or K.max() > 127:
        raise AssertionError("fibre key entries must lie in [0, 127]")
    K = K.astype(np.uint8)
    dd = np.einsum("ij,ij->i", D, K, dtype=np.int64)      # D.D = D.key
    uniq, inv, counts = np.unique(K.view(np.dtype((np.void, n))).ravel(),
                                  return_inverse=True, return_counts=True)
    order = np.argsort(inv, kind="stable")
    # each fibre a listed before a fibre b of its group must miss it; with
    # one key per group, D_a.G.D_b = D_a.key_b = D_a.key_a = D_a.D_a
    earlier = counts[inv] > 1
    earlier[order[np.cumsum(counts) - 1]] = False
    if dd[earlier].any():
        raise ValueError(
            "key collision with nonzero intersection: the curve "
            "set does not span the ambient Picard lattice")
    U = uniq.view(np.uint8).reshape(-1, n)
    members = list(map(fibres.__getitem__, order.tolist()))
    ends = np.cumsum(counts).tolist()
    starts = [0] + ends[:-1]
    out = []
    for s in range(0, len(U), 4096):        # key tuples in small chunks
        for row, a, b in zip(U[s:s + 4096].tolist(), starts[s:s + 4096],
                             ends[s:s + 4096]):
            out.append(Fibration(tuple(row), members[a:b]))
    return RowTuple(out, keys=U)


def orbit_count(fibrations, generators, S: CurveSet,
                predicate=None) -> int:
    """Orbits of the induced action on fibration keys.

    generators: label permutations as index lists; must preserve the Gram.
    The orbit representative is the lexicographically least permuted key;
    keys are compared as byte strings, so their entries must lie in [0, 255].
    """
    G = np.array(S.gram)
    for perm in generators:
        if not np.array_equal(G[np.ix_(perm, perm)], G):
            raise ValueError("generator does not preserve the Gram")
    n = S.n
    keys = _key_rows(fibrations, predicate, n)
    if not len(keys):
        return 0
    canon = None
    for p in _generated_group(generators, n):
        moved = np.ascontiguousarray(keys[:, p]).view(f"S{n}").ravel()
        canon = moved if canon is None else np.where(moved < canon, moved, canon)
    return len(np.unique(canon.view(np.dtype((np.void, n)))))


def _key_rows(fibrations, predicate, n):
    """uint8 key rows of the fibrations that satisfy the predicate: taken
    from group_fibrations' key matrix, or else packed from the keys."""
    if isinstance(fibrations, RowTuple) and hasattr(fibrations, "keys"):
        if predicate is None:
            return fibrations.keys
        return fibrations.keys[[k for k, f in enumerate(fibrations)
                                if predicate(f)]]
    fibs = [f for f in fibrations if predicate is None or predicate(f)]
    keys = np.empty((len(fibs), n), dtype=np.uint8)
    for s in range(0, len(fibs), 4096):
        block = b"".join(bytes(f.key) for f in fibs[s:s + 4096])
        keys[s:s + 4096] = np.frombuffer(block, dtype=np.uint8).reshape(-1, n)
    return keys


def _generated_group(generators, n):
    ident = tuple(range(n))
    group = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        g = frontier.pop()
        for h in gens:
            comp = tuple(g[h[i]] for i in range(n))
            if comp not in group:
                group.add(comp)
                frontier.append(comp)
    return sorted(group)
