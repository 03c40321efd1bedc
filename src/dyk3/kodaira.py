"""Combinatorial search for Kodaira fibres in a set of -2-curves.

Given the intersection matrix of a finite curve set, enumerate all divisors
D = sum m_i C_i whose support configuration matches an affine Dynkin
diagram (I_n cycles, D~_n, E~_6/7/8) with the standard multiplicities,
group them into genus-1 fibrations by their intersection key, detect
sections, and count orbits under a small symmetry group.

The search keeps vertex sets as int bitmasks, so every chordless and
disjointness test is one `&`.  Checks, keys, grouping and orbits run on
one (fibres x curves) int8 divisor matrix D and its key matrix D.G.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, wraps
from itertools import chain, combinations, islice, permutations
from math import gcd, lcm

import numpy as np


@dataclass(frozen=True, slots=True)
class FibreConfig:
    kind: str                 # "I3", "D4", "D5", ..., "E6", "E7", "E8"
    components: tuple         # ((index, multiplicity), ...) sorted by index

    @property
    def support(self):
        return tuple(i for i, _ in self.components)

    def divisor(self, n):
        v = [0] * n
        for i, m in self.components:
            v[i] = m
        return v


class CurveSet:
    """A labelled symmetric intersection matrix of -2-curves."""

    def __init__(self, labels, gram):
        self.labels = list(labels)
        self.gram = [list(r) for r in gram]
        n = len(self.labels)
        for i in range(n):
            if self.gram[i][i] != -2:
                raise ValueError("curve set must consist of -2-curves")
            for j in range(n):
                if i != j and self.gram[i][j] < 0:
                    raise ValueError("off-diagonal intersections must be >= 0")
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("intersection matrix must be symmetric")

    @property
    def n(self):
        return len(self.labels)

    def check_config(self, comps) -> bool:
        """D.C_i = 0 for every component (hence D.D = 0), recomputed from Gram."""
        g = self.gram
        return all(sum(g[i][j] * mj for j, mj in comps) == 0 for i, _ in comps)


# ---------------------------------------------------------------------------
# divisor and key matrices


def _divisors(fibres, n):
    """The (fibres x n) int8 matrix whose rows are the fibre divisors."""
    lens = [len(cfg.components) for cfg in fibres]
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(cfg.components for cfg in fibres)),
        dtype=np.int16, count=2 * sum(lens))
    cols, mults = flat[0::2], flat[1::2]
    if mults.size and int(np.abs(mults).max()) > 127:
        raise AssertionError("fibre multiplicities must fit in int8")
    D = np.zeros((len(fibres), n), dtype=np.int8)
    D[np.repeat(np.arange(len(fibres), dtype=np.int32), lens), cols] = mults
    return D


def _keys(S: CurveSet, D):
    """K = D.G, exact in int16: |K| <= max_f sum_i |D_fi| * max |G| < 2^15."""
    G = np.array(S.gram, dtype=np.int64)
    bound = int(np.abs(D).sum(axis=1).max(initial=0)) * int(np.abs(G).max(initial=0))
    if bound >= 2 ** 15:
        raise AssertionError(f"fibre keys may reach {bound}, beyond int16")
    return D @ G.astype(np.int16)


def _key_blocks(S: CurveSet, fibres):
    """(start, D, K) over blocks of 8192 fibres, so that the int
    temporaries stay a few MB however many fibres there are."""
    for s in range(0, len(fibres), 8192):
        D = _divisors(fibres[s:s + 8192], S.n)
        yield s, D, _keys(S, D)


def fibre_key(S: CurveSet, cfg: FibreConfig):
    """Intersection vector (D.C_0, ..., D.C_{n-1}) of the fibre divisor D."""
    return tuple(_keys(S, _divisors([cfg], S.n))[0].tolist())


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


# ---------------------------------------------------------------------------
# enumeration


def _neighbors(S: CurveSet):
    """adj1[v]: the curves meeting v with intersection number 1, ascending."""
    return [[u for u, x in enumerate(row) if u != v and x == 1]
            for v, row in enumerate(S.gram)]


def _nonzero_masks(S: CurveSet):
    """nz[v]: bitmask of the curves u != v with a nonzero intersection with v."""
    return [sum(1 << u for u, x in enumerate(row) if u != v and x != 0)
            for v, row in enumerate(S.gram)]


@_gc_paused
def find_fibres(S: CurveSet, max_n: int = 16):
    """All Kodaira fibres supported on S with I_n cycles up to length max_n.

    I2 = pairs meeting with intersection number 2; I_n (n >= 3) = chordless
    unit-edge cycles; D~_n and E~_6/7/8 by explicit diagram matching.  Each
    search finds every configuration once.  Every emitted configuration is
    re-verified against the Gram matrix.
    """
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    g = S.gram
    n = S.n
    # I2: intersection number exactly 2
    out = [FibreConfig("I2", ((i, 1), (j, 1)))
           for i in range(n) for j in range(i + 1, n) if g[i][j] == 2]
    # I_m cycles, m >= 3: chordless cycles in the unit graph, where
    # "chordless" forbids any nonzero intersection between non-neighbours
    adj1 = _neighbors(S)
    nz = _nonzero_masks(S)
    for cyc in _chordless_cycles(S, adj1, nz, max_n):
        out.append(FibreConfig(f"I{len(cyc)}", tuple(sorted((i, 1) for i in cyc))))
    # D~_n and E~ types
    for kind, comps in _tree_fibres(S, adj1, nz):
        out.append(FibreConfig(kind, tuple(sorted(comps))))
    # D.C_i = 0 on every component (hence D.D = 0), a block at a time
    for s, D, K in _key_blocks(S, out):
        bad = ((D != 0) & (K != 0)).any(axis=1)
        if bad.any():
            raise AssertionError("enumerated config fails the invariants: "
                                 f"{out[s + int(bad.argmax())]}")
    return out


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


def _tree_fibres(S, adj1, nz):
    """D~_n (n >= 4) and E~_6, E~_7, E~_8 configurations."""
    n = S.n
    # D~_4: central c with four legs, pairwise disjoint
    for c in range(n):
        for legs in combinations(adj1[c], 4):
            lm = sum(1 << l for l in legs)
            if not any(nz[l] & lm for l in legs):
                yield "D4", ((c, 2),) + tuple((l, 1) for l in legs)

    # D~_m, m >= 5: chain c_1 .. c_{m-3} (multiplicity 2) with fork pairs
    # at both ends
    for path, pm, left in _d_chains(adj1, nz, n):
        right = _fork_pairs(adj1, nz, path[-1], pm)
        chain2 = tuple((c, 2) for c in path)
        m = len(path) + 3
        for l1, l2, lreach in left:
            for r1, r2, _ in right:
                if lreach & (1 << r1 | 1 << r2):
                    continue
                yield (f"D{m}", chain2 + ((l1, 1), (l2, 1), (r1, 1), (r2, 1)))

    # E~ types by arm search from a central vertex
    for kind in _E_ARMS:
        yield from _e_type(adj1, nz, n, kind)


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


# center multiplicity and arm multiplicities (outward) of the affine E diagrams
_E_ARMS = {
    "E6": (3, [(2, 1), (2, 1), (2, 1)]),
    "E7": (4, [(3, 2, 1), (3, 2, 1), (2,)]),
    "E8": (6, [(5, 4, 3, 2, 1), (4, 2), (3,)]),
}


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


# ---------------------------------------------------------------------------
# grouping into fibrations


@dataclass(slots=True)
class Fibration:
    key: tuple              # intersection vector of D against the curve set
    fibres: list

    @property
    def section_indices(self):
        return tuple(i for i, v in enumerate(self.key) if v == 1)

    @property
    def has_section_in_set(self):
        return 1 in self.key

    @property
    def has_section(self):
        return gcd(*self.key) == 1


@_gc_paused
def group_fibrations(fibres, S: CurveSet):
    """Group fibres by their intersection key; check pairwise disjointness.

    Fibrations come out sorted by key, each listing its fibres in input
    order.  Keys are compared as int8 byte strings: their entries are
    asserted to lie in [0, 127], where byte order is numeric order.
    """
    if not fibres:
        return []
    n = S.n
    K = np.empty((len(fibres), n), dtype=np.int8)
    dd = np.empty(len(fibres), dtype=np.int64)          # D.D = D.key
    for s, D, Kb in _key_blocks(S, fibres):
        if Kb.min() < 0 or Kb.max() > 127:
            raise AssertionError("fibre key entries must lie in [0, 127]")
        K[s:s + len(Kb)] = Kb
        dd[s:s + len(Kb)] = np.einsum("ij,ij->i", D, Kb, dtype=np.int64)
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
    U = uniq.view(np.int8).reshape(-1, n)
    members = map(fibres.__getitem__, order)
    out = []
    for s in range(0, len(U), 4096):        # key tuples in small chunks
        for row, c in zip(U[s:s + 4096].tolist(), counts[s:s + 4096].tolist()):
            out.append(Fibration(tuple(row), list(islice(members, c))))
    return out


def find_sections(fib: Fibration, S: CurveSet):
    return [S.labels[i] for i in fib.section_indices]


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
    fibs = [f for f in fibrations if predicate is None or predicate(f)]
    if not fibs:
        return 0
    n = S.n
    keys = np.empty((len(fibs), n), dtype=np.uint8)
    for s in range(0, len(fibs), 4096):
        block = b"".join(bytes(f.key) for f in fibs[s:s + 4096])
        keys[s:s + 4096] = np.frombuffer(block, dtype=np.uint8).reshape(-1, n)
    canon = None
    for p in _generated_group(generators, n):
        moved = np.ascontiguousarray(keys[:, p]).view(f"S{n}").ravel()
        canon = moved if canon is None else np.where(moved < canon, moved, canon)
    return len(np.unique(canon))


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


# ---------------------------------------------------------------------------
# brute-force oracle (independent of the constructive search)


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
