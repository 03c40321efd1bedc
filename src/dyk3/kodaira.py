"""Combinatorial search for Kodaira fibres in a set of -2-curves.

Given the intersection matrix of a finite curve set, enumerate all divisors
D = sum m_i C_i whose support configuration matches an affine Dynkin
diagram (I_n cycles, D~_n, E~_6/7/8) with the standard multiplicities,
group them into genus-1 fibrations by their intersection key, detect
sections, and count orbits under a small symmetry group.

A census holds its fibres as one (fibres x curves) int8 divisor matrix D,
built once, with its key matrix K = D.G.  The I_n and D~_n searches keep
vertex sets as int bitmasks, so every chordless and disjointness test is
one `&`, and emit flat (column, multiplicity) lists into D.  The E~ types
are numpy row blocks: each centre's arms are tested against each other
by broadcasting their vertex and reach masks.  find_fibres returns its
configurations, read off D's rows, as a RowTuple carrying D and K;
group_fibrations reuses both and returns a RowTuple carrying the key
matrix, from which orbit_count takes its rows.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import wraps
from itertools import chain, combinations
from math import gcd

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


# ---------------------------------------------------------------------------
# divisor and key matrices


def _divisors(cols, mults, lens, n):
    """The (len(lens) x n) int8 matrix whose row f takes the next lens[f]
    entries of the flat lists: multiplicity mults[k] in column cols[k]."""
    mults = np.asarray(mults, dtype=np.int64)
    if mults.size and int(np.abs(mults).max()) > 127:
        raise AssertionError("fibre multiplicities must fit in int8")
    D = np.zeros((len(lens), n), dtype=np.int8)
    D[np.repeat(np.arange(len(lens), dtype=np.intp), lens), cols] = mults
    return D


def _config_divisors(fibres, n):
    """_divisors of a sequence of FibreConfig."""
    lens = [len(cfg.components) for cfg in fibres]
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(cfg.components for cfg in fibres)),
        dtype=np.int64, count=2 * sum(lens))
    return _divisors(flat[0::2], flat[1::2], lens, n)


def _keys(S: CurveSet, D):
    """K = D.G as int16, by one float32 matrix product.  It is exact: every
    partial sum is an integer of size at most max_f sum_i |D_fi| * max |G|,
    asserted below 2^15, and float32 holds every integer below 2^24."""
    G = np.array(S.gram, dtype=np.int64)
    bound = int(np.abs(D).sum(axis=1, dtype=np.int64).max(initial=0)) \
        * int(np.abs(G).max(initial=0))
    if bound >= 2 ** 15:
        raise AssertionError(f"fibre keys may reach {bound}, beyond int16")
    return (D.astype(np.float32) @ G.astype(np.float32)).astype(np.int16)


def _matrices(fibres, S: CurveSet):
    """(D, K) of a fibre sequence: those find_fibres(S) carries, or else
    built from the configurations."""
    if isinstance(fibres, RowTuple) and getattr(fibres, "curves", None) is S:
        return fibres.D, fibres.K
    D = _config_divisors(fibres, S.n)
    return D, _keys(S, D)


def _configs(kinds, D):
    """A FibreConfig per row of D, its components the row's nonzero entries
    in column order; equal (index, multiplicity) pairs are one tuple."""
    rows, cols = np.nonzero(D)
    codes = cols * 128 + D[rows, cols]                  # multiplicities > 0
    pairs = [None] * (128 * D.shape[1])
    for c in np.flatnonzero(np.bincount(codes)).tolist():
        pairs[c] = (c >> 7, c & 127)
    flat = list(map(pairs.__getitem__, codes.tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=len(D))).tolist()
    return [FibreConfig(kind, tuple(flat[a:b]))
            for kind, a, b in zip(kinds, [0] + ends, ends)]


def fibre_key(S: CurveSet, cfg: FibreConfig):
    """Intersection vector (D.C_0, ..., D.C_{n-1}) of the fibre divisor D."""
    return tuple(_keys(S, _config_divisors([cfg], S.n))[0].tolist())


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
    re-verified against the Gram matrix.  The result is a RowTuple carrying
    the divisor matrix D, the key matrix K and S.
    """
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    g = S.gram
    n = S.n
    kinds, cols, mults, lens = [], [], [], []
    # I2: intersection number exactly 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if g[i][j] == 2]
    # I_m cycles, m >= 3: chordless cycles in the unit graph, where
    # "chordless" forbids any nonzero intersection between non-neighbours
    adj1 = _neighbors(S)
    nz = _nonzero_masks(S)
    cycles = _chordless_cycles(S, adj1, nz, max_n)
    for kind, c, m in chain((("I2", p, (1, 1)) for p in pairs),
                            ((f"I{len(c)}", c, (1,) * len(c)) for c in cycles),
                            _d_fibres(adj1, nz, n)):
        kinds.append(kind)
        cols.extend(c)
        mults.extend(m)
        lens.append(len(c))
    blocks = [_divisors(cols, mults, lens, n)]
    for kind in _E_ARMS:
        blocks.append(_e_rows(adj1, nz, n, kind))
        kinds.extend([kind] * len(blocks[-1]))
    D = np.concatenate(blocks)
    K = _keys(S, D)
    # D.C_i = 0 on every component (hence D.D = 0)
    bad = ((D != 0) & (K != 0)).any(axis=1)
    if bad.any():
        f = int(bad.argmax())
        raise AssertionError("enumerated config fails the invariants: "
                             f"{_configs(kinds[f:f + 1], D[f:f + 1])[0]}")
    return RowTuple(_configs(kinds, D), curves=S, D=D, K=K)


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


# center multiplicity and arm multiplicities (outward) of the affine E diagrams
_E_ARMS = {
    "E6": (3, [(2, 1), (2, 1), (2, 1)]),
    "E7": (4, [(3, 2, 1), (3, 2, 1), (2,)]),
    "E8": (6, [(5, 4, 3, 2, 1), (4, 2), (3,)]),
}


def _e_rows(adj1, nz, n, kind):
    """The affine E diagrams of one kind as int8 divisor rows: three
    disjoint, mutually untouching chordless arms from a center.  Arms of
    equal length are taken in increasing list order, so each diagram is
    found once, in the order of its first arm triple: arm pairs pass
    r1 & m2 = 0, then triples (r1 | r2) & m3 = 0, for vertex masks m and
    reach masks r, broadcast over each center's arms."""
    center_mult, arm_mults = _E_ARMS[kind]
    lengths = [len(a) for a in arm_mults]
    mults = np.array((center_mult,) + tuple(chain(*arm_mults)), dtype=np.int8)
    word = np.int64 if n < 64 else object       # masks of n bits
    blocks = [np.zeros((0, n), dtype=np.int8)]
    for c in range(n):
        arms = {L: _arms_from(adj1, nz, c, L) for L in set(lengths)}
        (V1, _, R1), (V2, M2, R2), (V3, M3, _) = (
            (np.array([a for a, _, _ in arms[L]], dtype=np.intp).reshape(-1, L),
             np.array([m for _, m, _ in arms[L]], dtype=word),
             np.array([r for _, _, r in arms[L]], dtype=word))
            for L in lengths)
        ok = (R1[:, None] & M2) == 0
        if lengths[1] == lengths[0]:
            ok &= np.arange(len(V2)) > np.arange(len(V1))[:, None]
        i, j = np.nonzero(ok)
        ok = ((R1[i] | R2[j])[:, None] & M3) == 0
        if lengths[2] == lengths[1]:
            ok &= np.arange(len(V3)) > j[:, None]
        t, k = np.nonzero(ok)
        i, j = i[t], j[t]
        cols = np.hstack([np.full((len(k), 1), c), V1[i], V2[j], V3[k]])
        block = np.zeros((len(k), n), dtype=np.int8)
        block[np.arange(len(k))[:, None], cols] = mults
        blocks.append(block)
    return np.concatenate(blocks)


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
