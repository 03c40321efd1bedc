"""Combinatorial search for Kodaira fibres in a set of -2-curves.

Given the intersection matrix of a finite curve set, enumerate all divisors
D = sum m_i C_i whose support configuration matches an affine Dynkin
diagram (I_n cycles, D~_n, E~_6/7/8) with the standard multiplicities,
group them into genus-1 fibrations by their intersection key, detect
sections, and count orbits under a small symmetry group.

A census holds its fibres as one (fibres x curves) int8 divisor matrix D,
built once, with its key matrix K = D.G; each fibre type is a row block.
The I_n cycles, D~_n chains and E~ arms are filters on one step that
extends every induced unit-edge path of one length at once, on vertex
bitmasks (_Graph.extend); a lexsort puts the rows in depth-first order.
The census is counted off arrays: FibreConfigs are read off D only when
indexed, fibrations are views of the sorted key matrix, and orbit_count
canonicalises that matrix once per symmetry group.
"""

from __future__ import annotations

import gc
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import itemgetter

import numpy as np


@dataclass(frozen=True, slots=True)
class FibreConfig:
    kind: str                 # "I3", "D4", "D5", ..., "E6", "E7", "E8"
    components: tuple         # ((index, multiplicity), ...) sorted by index

    def divisor(self, n):
        mult = dict(self.components)
        return [mult.get(i, 0) for i in range(n)]


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


class Fibres(Sequence):
    """find_fibres' fibres on the CurveSet `curves`: their kinds and their
    read-only int8 divisor matrix D and int16 key matrix K, a row per fibre.
    Its items, FibreConfigs read off D's rows, are built on the first index
    or iteration and kept; a slice is a plain tuple."""

    def __init__(self, kinds, D, K, curves):
        D.flags.writeable = K.flags.writeable = False
        self.kinds, self.D, self.K, self.curves = tuple(kinds), D, K, curves
        self._items = None

    def __len__(self):
        return len(self.kinds)

    def __getitem__(self, k):
        if self._items is None:
            self._items = tuple(_configs(self.kinds, self.D))
        return self._items[k]

    def __iter__(self):
        return iter(self[:])


# ---------------------------------------------------------------------------
# divisor and key matrices


def _config_divisors(fibres, n):
    """The (len(fibres) x n) int8 divisor matrix of a sequence of FibreConfig."""
    lens = [len(cfg.components) for cfg in fibres]
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(cfg.components for cfg in fibres)),
        dtype=np.int64, count=2 * sum(lens))
    mults = flat[1::2]
    if mults.size and int(np.abs(mults).max()) > 127:
        raise AssertionError("fibre multiplicities must fit in int8")
    D = np.zeros((len(lens), n), dtype=np.int8)
    D[np.repeat(np.arange(len(lens), dtype=np.intp), lens), flat[0::2]] = mults
    return D


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


def _configs(kinds, D):
    """A FibreConfig per row of D, its components the row's nonzero entries
    in column order; equal (index, multiplicity) pairs are one tuple.  The
    objects hold no cycles, so the cyclic collector is paused meanwhile."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows, cols = np.nonzero(D)
        codes = cols * 128 + D[rows, cols]              # multiplicities > 0
        pairs = [None] * (128 * D.shape[1])
        for c in np.flatnonzero(np.bincount(codes)).tolist():
            pairs[c] = (c >> 7, c & 127)
        flat = list(map(pairs.__getitem__, codes.tolist()))
        ends = np.cumsum(np.bincount(rows, minlength=len(D))).tolist()
        return [FibreConfig(kind, tuple(flat[a:b]))
                for kind, a, b in zip(kinds, [0] + ends, ends)]
    finally:
        if was_enabled:
            gc.enable()


def fibre_key(S: CurveSet, cfg: FibreConfig):
    """Intersection vector (D.C_0, ..., D.C_{n-1}) of the fibre divisor D."""
    return tuple(_keys(S, _config_divisors([cfg], S.n))[0].tolist())


# ---------------------------------------------------------------------------
# enumeration


def _rows(cols, mults, n):
    """int8 divisor rows with multiplicity mults[k] in column cols[f, k]."""
    D = np.zeros((len(cols), n), dtype=np.int8)
    D[np.arange(len(cols))[:, None], cols] = mults
    return D


def _cross(f, g):
    """The index pairs (x, y) with f[x] == g[y], g ascending, ordered by x
    and then y: a join of two row lists on their keys."""
    cnt = np.bincount(g, minlength=int(f.max(initial=-1)) + 1)
    rep = cnt[f]
    x = np.repeat(np.arange(len(f)), rep)
    first = (np.cumsum(cnt) - cnt)[f] - np.cumsum(rep) + rep
    return x, np.repeat(first, rep) + np.arange(len(x))


def _in_preorder(found):
    """(kinds, int8 rows) of the items a walk emits at its paths, in the
    pre-order of a depth-first walk visiting children in descending curve
    order.  found holds (kind, paths, tails, rows) per path length, a tail
    ordering the items of one path.  Keys (v0, -v1, ..., -vk, sentinel,
    tail), the sentinel below every -v, put a path before its extensions."""
    width = 1 + max(P.shape[1] + T.shape[1] for _, P, T, _ in found)
    kinds, keys = [], []
    for kind, P, T, _ in found:
        k = P.shape[1]
        key = np.zeros((len(P), width), dtype=np.intp)
        key[:, 0], key[:, 1:k] = P[:, 0], -P[:, 1:]
        key[:, k], key[:, k + 1:k + 1 + T.shape[1]] = np.iinfo(np.intp).min, T
        kinds += [kind] * len(P)
        keys.append(key)
    order = np.lexsort(np.concatenate(keys).T[::-1])
    D = np.concatenate([rows for _, _, _, rows in found])
    return [kinds[f] for f in order.tolist()], D[order]


class _Graph:
    """A curve set's unit graph, for a walk over induced paths that extends
    all paths of one length at once.  adj1[v] lists the curves meeting v
    once, ascending; nz1[v] is the bitmask of the curves u != v meeting v.
    As arrays, adj lists unit neighbours in descending order, padded with
    n; bit and nz hold each curve's bit and nz1 mask, all ones at the pad
    n, so that a pad never passes a mask test.  Masks are int64 below 64
    curves and Python ints (object arrays) above."""

    def __init__(self, S: CurveSet):
        n = self.n = S.n
        self.adj1 = [[u for u, x in enumerate(row) if u != v and x == 1]
                     for v, row in enumerate(S.gram)]
        self.nz1 = [sum(1 << u for u, x in enumerate(row) if u != v and x)
                    for v, row in enumerate(S.gram)]
        word = np.int64 if n < 64 else object
        deg = max(map(len, self.adj1), default=0)
        self.adj = np.array([a[::-1] + [n] * (deg - len(a)) for a in self.adj1],
                            dtype=np.intp).reshape(n, deg)
        self.bit = np.array([1 << v for v in range(n)] + [-1], dtype=word)
        self.nz = np.array(self.nz1 + [-1], dtype=word)
        self.gram = np.array(S.gram, dtype=np.int64).reshape(n, n)

    def extend(self, P, PM, forbid):
        """(parent rows, paths, masks) of every one-edge extension of the
        paths P (with vertex masks PM) whose new end is off its path and
        meets no curve in its row of forbid, by row, then descending end."""
        W = self.adj[P[:, -1]]
        ok = (self.bit[W] & PM[:, None]) == 0
        ok &= (self.nz[W] & forbid[:, None]) == 0
        rows, k = np.nonzero(ok)
        w = W[rows, k]
        return rows, np.column_stack((P[rows], w)), PM[rows] | self.bit[w]

    def cycles(self, max_n):
        """I_m, 3 <= m <= max_n: each chordless unit-edge cycle once, rooted
        at its least curve r, its second curve below its last.  A path from
        r grows by curves above r that touch nothing of its interior; a
        curve meeting r once closes it, a curve meeting r more ends it."""
        bit, found = self.bit, []
        P, PM = np.arange(self.n)[:, None], bit[:-1]
        for k in range(2, max_n + 1):               # paths of k curves
            _, P, PM = self.extend(P, PM, PM & ~bit[P[:, 0]] & ~bit[P[:, -1]])
            r, w = P[:, 0], P[:, -1]
            keep, g = w > r, self.gram[r, w]
            C = P[keep & (g == 1) & (P[:, 1] < w)]          # none for k = 2
            found.append((f"I{k}", C[:, :-1], C[:, -1:], _rows(C, 1, self.n)))
            if k > 2:
                keep &= g == 0
            P, PM = P[keep], PM[keep]
            if not len(P):
                break
        return _in_preorder(found)

    def d4(self):
        """D~4: a centre with four pairwise untouching unit neighbours."""
        stars = [(c,) + legs for c, adj in enumerate(self.adj1)
                 for legs in combinations(adj, 4) if not any(
                     self.nz1[a] >> b & 1 for a, b in combinations(legs, 2))]
        cols = np.array(stars, dtype=np.intp).reshape(-1, 5)
        return ["D4"] * len(stars), _rows(cols, (2, 1, 1, 1, 1), self.n)

    def chains(self):
        """D~_m, 5 <= m <= 17: a chain of m - 3 curves (multiplicity 2), an
        induced path with its first curve below its last, and at each end a
        fork pair, two untouching unit neighbours of the end that miss the
        rest of the chain, the two pairs untouching.  A path grows while a
        fork pair at its first curve misses it, up to 14 curves (D~17): a
        fibre adds at most rho - 2 = 17 to the trivial lattice's rank."""
        bit, nz, n, found = self.bit, self.nz1, self.n, []
        pairs = [[(a, b) for a, b in combinations(adj, 2) if not nz[a] >> b & 1]
                 for adj in self.adj1]
        AB = np.full((n + 1, max(map(len, pairs), default=0), 2), n, np.intp)
        for v, ps in enumerate(pairs):
            AB[v, :len(ps)] = np.reshape(ps, (-1, 2))
        A, B = AB[..., 0], AB[..., 1]               # in combinations order
        R = bit[A] | bit[B] | self.nz[A] | self.nz[B]   # pair and all it meets

        def pairs_missing(P, PM, end):              # fork pairs at P[:, end]
            x = P[:, end]
            return (R[x] & (PM & ~bit[x])[:, None]) == 0

        roots = np.flatnonzero(list(map(len, pairs)))
        P, PM = roots[:, None], bit[roots]
        for k in range(2, 15):                      # chains of k curves
            _, P, PM = self.extend(P, PM, PM & ~bit[P[:, -1]])
            left = pairs_missing(P, PM, 0)
            keep = left.any(axis=1)
            out = keep & (P[:, 0] < P[:, -1])
            C = P[out]
            f, li = np.nonzero(left[out])
            g, ri = np.nonzero(pairs_missing(C, PM[out], -1))
            x, y = _cross(f, g)
            f, li, ri = f[x], li[x], ri[y]
            s, e = C[f, 0], C[f, -1]
            legs = np.column_stack((A[s, li], B[s, li], A[e, ri], B[e, ri]))
            ok = (R[s, li] & (bit[legs[:, 2]] | bit[legs[:, 3]])) == 0
            C = C[f[ok]]
            found.append((f"D{k + 3}", C, np.column_stack((li, ri))[ok], _rows(
                np.column_stack((C, legs[ok])), (2,) * k + (1,) * 4, n)))
            P, PM = P[keep], PM[keep]
            if not len(P):
                break
        return _in_preorder(found)

    def arms(self):
        """{L: (centres, arms, masks, reaches)}: each chordless path of L
        curves hanging off a centre, with its vertex mask, and that mask
        joined with every curve the arm meets.  Rows come sorted by (c,
        -a1, ..., -aL), as each length extends the last's rows in order."""
        bit, out = self.bit, {}
        P, PM = np.arange(self.n)[:, None], bit[:-1]
        U = np.zeros(self.n, dtype=PM.dtype)        # curves the arm meets
        for L in range(1, 6):
            rows, P, PM = self.extend(P, PM, PM & ~bit[P[:, -1]])
            U, M = U[rows] | self.nz[P[:, -1]], PM & ~bit[P[:, 0]]
            out[L] = (P[:, 0], P[:, 1:], M, M | U)
        return out


def find_fibres(S: CurveSet, max_n: int = 16):
    """All Kodaira fibres supported on S with I_n cycles up to length max_n.

    I2 = pairs meeting with intersection number 2; I_n (n >= 3) = chordless
    unit-edge cycles; D~_n and E~_6/7/8 by explicit diagram matching.  Each
    search finds every configuration once.  Every emitted configuration is
    re-verified against the Gram matrix, and all are returned as Fibres.
    """
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    n, T = S.n, _Graph(S)
    pairs = np.column_stack(np.nonzero(np.triu(T.gram == 2, 1)))
    kinds, blocks = ["I2"] * len(pairs), [_rows(pairs, 1, n)]
    for block_kinds, block in (T.cycles(max_n), T.d4(), T.chains()):
        kinds += block_kinds
        blocks.append(block)
    arms = T.arms()
    for kind in _E_ARMS:
        blocks.append(_e_rows(arms, n, kind))
        kinds += [kind] * len(blocks[-1])
    D = np.concatenate(blocks)
    K = _keys(S, D)
    # D.C_i = 0 on every component (hence D.D = 0)
    bad = ((D != 0) & (K != 0)).any(axis=1)
    if bad.any():
        f = int(bad.argmax())
        raise AssertionError("enumerated config fails the invariants: "
                             f"{_configs(kinds[f:f + 1], D[f:f + 1])[0]}")
    return Fibres(kinds, D, K, S)


# center multiplicity and arm multiplicities (outward) of the affine E diagrams
_E_ARMS = {
    "E6": (3, [(2, 1), (2, 1), (2, 1)]),
    "E7": (4, [(3, 2, 1), (3, 2, 1), (2,)]),
    "E8": (6, [(5, 4, 3, 2, 1), (4, 2), (3,)]),
}


def _e_rows(arms, n, kind):
    """The affine E diagrams of one kind as int8 divisor rows: three
    disjoint, mutually untouching chordless arms from a centre, taken from
    _Graph.arms.  Arms of equal length are taken in increasing row order,
    so each diagram is found once, ordered by centre and then by its arm
    triple: arm pairs at one centre pass r1 & m2 = 0, then triples
    (r1 | r2) & m3 = 0, for vertex masks m and reach masks r."""
    center_mult, arm_mults = _E_ARMS[kind]
    (C1, V1, _, R1), (C2, V2, M2, R2), (C3, V3, M3, _) = (
        arms[len(a)] for a in arm_mults)
    L1, L2, L3 = map(len, arm_mults)
    i, j = _cross(C1, C2)
    ok = (R1[i] & M2[j]) == 0
    if L2 == L1:
        ok &= j > i
    i, j = i[ok], j[ok]
    t, k = _cross(C1[i], C3)
    ok = ((R1[i[t]] | R2[j[t]]) & M3[k]) == 0
    if L3 == L2:
        ok &= k > j[t]
    t, k = t[ok], k[ok]
    i, j = i[t], j[t]
    cols = np.column_stack((C1[i], V1[i], V2[j], V3[k]))
    return _rows(cols, (center_mult,) + tuple(chain(*arm_mults)), n)


# ---------------------------------------------------------------------------
# grouping into fibrations


class Fibrations(Sequence):
    """group_fibrations' fibrations: the read-only uint8 matrix `keys` of
    their sorted keys, its masks has_section (gcd 1) and has_section_in_set
    (an entry 1), and orbit_count's labels per symmetry group.  Fibration
    k holds fibres[i] for i in order[ends[k - 1]:ends[k]]; item k is a
    _Fibration view, and a slice a tuple of views."""

    def __init__(self, keys, fibres, order, ends):
        keys.flags.writeable = False
        self.keys, self._fibres, self._order, self._ends = keys, fibres, order, ends
        self.has_section = np.gcd.reduce(keys, axis=1) == 1
        self.has_section_in_set = (keys == 1).any(axis=1)
        self._orbits = {}

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        k = range(len(self))[k]
        return _Fibration((self, k, bool(self.has_section[k]),
                           bool(self.has_section_in_set[k])))

    def __iter__(self):
        return map(_Fibration, zip(repeat(self), range(len(self)),
                                   self.has_section.tolist(),
                                   self.has_section_in_set.tolist()))


class _Fibration(tuple):
    """A view (fibrations, k, has_section, has_section_in_set) of fibration
    k; its key and its fibres are read when asked."""
    __slots__ = ()
    has_section = property(itemgetter(2))
    has_section_in_set = property(itemgetter(3))

    @property
    def key(self):          # intersection vector of D against the curve set
        return tuple(self[0].keys[self[1]].tolist())

    @property
    def fibres(self):       # in input order
        of, k = self[0], self[1]
        rows = of._order[of._ends[k - 1] if k else 0:of._ends[k]]
        return [of._fibres[i] for i in rows.tolist()]


def group_fibrations(fibres, S: CurveSet):
    """Group fibres by their intersection key; check pairwise disjointness.

    Fibrations come out sorted by key, each listing its fibres in input
    order, as Fibrations.  Keys are compared as byte strings: their entries
    are asserted to lie in [0, 127], where byte order is numeric order.
    """
    n, empty = S.n, np.zeros(0, dtype=np.intp)
    if not len(fibres):
        return Fibrations(np.zeros((0, n), dtype=np.uint8), fibres, empty, empty)
    if isinstance(fibres, Fibres) and fibres.curves is S:
        D, K = fibres.D, fibres.K
    else:                           # configurations, or another set's fibres
        D = _config_divisors(fibres, n)
        K = _keys(S, D)
    if K.min() < 0 or K.max() > 127:
        raise AssertionError("fibre key entries must lie in [0, 127]")
    K = K.astype(np.uint8)
    dd = np.einsum("ij,ij->i", D, K, dtype=np.int64)      # D.D = D.key
    order = np.argsort(K.view(np.dtype((np.void, n))).ravel(), kind="stable")
    K = K[order]
    same = (K[1:] == K[:-1]).all(axis=1)        # fibre and the next: one key
    # each fibre a listed before a fibre b of its group must miss it; with
    # one key per group, D_a.G.D_b = D_a.key_b = D_a.key_a = D_a.D_a
    if dd[order[:-1][same]].any():
        raise ValueError("key collision with nonzero intersection: the curve "
                         "set does not span the ambient Picard lattice")
    ends = np.append(np.flatnonzero(~same) + 1, len(K))
    return Fibrations(K[ends - 1], fibres, order, ends)


def orbit_count(fibrations, generators, S: CurveSet,
                predicate=None) -> int:
    """Orbits of the induced action on fibration keys.

    generators: label permutations as index lists; must preserve the Gram.
    The orbit representative is the lexicographically least permuted key;
    keys are compared as byte strings, so their entries must lie in [0, 255].
    Fibrations keep the labels per group; a predicate only selects among them.
    """
    G = np.array(S.gram)
    for perm in generators:
        if not np.array_equal(G[np.ix_(perm, perm)], G):
            raise ValueError("generator does not preserve the Gram")
    group = _generated_group(generators, S.n)
    if not len(fibrations):
        return 0
    if not isinstance(fibrations, Fibrations):      # a sequence of keyed items
        keys = np.array([f.key for f in fibrations], dtype=np.uint8)
        labels = _orbit_labels(keys, group)
    elif group in fibrations._orbits:
        labels = fibrations._orbits[group]
    else:
        labels = fibrations._orbits[group] = _orbit_labels(fibrations.keys, group)
    if predicate is not None:
        labels = labels[[k for k, f in enumerate(fibrations) if predicate(f)]]
    return int(np.count_nonzero(np.bincount(labels)))


def _orbit_labels(keys, group):
    """A label per key row, shared by the rows of one orbit of the group:
    the rank of the row's least permuted key among all of them."""
    canon = None
    for p in group:
        moved = np.ascontiguousarray(keys[:, p]).view(f"S{keys.shape[1]}").ravel()
        canon = moved if canon is None else np.where(moved < canon, moved, canon)
    return np.unique(canon, return_inverse=True)[1]


def _generated_group(generators, n):
    """The permutations of range(n) that the generators generate, sorted."""
    group, new = set(), {tuple(range(n))}
    while new:
        group |= new
        new = {tuple(g[i] for i in h) for g in new for h in generators} - group
    return tuple(sorted(group))
