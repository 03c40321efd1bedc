"""The lattice invariants as lattice.py computed them before each call
took its rank from one radical split, kept to test against.

rank_det, discriminant_group and index2_overlattice_candidates each ran a
separate elimination (matrix_rank) for the rank and then split off the
radical again; smith built V^-1 alongside V on every call.  The code is
copied unchanged; the helpers that did not change (bareiss_det,
matrix_rank, _matmul, _reduced_gram, GramLattice) come from dyk3.lattice.
"""

from dataclasses import dataclass

from dyk3.lattice import (GramLattice, _matmul, _reduced_gram, bareiss_det,
                          matrix_rank)


def kernel_relation(L: GramLattice):
    """Primitive integer basis of the radical {v : G v = 0}."""
    return _kernel_basis(L.gram)


@dataclass
class SmithDecomposition:
    d: list          # full diagonal, including trailing zeros
    U: list
    V: list
    V_inv: list      # the exact integer inverse of V

    @property
    def elementary_divisors(self):
        return [x for x in self.d if x not in (0, 1)]


def smith(m) -> SmithDecomposition:
    """U*M*V = D diagonal with the divisibility chain, det U, V = +-1.

    V^-1 is kept alongside V: a column operation on V is the inverse row
    operation on V^-1."""
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]
    V_inv = [row[:] for row in V]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        V_inv[i], V_inv[j] = V_inv[j], V_inv[i]

    def add_row(i, j, k):
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        U[i] = [x + k * y for x, y in zip(U[i], U[j])]

    def add_col(i, j, k):
        for r in a:
            r[i] += k * r[j]
        for r in V:
            r[i] += k * r[j]
        V_inv[j] = [x - k * y for x, y in zip(V_inv[j], V_inv[i])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(rows, cols):
        # least |nonzero| pivot in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] % a[t][t]:
                dirty = True
            add_row(i, t, -(a[i][t] // a[t][t]))
        for j in range(t + 1, cols):
            if a[t][j] % a[t][t]:
                dirty = True
            add_col(j, t, -(a[t][j] // a[t][t]))
        if any(a[i][t] for i in range(t + 1, rows)) or \
           any(a[t][j] for j in range(t + 1, cols)):
            continue
        # divisibility: pivot must divide everything below-right
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            add_row(t, offender[0], 1)
            continue
        t += 1
    d = [a[i][i] for i in range(min(rows, cols))]
    det_u = bareiss_det(U) if rows else 1
    det_v = bareiss_det(V) if cols else 1
    if abs(det_u) != 1 or abs(det_v) != 1:
        raise AssertionError("transforms not unimodular")
    # round-trip check
    prod = _matmul(_matmul(U, m), V)
    for i in range(rows):
        for j in range(cols):
            want = d[i] if (i == j and i < len(d)) else 0
            if prod[i][j] != want:
                raise AssertionError("SNF round trip failed")
    return SmithDecomposition(d, U, V, V_inv)


def rank_det(L: GramLattice):
    """(rank, det of the spanned lattice).

    For nondegenerate input the determinant is the full Gram determinant;
    degenerate presentations are reduced to a basis of the span first.
    """
    rank = matrix_rank(L.gram)
    if rank == L.n:
        det = bareiss_det(L.gram)
        snf_prod = 1
        for x in smith(L.gram).d:
            snf_prod *= x
        if abs(det) != abs(snf_prod):
            raise AssertionError("Bareiss and SNF determinants disagree")
        return rank, det
    basis = span_basis(L)
    red = _reduced_gram(L, basis)
    det = bareiss_det(red)
    return rank, det


def _radical_split(L: GramLattice):
    """(V, W, r): W = V^-1 is unimodular, its first r rows span the radical
    and the others are span_basis(L).  A generator vector x has coordinates
    x V on the rows of W, so its class in L/rad is (x V)[r:]."""
    kernel = kernel_relation(L)
    ident = [[int(i == j) for j in range(L.n)] for i in range(L.n)]
    if not kernel:
        return ident, ident, 0
    # with U K V = D and D = (I 0) for a saturated K, the rows of K span the
    # same lattice as the first r rows of V^-1
    snf = smith(kernel)
    for x in snf.d:
        if x not in (0, 1):
            raise AssertionError("radical is not saturated")
    if _matmul(snf.V, snf.V_inv) != ident:
        raise AssertionError("V V^-1 is not the identity")
    return snf.V, snf.V_inv, len(kernel)


def span_basis(L: GramLattice):
    """Rows of an integer matrix B (r x n) such that the classes of the
    generators span the same lattice as the rows of B, with the radical
    quotiented away exactly (unimodular completion of the kernel)."""
    _, W, r = _radical_split(L)
    return W[r:]


def span_action(L: GramLattice, perm):
    """(reduced Gram, sigma) for a permutation of the generators: the Gram
    on span_basis(L), and the integer matrix sigma of the induced action on
    that basis (column k = class in L/rad of the image of basis row k), the
    input of c2_cohomology.  None when those classes are no basis of L/rad,
    so that the permutation does not map the span onto itself."""
    V, W, r = _radical_split(L)
    n = L.n
    sig = [[0] * (n - r) for _ in range(n - r)]
    for k, row in enumerate(W[r:]):
        x = [row[perm.index(j)] for j in range(n)]
        for i in range(r, n):
            sig[i - r][k] = sum(x[m] * V[m][i] for m in range(n))
    if abs(bareiss_det(sig)) != 1:
        return None
    return _reduced_gram(L, W[r:]), sig


def discriminant_group(L: GramLattice):
    """Elementary divisors != 1 of the Gram on a basis of the span."""
    rank = matrix_rank(L.gram)
    if rank == L.n:
        red = L.gram
    else:
        red = _reduced_gram(L, span_basis(L))
    if matrix_rank(red) != len(red):
        raise ValueError("degenerate restriction")
    return smith(red).elementary_divisors


def index2_overlattice_candidates(L: GramLattice, reduce_span=True):
    """Nonzero classes [x] in L/2L with x.y even for all y and x^2 = 0 mod 8.

    Enumerated by F2 linear algebra on the evenness conditions, then
    filtered by the mod-8 condition.  Returns representative integer
    vectors in the basis used (span basis for degenerate presentations).
    """
    if reduce_span and matrix_rank(L.gram) != L.n:
        basis = span_basis(L)
        red = _reduced_gram(L, basis)
    else:
        basis = None
        red = L.gram
    n = len(red)
    # solve G x = 0 mod 2
    rows = [[red[i][j] % 2 for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    sols = []
    for mask in range(1, 1 << len(free)):
        x = [0] * n
        for k, c in enumerate(free):
            if (mask >> k) & 1:
                x[c] = 1
        # back substitute
        for idx in range(len(pivots) - 1, -1, -1):
            c = pivots[idx]
            s = sum(rows[idx][j] * x[j] for j in range(c + 1, n)) % 2
            x[c] = s
        norm = sum(red[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if norm % 8 == 0:
            sols.append(tuple(x))
    return {"candidates": sols, "basis": basis}


def _kernel_basis(M):
    """Integer basis of ker(M) on Z^n (saturated)."""
    snf = smith(M)
    n = len(M[0])
    rank = sum(1 for x in snf.d if x != 0)
    return [[snf.V[i][j] for i in range(n)] for j in range(rank, n)]
