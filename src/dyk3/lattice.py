"""Exact integer-lattice algebra for the Picard computations.

Gram matrices are lists of lists of Python ints (arbitrary precision).
Everything runs over Z exactly: Bareiss determinants cross-checked against
Smith normal form products, discriminant groups from elementary divisors,
the index-2 overlattice candidate search over F_2, and C2 group cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod


def _check_symmetric(m):
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")


@dataclass
class GramLattice:
    labels: list
    gram: list

    def __post_init__(self):
        _check_symmetric(self.gram)
        if len(self.labels) != len(self.gram):
            raise ValueError("labels and gram size disagree")

    @classmethod
    def from_fixture(cls, fix):
        return cls(list(fix.labels), [list(r) for r in fix.gram])

    @property
    def n(self):
        return len(self.labels)

    def submatrix(self, idx):
        return [[self.gram[i][j] for j in idx] for i in idx]


# ---------------------------------------------------------------------------
# exact linear algebra


def bareiss_det(m) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def matrix_rank(m) -> int:
    """Rank over Q by fraction-free elimination."""
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                g = a[r][c]
                a[i] = [x * g - y * f for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


@dataclass
class SmithDecomposition:
    d: list          # full diagonal, including trailing zeros
    U: list
    V: list
    col_ops: list    # smith's column operations (i, j, k), in order

    @property
    def elementary_divisors(self):
        return [x for x in self.d if x not in (0, 1)]

    @cached_property
    def V_inv(self):
        """The exact integer inverse of V, built when first read: each column
        operation on V is the inverse row operation on V^-1."""
        W = [[int(i == j) for j in range(len(self.V))] for i in range(len(self.V))]
        for i, j, k in self.col_ops:
            if k is None:                           # columns i and j swapped
                W[i], W[j] = W[j], W[i]
            else:                                   # column i += k * column j
                W[j] = [x - k * y for x, y in zip(W[j], W[i])]
        return W


def smith(m) -> SmithDecomposition:
    """U*M*V = D diagonal with the divisibility chain, det U, V = +-1; the
    column operations are recorded, and V^-1 is built from them if read."""
    a = [list(map(int, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]
    col_ops = []

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        col_ops.append((i, j, None))

    def add_row(i, j, k):
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        U[i] = [x + k * y for x, y in zip(U[i], U[j])]

    def add_col(i, j, k):
        for r in a:
            r[i] += k * r[j]
        for r in V:
            r[i] += k * r[j]
        col_ops.append((i, j, k))

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
    return SmithDecomposition(d, U, V, col_ops)


def _matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            if Ai[k]:
                Bk = B[k]
                f = Ai[k]
                for j in range(cols):
                    out[i][j] += f * Bk[j]
    return out


# ---------------------------------------------------------------------------
# lattice operations


def kernel_relation(L: GramLattice):
    """Primitive integer basis of the radical {v : G v = 0}."""
    return _kernel_basis(L.gram)


def rank_det(L: GramLattice):
    """(rank, det of the spanned lattice).

    The rank is n minus the rank of the radical.  For nondegenerate input
    the determinant is the full Gram determinant; degenerate presentations
    are reduced to a basis of the span first.
    """
    snf = smith(L.gram)
    kernel = _kernel_basis(L.gram, snf)
    if kernel:
        _, W, r = _radical_split(L, kernel)
        return L.n - r, bareiss_det(_reduced_gram(L, W[r:]))
    det = bareiss_det(L.gram)
    if abs(det) != abs(prod(snf.d)):
        raise AssertionError("Bareiss and SNF determinants disagree")
    return L.n, det


def _radical_split(L: GramLattice, kernel=None):
    """(V, W, r): W = V^-1 is unimodular, its first r rows span the radical
    and the others are span_basis(L).  A generator vector x has coordinates
    x V on the rows of W, so its class in L/rad is (x V)[r:].  kernel is
    kernel_relation(L), when the caller has it."""
    if kernel is None:
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


def _reduced_gram(L: GramLattice, basis):
    """B G B^T for a row-basis B of the span."""
    G = L.gram
    BG = _matmul(basis, G)
    Bt = [[basis[j][i] for j in range(len(basis))] for i in range(len(G))]
    return _matmul(BG, Bt)


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
    _, W, r = _radical_split(L)
    snf = smith(_reduced_gram(L, W[r:]) if r else L.gram)
    if 0 in snf.d:
        raise ValueError("degenerate restriction")
    return snf.elementary_divisors


def index2_overlattice_candidates(L: GramLattice, reduce_span=True):
    """Nonzero classes [x] in L/2L with x.y even for all y and x^2 = 0 mod 8.

    Enumerated by F2 linear algebra on the evenness conditions, then
    filtered by the mod-8 condition.  Returns representative integer
    vectors in the basis used (span basis for degenerate presentations).
    """
    _, W, r = _radical_split(L) if reduce_span else (None, None, 0)
    basis = W[r:] if r else None
    red = _reduced_gram(L, basis) if r else L.gram
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


def c2_cohomology(gram, sigma):
    """(rank H^0, invariants H^1, invariants H^2) of the C2-module Z^n.

    sigma is the integer action matrix with sigma^2 = 1 (columns = images of
    basis vectors); when a Gram matrix is supplied, the action must be an
    isometry.  H^1 = ker(1+s)/im(s-1), H^2 = ker(s-1)/im(1+s).
    """
    n = len(sigma)
    s2 = _matmul(sigma, sigma)
    for i in range(n):
        for j in range(n):
            if s2[i][j] != int(i == j):
                raise ValueError("sigma^2 != identity")
    if gram is not None:
        st = [[sigma[j][i] for j in range(n)] for i in range(n)]
        if _matmul(_matmul(st, gram), sigma) != gram:
            raise ValueError("sigma does not preserve the Gram matrix")
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    minus = [[sigma[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    plus = [[sigma[i][j] + ident[i][j] for j in range(n)] for i in range(n)]
    h0 = n - matrix_rank(minus)
    h1 = _subquotient_invariants(_kernel_basis(plus), minus)
    h2 = _subquotient_invariants(_kernel_basis(minus), plus)
    return h0, h1, h2


def _kernel_basis(M, snf=None):
    """Integer basis of ker(M) on Z^n (saturated), read off M's Smith form
    snf (taken here when the caller has not)."""
    snf = snf or smith(M)
    n = len(M[0]) if M else 0
    rank = sum(1 for x in snf.d if x != 0)
    return [[snf.V[i][j] for i in range(n)] for j in range(rank, n)]


def _subquotient_invariants(kernel_rows, M):
    """Invariant factors of (ker)/(im M) inside Z^n.

    kernel_rows: basis of the kernel lattice K; im M is contained in K.
    Expresses the columns of M in the K-basis and takes elementary divisors.
    """
    if not kernel_rows:
        return []
    n = len(M)
    # solve K^T a = col for each column of M
    cols = []
    for j in range(n):
        col = [M[i][j] for i in range(n)]
        cols.append(col)
    # build matrix of K-coordinates: K is (r x n), each col c = sum a_i K_i
    r = len(kernel_rows)
    coords = []
    for col in cols:
        a = _solve_int(kernel_rows, col)
        if a is None:
            raise AssertionError("image not contained in kernel")
        coords.append(a)
    # quotient K / <coords>
    mat = [[coords[j][i] for j in range(len(coords))] for i in range(r)]
    divisors = smith(mat).d
    out = [x for x in divisors if x not in (0, 1)]
    free = r - sum(1 for x in divisors if x != 0)
    return out + [0] * free


def _solve_int(rows, target):
    """Integer solution a with sum a_i rows_i = target, or None."""
    r = len(rows)
    n = len(target)
    A = [[rows[i][j] for i in range(r)] for j in range(n)]  # n x r
    snf = smith(A)
    # A a = t -> U A V (V^{-1} a) = U t
    Ut = [sum(snf.U[i][k] * target[k] for k in range(n)) for i in range(n)]
    y = [0] * r
    for i in range(min(r, n)):
        d = snf.d[i] if i < len(snf.d) else 0
        if d == 0:
            if Ut[i] != 0:
                return None
            continue
        if Ut[i] % d:
            return None
        y[i] = Ut[i] // d
    for i in range(min(r, n), n):
        if Ut[i] != 0:
            return None
    a = [sum(snf.V[i][k] * y[k] for k in range(r)) for i in range(r)]
    return a


def apply_basis_change(L: GramLattice, transform):
    """New GramLattice with generators transform[i] = sum_j c_ij old_j."""
    new_gram = _reduced_gram(L, transform)
    labels = [f"g{i}" for i in range(len(transform))]
    return GramLattice(labels, new_gram)


def direct_sum_split_check(L: GramLattice, partition) -> bool:
    """True iff all cross-block Gram entries vanish for the index partition."""
    seen = sorted(i for block in partition for i in block)
    if seen != list(range(L.n)):
        raise ValueError("partition does not cover the basis")
    for a in range(len(partition)):
        for b in range(a + 1, len(partition)):
            for i in partition[a]:
                for j in partition[b]:
                    if L.gram[i][j] != 0:
                        return False
    return True
