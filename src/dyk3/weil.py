"""Frobenius spectrum reconstruction on H^2 from point counts.

The 22 eigenvalues split into a known algebraic multiset
{p x 18, (5/p) p} (the divisor classes, one conjugate-swapped pair) and a
transcendental cubic factor (T - s p)(T^2 - p c T + p^2) with s = +-1 and
c = 2 cos(theta) rational.  Counts over F_p and F_{p^2} determine (s, c)
up to a flagged ambiguity; the reduction Picard rank and the square class
of the Artin-Tate product follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ffield import kronecker
from .numfield import rational_sqrt, squarefree_kernel
from .poly import Poly, QQ


def algebraic_trace(p: int, n: int, kron5: int) -> int:
    """Trace of Frobenius^n on the algebraic part: 18 p^n + (kron5 * p)^n."""
    return 18 * p ** n + (kron5 * p) ** n


def transcendental_traces(count1: int, count2: int, p: int,
                          kron5: int | None = None):
    """(mu1, mu2) from |S(F_p)| and |S(F_{p^2})|."""
    if kron5 is None:
        kron5 = kronecker(5, p)
    mu1 = count1 - 1 - p ** 2 - algebraic_trace(p, 1, kron5)
    mu2 = count2 - 1 - p ** 4 - algebraic_trace(p, 2, kron5)
    if abs(mu1) > 3 * p:
        raise ValueError(f"mu1 = {mu1} violates |mu1| <= 3p")
    if abs(mu2) > 3 * p * p:
        raise ValueError(f"mu2 = {mu2} violates |mu2| <= 3p^2")
    return mu1, mu2


@dataclass
class FrobeniusSpectrum:
    p: int
    kron5: int
    mu1: int
    mu2: int
    s: int | None = None            # sign of the real transcendental root / p
    c: Fraction | None = None       # 2 cos(theta) of the rotation pair
    ambiguous: bool = False

    @property
    def solved(self):
        return self.s is not None and not self.ambiguous

    @property
    def rho(self) -> int:
        """Tate-conjecture rank at n = 1: roots literally equal to +-p."""
        if not self.solved:
            raise ValueError("spectrum not solved")
        return 22 if abs(self.c) == 2 else 20

    @property
    def potential_rank_degree(self):
        """Smallest m with every transcendental eigenvalue equal to +-p^m,
        or None if the rotation pair is not a root of unity times p."""
        if not self.solved:
            raise ValueError("spectrum not solved")
        c = self.c
        if abs(c) == 2:
            return 1
        if c == 0:
            return 2
        if abs(c) == 1:
            return 3
        return None

    def verify_roundtrip(self):
        p = self.p
        assert self.mu1 == self.s * p + p * self.c
        assert self.mu2 == p * p * (self.c * self.c - 1)


def _branches(mu1: int, mu2: int, p: int):
    """The (s, c) consistent with the traces: c = +-sqrt(mu2/p^2 + 1)
    rational with |c| <= 2, and s = mu1/p - c in {+-1}."""
    c0 = rational_sqrt(Fraction(mu2, p * p) + 1)
    if c0 is None:
        raise ValueError("c^2 is not a rational square: inconsistent counts")
    sols = []
    for c in {c0, -c0}:
        s = Fraction(mu1, p) - c
        if s in (1, -1) and abs(c) <= 2:
            sols.append((int(s), c))
    return sols


def solve_transcendental(mu1: int, mu2: int, p: int,
                         kron5: int | None = None) -> FrobeniusSpectrum:
    """Recover (s, c) from the two transcendental traces.

    c^2 = mu2/p^2 + 1 must have a rational square root; each sign of c gives
    s = mu1/p - c which must be +-1.  Two consistent pairs (possible only
    for c in {0, +-1}) are flagged ambiguous: a degree-3 count decides.
    """
    if kron5 is None:
        kron5 = kronecker(5, p)
    spec = FrobeniusSpectrum(p, kron5, mu1, mu2)
    sols = _branches(mu1, mu2, p)
    if not sols:
        raise ValueError("no consistent (s, c): inconsistent counts")
    if len(sols) > 1:
        spec.ambiguous = True
        spec.s, spec.c = sols[0]
        return spec
    spec.s, spec.c = sols[0]
    spec.verify_roundtrip()
    return spec


def resolve_ambiguity(spec: FrobeniusSpectrum, count3: int) -> FrobeniusSpectrum:
    """Pick the (s, c) branch matching a direct degree-3 count."""
    for s, c in _branches(spec.mu1, spec.mu2, spec.p):
        trial = FrobeniusSpectrum(spec.p, spec.kron5, spec.mu1, spec.mu2, s, c)
        if predicted_count(trial, 3) == count3:
            trial.verify_roundtrip()
            return trial
    raise ValueError("no branch matches the degree-3 count")


def artin_tate_sqclass(spec: FrobeniusSpectrum) -> int:
    """Squarefree positive integer representing |disc Pic| mod squares.

    The non-(+-q) roots contribute q(2 - c) up to squares.
    """
    if spec.rho != 20:
        raise ValueError("square class only defined for rank-20 spectra")
    val = spec.p * (2 - spec.c)
    n = abs(val.numerator * val.denominator)
    return squarefree_kernel(n)


def van_luijk(spec_a: FrobeniusSpectrum, spec_b: FrobeniusSpectrum) -> int:
    """19 if the two square classes differ (rank bound drops), else 20."""
    if spec_a.rho != 20 or spec_b.rho != 20:
        raise ValueError("van Luijk comparison needs two rank-20 spectra")
    return 19 if artin_tate_sqclass(spec_a) != artin_tate_sqclass(spec_b) else 20


def charpoly(spec: FrobeniusSpectrum):
    """Coefficients (low-to-high, Fractions) of the degree-22 polynomial
    (T-p)^18 (T - kron5 p) (T - s p) (T^2 - p c T + p^2)."""
    if not spec.solved:
        raise ValueError("spectrum not solved")
    p = Fraction(spec.p)
    T = Poly.x(QQ)
    poly = ((T - p) ** 18 * (T - spec.kron5 * p) * (T - spec.s * p)
            * (T * T - p * spec.c * T + p * p))
    # transcendental cubic has integer coefficients
    cubic = [spec.s * p ** 3 * -1, p * p + spec.s * p * p * spec.c,
             -(spec.s * p + p * spec.c), Fraction(1)]
    for cc in cubic:
        if Fraction(cc).denominator != 1:
            raise AssertionError("transcendental cubic coefficient not integral")
    return poly.coeffs


def functional_equation_sign(coeffs, p: int):
    """T^22 P(p^2/T) = sign * p^22 P(T); returns sign or raises."""
    q2 = Fraction(p * p)
    n = len(coeffs) - 1
    lhs = [coeffs[n - i] * q2 ** (n - i) for i in range(n + 1)]
    scale = Fraction(p) ** 22
    plus = all(lhs[i] == scale * coeffs[i] for i in range(n + 1))
    minus = all(lhs[i] == -scale * coeffs[i] for i in range(n + 1))
    if plus:
        return 1
    if minus:
        return -1
    raise AssertionError("functional equation fails")


def predicted_count(spec: FrobeniusSpectrum, n: int) -> int:
    """1 + q^2 + Frobenius^n trace on H^2, q = p^n."""
    p = spec.p
    # Chebyshev-style recursion for 2 cos(n theta)
    d0, d1 = Fraction(2), spec.c
    for _ in range(n - 1):
        d0, d1 = d1, spec.c * d1 - d0
    dn = d1 if n >= 1 else d0
    tr = algebraic_trace(p, n, spec.kron5) + (spec.s * p) ** n + p ** n * dn
    if Fraction(tr).denominator != 1:
        raise AssertionError("trace not integral")
    return 1 + p ** (2 * n) + int(tr)


def spectrum_report(spec: FrobeniusSpectrum) -> dict:
    rep = {"p": spec.p, "kron5": spec.kron5, "mu1": spec.mu1, "mu2": spec.mu2,
           "s": spec.s, "c": str(spec.c), "ambiguous": spec.ambiguous}
    if spec.solved:
        rep["rho"] = spec.rho
        rep["potential_rank_degree"] = spec.potential_rank_degree
        if spec.rho == 20:
            rep["square_class"] = artin_tate_sqclass(spec)
        rep["sign_matches_kron10"] = (spec.s == kronecker(10, spec.p))
    return rep
