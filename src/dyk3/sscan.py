"""Supersingular-reduction sieve for the quartic j-invariant field.

For each prime p, the reductions of the j-invariant live among the roots of
the integer quartic P(T) mod p inside F_{p^2}; p is a supersingular prime
exactly when one of those roots is a supersingular j-invariant.  The roots
are found over F_p: they are those of P's F_p-irreducible factors of degree
1 and 2, which ffield's distinct-degree split separates on F_p coefficient
lists once P mod p is made square-free, and F_{p^2} is entered only for
the square roots that solve the quadratic factors.  The roots 0 and 1728
are decided by their congruences (p = 2 mod 3, p = 3 mod 4); every other
root by Sutherland's 2-isogeny walk, O(log^2 p) operations in F_{p^2}.
Every reported prime is then certified by the paper's method, the
Hasse-invariant coefficient of a curve with the witness j, so two
independent algorithms agree on each prime the scan reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elliptic import curve_with_j, is_supersingular, supersingular_walk
from .ffield import (_distinct_degree, _poly_equal_degree_split, _poly_monic,
                     _poly_squarefree_part, _poly_trim, build_extension,
                     is_prime)
from .fixtures import load_tower_constants
from .poly import Poly


def default_quartic():
    return load_tower_constants().j_min_poly


@dataclass
class ScanConfig:
    quartic: list
    lo: int
    hi: int
    excluded: set = field(default_factory=lambda: {2, 3, 5})


@dataclass
class Witness:
    p: int
    root: tuple          # coordinates of j0 in the canonical F_{p^2} basis
    root_in_fp: bool
    hasse_zero: bool
    special: str | None  # "j=0" or "j=1728" congruence shortcut, if used


def roots_in_fp2(quartic, p: int):
    """(F_{p^2}, the roots of the quartic mod p in F_{p^2}), found over F_p.

    An integer polynomial f has its roots in F_{p^2} on its F_p-irreducible
    factors of degree 1 and 2.  The square-free part f / gcd(f, f') has the
    same roots, each once, when no factor of f repeats p or more times, as
    for the quartic at p >= 7; its distinct-degree split
    (ffield._distinct_degree) gives the product of the linear factors and
    that of the irreducible quadratics.  Both are split by
    Cantor-Zassenhaus, and each quadratic x^2 + bx + c gives
    (-b +- sqrt(b^2 - 4c)) / 2 in F_{p^2}.  Every root is checked by
    substitution into f over F_{p^2}.
    """
    F2 = build_extension(p, 2)
    f = _poly_monic(_poly_trim([c % p for c in quartic]), p)
    if not f:
        return F2, set()
    part = {d: g for g, d in _distinct_degree(_poly_squarefree_part(f, p), p)}
    roots = {F2.from_int(-c)
             for c, _ in _poly_equal_degree_split(part.get(1, []), 1, p)}
    half = (p + 1) // 2
    for c, b, _ in _poly_equal_degree_split(part.get(2, []), 2, p):
        r = F2.sqrt(F2.from_int(b * b - 4 * c))
        for s in (r, F2.neg(r)):
            roots.add(F2.smul(half, F2.sub(s, F2.from_int(b))))
    fq = Poly.from_ints(F2, f)
    if any(fq(r) != F2.zero for r in roots):
        raise AssertionError("root verification failed")
    return F2, roots


def is_supersingular_prime(p: int, quartic=None, config: ScanConfig | None = None):
    """(verdict, witnesses, number of roots in F_{p^2}) for a single prime.

    A prime where the quartic has no root in F_{p^2} (irreducible of degree
    4 mod p) is not supersingular and has no witnesses.
    """
    quartic = quartic if quartic is not None else default_quartic()
    if p < 7 or not is_prime(p):
        raise ValueError(f"p = {p} must be a prime >= 7")
    if config and p in config.excluded:
        raise ValueError(f"p = {p} is excluded")
    F2, roots = roots_in_fp2(quartic, p)
    witnesses = []
    verdict = False
    for j0 in sorted(roots):
        special = None
        if j0 == F2.zero:
            ss = p % 3 == 2
            special = "j=0"
        elif j0 == F2.from_int(1728):
            ss = p % 4 == 3
            special = "j=1728"
        else:
            ss = supersingular_walk(F2, j0)
        if ss:
            verdict = True
            witnesses.append(Witness(p, j0, all(c == 0 for c in j0[1:]),
                                     True, special))
    return verdict, witnesses, len(roots)


@dataclass
class ScanReport:
    config: ScanConfig
    primes: list
    witnesses: dict

    def verify_witnesses(self) -> bool:
        """Certify every reported prime with the Hasse coefficient.

        Each prime needs witnesses, and each witness must be a root of the
        quartic in F_{p^2} whose curve has a vanishing Hasse invariant.
        """
        for p in self.primes:
            if not self.witnesses.get(p):
                return False
            F2 = build_extension(p, 2)
            f = Poly.from_ints(F2, self.config.quartic)
            for w in self.witnesses[p]:
                if f(w.root) != F2.zero:
                    return False
                if not is_supersingular(curve_with_j(F2, w.root)):
                    return False
        return True


def scan(config: ScanConfig, threads: int = 1) -> ScanReport:
    """All supersingular primes in [lo, hi], sorted, with witnesses."""
    ps = [p for p in range(max(config.lo, 7), config.hi + 1)
          if is_prime(p) and p not in config.excluded]
    found = []
    witnesses = {}
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(_scan_one, [(p, config.quartic) for p in ps],
                                  chunksize=16))
    else:
        results = [_scan_one((p, config.quartic)) for p in ps]
    for p, (verdict, wit, _) in zip(ps, results):
        if verdict:
            found.append(p)
            witnesses[p] = wit
    report = ScanReport(config, sorted(found), witnesses)
    if not report.verify_witnesses():
        raise AssertionError("witness re-verification failed")
    return report


def _scan_one(args):
    p, quartic = args
    return is_supersingular_prime(p, quartic)


def density_guard(report: ScanReport) -> bool:
    """Loose sanity flag: supersingular fraction below 10% of scanned primes."""
    total = sum(1 for p in range(max(report.config.lo, 7), report.config.hi + 1)
                if is_prime(p))
    if total == 0:
        return True
    return len(report.primes) / total < 0.10
