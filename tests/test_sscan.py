from dataclasses import replace

import pytest

from dyk3 import ffield
from dyk3.elliptic import curve_with_j, is_supersingular
from dyk3.ffield import FqPoly, build_extension, find_roots, is_prime
from dyk3.fixtures import load_tower_constants
from dyk3.sscan import (ScanConfig, ScanReport, Witness, density_guard,
                        is_supersingular_prime, roots_in_fp2, scan)

PAPER_LIST = load_tower_constants().supersingular_primes


def test_single_primes():
    assert is_supersingular_prime(13)[0] is True
    assert is_supersingular_prime(7)[0] is False
    assert is_supersingular_prime(29)[0] is True
    assert is_supersingular_prime(31)[0] is False


def test_witness_structure():
    verdict, wits, nroots = is_supersingular_prime(13)
    assert verdict and wits
    for w in wits:
        assert w.p == 13
        assert w.hasse_zero


def test_scan_range_1000():
    cfg = ScanConfig(load_tower_constants().j_min_poly, 7, 1000)
    rep = scan(cfg)
    assert rep.primes == [13, 29, 41, 113, 337, 839, 853, 881, 953]
    assert density_guard(rep)


def test_scan_range_3500():
    cfg = ScanConfig(load_tower_constants().j_min_poly, 7, 3500)
    rep = scan(cfg)
    expected = [p for p in PAPER_LIST if p <= 3500]
    assert rep.primes == expected
    assert expected[-6:] == [1511, 1709, 1889, 2351, 3037, 3389]


def test_roots_match_the_fp2_route():
    # the F_p route against Cantor-Zassenhaus over F_{p^2} on every prime
    # up to 3500, on the 40 primes from 4520 and at 15973; the quartic's
    # discriminant is 2^82 3^4 5^2 13^12 29^4 953^2 15973^2, so it has
    # repeated roots mod 13, 29, 953 and 15973, all four supersingular.  Mod
    # 953 and 15973 it is a squared linear factor times an irreducible
    # quadratic, whose conjugate pair the distinct-degree split finds only
    # on the square-free part
    quartic = load_tower_constants().j_min_poly
    primes = [p for p in range(7, 3501) if is_prime(p)]
    primes += [p for p in range(4520, 5000) if is_prime(p)][:40] + [15973]
    assert {13, 29, 953} <= set(primes) and 4871 in primes
    for p in primes:
        F2, roots = roots_in_fp2(quartic, p)
        f = FqPoly.from_ints(F2, [c % p for c in quartic])
        assert roots == find_roots(f, F2, exhaustive=False), p
    assert [len(roots_in_fp2(quartic, p)[1])
            for p in (13, 29, 953, 15973)] == [1, 2, 3, 3]


def test_root_finding_off_the_fp2_polynomial_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("F_{p^2} polynomial arithmetic on the sieve's path")

    monkeypatch.setattr(ffield.FqPoly, "powmod", refuse)
    monkeypatch.setattr(ffield, "find_roots", refuse)
    cfg = ScanConfig(load_tower_constants().j_min_poly, 7, 1000)
    assert scan(cfg).primes == [13, 29, 41, 113, 337, 839, 853, 881, 953]


def test_hasse_agrees_with_count_small():
    # the Hasse verdict equals #E = 1 mod p, over F_{p^2} for the roots of
    # the quartic and over F_p for every j but 0 and 1728
    for p in (7, 13, 29, 41):
        verdict, wits, nroots = is_supersingular_prime(p)
        F2 = build_extension(p, 2)
        _, roots = roots_in_fp2(load_tower_constants().j_min_poly, p)
        any_ss = False
        for j0 in roots:
            if j0 == F2.zero or j0 == F2.from_int(1728):
                continue
            E = curve_with_j(F2, j0)
            cnt = E.count_points().count
            ss_by_count = (cnt % p) == (1 % p)
            assert is_supersingular(E) == ss_by_count
            any_ss = any_ss or ss_by_count
        assert verdict == any_ss
        F1 = build_extension(p, 1)
        for j in range(p):
            if j in (0, 1728 % p):
                continue
            E = curve_with_j(F1, F1.from_int(j))
            assert is_supersingular(E) == (E.count_points().count % p == 1), (p, j)


def test_certificate_rejects_forged_witness():
    # verify_witnesses re-decides each witness with the Hasse coefficient,
    # independently of the walk that produced it
    cfg = ScanConfig(load_tower_constants().j_min_poly, 7, 100)
    rep = scan(cfg)
    assert rep.primes == [13, 29, 41] and rep.verify_witnesses()

    def forged(p, root, special=None):
        w = Witness(p, root, root[1] == 0, True, special)
        return ScanReport(cfg, sorted(rep.primes + [p]),
                          {**rep.witnesses, p: [w]})

    # 7 and 31 are not supersingular, but the quartic has roots there,
    # among them j = 0 at p = 31 = 1 mod 3
    for p in (7, 31):
        _, roots = roots_in_fp2(cfg.quartic, p)
        assert len(roots) == 4
        for j in roots:
            special = "j=0" if j == (0, 0) else None
            assert not forged(p, j, special).verify_witnesses(), (p, j)
    # j = 0 is supersingular at 29 = 2 mod 3 but is not a root there
    zero = replace(rep.witnesses[29][0], root=(0, 0), special="j=0")
    assert not replace(rep, witnesses={**rep.witnesses, 29: [zero]}).verify_witnesses()
    # a reported prime without witnesses
    assert not replace(rep, witnesses={**rep.witnesses, 13: []}).verify_witnesses()


def test_excluded_prime_rejected():
    cfg = ScanConfig(load_tower_constants().j_min_poly, 7, 100)
    with pytest.raises(ValueError):
        is_supersingular_prime(5, config=cfg)


def test_threads_deterministic():
    cfg = ScanConfig(load_tower_constants().j_min_poly, 7, 400)
    a = scan(cfg, threads=1).primes
    b = scan(cfg, threads=2).primes
    assert a == b


@pytest.mark.slow
def test_full_paper_range():
    cfg = ScanConfig(load_tower_constants().j_min_poly, 7, 104729)
    rep = scan(cfg)
    assert rep.primes == PAPER_LIST
