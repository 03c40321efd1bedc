import random
from fractions import Fraction

import pytest

from dyk3.ffield import (ExtField, FqPoly, _is_irreducible, _poly_powmod,
                         build_extension, find_roots, is_prime, kronecker,
                         lex_min_irreducible, rational_mod_p, sqrt_mod)


def test_kronecker_examples():
    # Euler criterion oracle: 5^15 mod 31
    assert pow(5, 15, 31) == 1
    assert kronecker(5, 31) == 1
    assert kronecker(4, 7) == 1
    assert kronecker(0, 11) == 0


def test_kronecker_rejects_bad_modulus():
    with pytest.raises(ValueError):
        kronecker(3, 10)
    with pytest.raises(ValueError):
        kronecker(3, 15)


def test_kronecker_multiplicative():
    rng = random.Random(1)
    for p in (11, 31, 101, 4099):
        for _ in range(50):
            a, b = rng.randrange(p), rng.randrange(p)
            assert kronecker(a * b, p) == kronecker(a, p) * kronecker(b, p)
    assert kronecker(10, 31) == kronecker(2, 31) * kronecker(5, 31)


def test_sqrt_mod():
    rng = random.Random(2)
    for p in (7, 13, 31, 97, 104729):
        for _ in range(20):
            a = rng.randrange(p)
            r = sqrt_mod(a, p)
            if kronecker(a, p) >= 0:
                assert r is not None and r * r % p == a % p
            else:
                assert r is None


def test_build_extension_examples():
    F = build_extension(3, 2)
    assert F.modulus == (1, 0)  # x^2 + 1, smallest monic irreducible over F_3
    F31 = build_extension(31, 2)
    assert F31.q == 961
    F1 = build_extension(31, 1)
    assert F1.q == 31


def test_quadratic_modulus_matches_the_scan():
    # at n = 2 the modulus is read off Legendre symbols; the reference is the
    # lexicographic scan with the int-list irreducibility test
    for p in range(3, 2000, 2):
        if is_prime(p):
            scan = next([k % p, k // p] for k in range(p * p)
                        if _is_irreducible([k % p, k // p], 2, p))
            assert lex_min_irreducible(p, 2) == tuple(scan), p


def _is_irreducible_by_frobenius(coeffs, n, p):
    """The x^(p^k) tests that decided irreducibility before the
    distinct-degree split did: f | x^(p^n) - x, and f does not divide
    x^(p^(n/d)) - x for d = 2, 3 dividing n."""
    mod = coeffs + [1]
    x = [0, 1]
    xp = x
    for _ in range(n):
        xp = _poly_powmod(xp, p, mod, p)
    if xp != x:
        return False
    for d in (2, 3):
        if n % d == 0:
            xq = x
            for _ in range(n // d):
                xq = _poly_powmod(xq, p, mod, p)
            if xq == x:
                return False
    return True


def test_irreducibility_matches_the_frobenius_tests():
    # every monic polynomial of degree 2..4 over small fields, square-free
    # or not
    for p in (3, 5, 7, 11):
        for n in (2, 3, 4):
            for k in range(p ** n):
                c = [(k // p ** i) % p for i in range(n)]
                assert (_is_irreducible(c, n, p)
                        == _is_irreducible_by_frobenius(c, n, p)), (p, c)


def test_rational_mod_p():
    assert rational_mod_p(Fraction(3, 4), 7) == 6
    assert rational_mod_p(-5, 7) == 2
    with pytest.raises(ValueError, match="divisible by p = 7"):
        rational_mod_p(Fraction(1, 14), 7)


def test_modulus_exhaustive_minimality():
    # oracle: brute-force irreducibility by root/factor scan
    for p, n in ((3, 2), (5, 2), (7, 3), (3, 4)):
        mod = lex_min_irreducible(p, n)
        k_found = sum(c * p ** i for i, c in enumerate(mod))
        for k in range(k_found):
            c = [(k // p ** i) % p for i in range(n)]
            # has a root in F_p, or (deg 4) a quadratic factor => reducible
            def val(x, cs=c):
                acc = x ** n % p
                for i, ci in enumerate(cs):
                    acc = (acc + ci * x ** i) % p
                return acc
            has_root = any(val(x) == 0 for x in range(p))
            reducible = has_root
            if not reducible and n == 4:
                F2 = ExtField(p, 2)
                f = FqPoly.from_ints(F2, c + [1])
                reducible = any(f(x) == F2.zero for x in F2.elements())
            assert reducible, f"candidate below modulus was irreducible: p={p} k={k}"


def test_frobenius_order():
    rng = random.Random(3)
    for p, n in ((5, 2), (7, 3), (3, 4), (31, 2)):
        F = build_extension(p, n)
        g = F.gen()
        x = g
        for k in range(1, n):
            x = F.frobenius(x)
            assert x != g, "Frobenius order too small on generator"
        assert F.frobenius(x) == g
        for _ in range(100):
            a = F.decode(rng.randrange(F.q))
            b = a
            for _ in range(n):
                b = F.frobenius(b)
            assert b == a


def test_modulus_has_no_root_in_subfields():
    for p, n in ((3, 4), (5, 2), (7, 3)):
        F = build_extension(p, n)
        for d in range(1, n):
            if n % d:
                continue
            Sub = build_extension(p, d)
            f = FqPoly.from_ints(Sub, [c for c in F.modulus] + [1])
            assert not any(f(x) == Sub.zero for x in Sub.elements())


def test_field_axioms_random():
    rng = random.Random(4)
    for p, n in ((5, 2), (7, 4), (31, 2)):
        F = build_extension(p, n)
        for _ in range(60):
            a = F.decode(rng.randrange(F.q))
            b = F.decode(rng.randrange(1, F.q))
            c = F.decode(rng.randrange(F.q))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(b, F.inv(b)) == F.one
            assert F.sub(F.add(a, c), c) == a


def test_chi_matches_square_scan():
    for p, n in ((7, 2), (5, 2)):
        F = build_extension(p, n)
        squares = {F.mul(x, x) for x in F.elements()}
        for a in F.elements():
            if a == F.zero:
                assert F.chi(a) == 0
            else:
                assert F.chi(a) == (1 if a in squares else -1)
            r = F.sqrt(a)
            if F.chi(a) >= 0:
                assert r is not None and F.mul(r, r) == a


def test_roots_limited_to_degree_2():
    F = build_extension(7, 3)
    with pytest.raises(ValueError):
        F.sqrt(F.one)
    with pytest.raises(ValueError):
        F.cbrt(F.one)


def test_find_roots_examples():
    F7 = build_extension(7, 1)
    f = FqPoly.from_ints(F7, [-1, 0, 1])  # x^2 - 1
    assert find_roots(f, F7) == {(1,), (6,)}
    assert kronecker(-1, 7) == -1
    g = FqPoly.from_ints(F7, [1, 0, 1])  # x^2 + 1
    assert find_roots(g, F7) == set()
    F13 = build_extension(13, 1)
    h = FqPoly.from_ints(F13, [0, -1, 1])  # x^2 - x
    assert find_roots(h, F13) == {(0,), (1,)}


def test_find_roots_zero_rejected():
    F = build_extension(7, 1)
    with pytest.raises(ValueError):
        find_roots(FqPoly(F, []), F)


def test_find_roots_cz_vs_exhaustive():
    rng = random.Random(5)
    for p, n in ((31, 2), (101, 1), (7, 3)):
        F = build_extension(p, n)
        for _ in range(10):
            deg = rng.randrange(1, 5)
            coeffs = [F.decode(rng.randrange(F.q)) for _ in range(deg)] + [F.one]
            f = FqPoly(F, coeffs)
            r1 = find_roots(f, F, exhaustive=False)
            r2 = find_roots(f, F, exhaustive=True)
            assert r1 == r2
            assert len(r1) <= f.degree()


def test_is_prime_basics():
    assert is_prime(2) and is_prime(104729) and is_prime(200003)
    assert not is_prime(1) and not is_prime(104730) and not is_prime(31 * 71)
