import random
from fractions import Fraction

import pytest

from dyk3 import numfield as nf
from dyk3.fixtures import load_tower_constants
from dyk3.numfield import (ALPHA, BETA, ONE, SQRT2, SQRT5, TowerElement,
                           reduce_mod_p, sqrt_in_quadratic, verify_si_system)
from tower_oracle import (SplitEmbedding, eval_poly_at_tower,
                          minimal_polynomial_over_Q)


def _random_element(rng, sparse=6):
    co = [Fraction(0)] * nf.DIM
    for _ in range(sparse):
        co[rng.randrange(nf.DIM)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return TowerElement(co)


def test_defining_relations():
    assert ALPHA * ALPHA == (SQRT5 + 1) / TowerElement.rational(2)
    assert BETA * BETA * BETA == SQRT2 - 1
    assert (SQRT2 - 1) * (SQRT2 + 1) == 1
    assert SQRT2 * SQRT2 == 2
    assert SQRT5 * SQRT5 == 5
    assert SQRT2 * SQRT5 == TowerElement.monomial(1, 1, 0, 0)


def test_products_span_basis():
    # all pairwise basis products stay inside the 24-dim span and the
    # resulting multiplication is associative on random triples
    rng = random.Random(7)
    for _ in range(25):
        x, y, z = (_random_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_inverse():
    rng = random.Random(8)
    for _ in range(6):
        x = _random_element(rng, sparse=4)
        if x.is_zero():
            continue
        assert x * x.inv() == 1
    with pytest.raises(ZeroDivisionError):
        TowerElement.rational(0).inv()
    # full-tower inverse (non-K4 path)
    x = ALPHA + BETA + 1
    assert x * x.inv() == 1
    assert x.inv() * x == 1


def test_rational_elements_hash_as_their_value():
    three = TowerElement.rational(3)
    assert three == 3 and hash(three) == hash(3)
    assert {three: 1}.get(3) == 1 and {3: 1}.get(three) == 1
    half = TowerElement.rational(Fraction(1, 2))
    assert {Fraction(1, 2): 1}.get(half) == 1
    assert three.__eq__("3") is NotImplemented and three != "3"
    assert hash(SQRT2 + 3) == hash(TowerElement.k4(3, 1))


def test_normal_form_idempotent():
    # alpha^2 * alpha^2 reduced in one shot equals ((sqrt5+1)/2)^2
    lhs = ALPHA ** 4
    rhs = ((SQRT5 + 1) / TowerElement.rational(2)) ** 2
    assert lhs == rhs


def test_minimal_polynomial():
    mp = minimal_polynomial_over_Q(SQRT2)
    assert mp == [Fraction(-2), Fraction(0), Fraction(1)]
    mp3 = minimal_polynomial_over_Q(TowerElement.rational(3))
    assert mp3 == [Fraction(-3), Fraction(1)]
    x = SQRT2 + SQRT5
    mp = minimal_polynomial_over_Q(x)
    assert len(mp) == 5
    assert eval_poly_at_tower(mp, x).is_zero()
    with pytest.raises(ValueError):
        minimal_polynomial_over_Q(ALPHA)


def test_minimal_polynomial_random_k4():
    rng = random.Random(9)
    for _ in range(10):
        x = TowerElement.k4(rng.randrange(-5, 6), rng.randrange(-5, 6),
                            rng.randrange(-5, 6), rng.randrange(-5, 6))
        mp = minimal_polynomial_over_Q(x)
        assert eval_poly_at_tower(mp, x).is_zero()


def test_reduce_mod_p_examples():
    assert 6 * 6 % 31 == 5
    emb = SplitEmbedding(31, r2=8, r5=6)
    assert reduce_mod_p(SQRT5, emb) == 6
    assert reduce_mod_p(ONE, emb) == 1
    kappa = TowerElement.k4(Fraction(1, 2), Fraction(1, 2))
    expected = (1 + 2 * pow(8, 29, 31)) * pow(2, 29, 31) % 31
    assert reduce_mod_p(kappa, emb) == expected


def test_reduce_mod_p_is_ring_hom():
    rng = random.Random(10)
    # 71 and 79 are the smallest primes where the full tower has a residue
    # image; 31 only supports the biquadratic subfield (no cube root of
    # sqrt2 - 1 exists mod 31).
    assert SplitEmbedding.full_tower(31) == []
    for p in (71, 79, 89):
        embs = SplitEmbedding.full_tower(p)
        assert embs
        for emb in embs:
            for _ in range(30):
                x, y = _random_element(rng, 4), _random_element(rng, 4)
                assert reduce_mod_p(x + y, emb) == (reduce_mod_p(x, emb) + reduce_mod_p(y, emb)) % p
                assert reduce_mod_p(x * y, emb) == (reduce_mod_p(x, emb) * reduce_mod_p(y, emb)) % p


def test_embedding_relations_checked():
    with pytest.raises(ValueError):
        SplitEmbedding(31, r2=3, r5=6)
    with pytest.raises(ValueError):
        SplitEmbedding.enumerate_k4(11)  # 2 is not a square mod 11


def test_si_system_on_fixture_point():
    cst = load_tower_constants()
    report = verify_si_system(cst.A, cst.a, cst.b, cst.c, cst.d)
    for entry in report:
        assert entry["zero"], f"equation {entry['equation']} ({entry['label']}) nonzero"


def test_si_system_perturbations():
    cst = load_tower_constants()
    # (A,a,b,c,d) = (sqrt5, 0,0,0,0): equation 2 residual is the constant part
    z = TowerElement.rational(0)
    rep = verify_si_system(cst.A, z, z, z, z)
    assert not rep[1]["zero"]
    assert rep[1]["residual"] == TowerElement.k4(1411985089, 0, -631459755, 0)
    # A = 2 makes the first residual -1
    rep2 = verify_si_system(TowerElement.rational(2), cst.a, cst.b, cst.c, cst.d)
    assert rep2[0]["residual"] == -1
    # perturbing a by +1 must break at least one equation
    rep3 = verify_si_system(cst.A, cst.a + 1, cst.b, cst.c, cst.d)
    assert not all(e["zero"] for e in rep3)


def test_sqrt_in_quadratic():
    # (1+sqrt2)^2 = 3 + 2 sqrt2
    assert sqrt_in_quadratic(3, 2, 2) in ((1, 1), (-1, -1))
    assert sqrt_in_quadratic(Fraction(9), Fraction(0), 5) == (3, 0)
    assert sqrt_in_quadratic(5, 0, 5) == (0, 1)
    assert sqrt_in_quadratic(2, 0, 5) is None
    r = sqrt_in_quadratic(Fraction(7, 2), Fraction(3, 2), 5)
    if r is not None:
        u, v = r
        assert u * u + 5 * v * v == Fraction(7, 2) and 2 * u * v == Fraction(3, 2)
