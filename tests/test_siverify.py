import pytest

from dyk3.fixtures import load_tower_constants
from dyk3.numfield import TowerElement
from dyk3.siverify import (predict_counts, simultaneous_twist_check,
                           sqrt_in_k4, trace_at_split_prime,
                           verify_kummer_match, verify_twist_relation, _curve)


def test_kummer_match():
    res = verify_kummer_match()
    assert res["system_zero"]
    assert res["match_consistency"]
    assert res["fourth_equation"]
    assert res["ok"]
    # the solved point already matches the pulled-back model over K4 itself
    assert res["base_rescale_trivial"]
    assert res["scaling_in_k4"]


def test_inose_compatibility():
    from dyk3.siverify import verify_inose_compatibility
    res = verify_inose_compatibility()
    assert res["ok"]
    assert res["eta_linked"]


def test_sqrt_in_k4():
    x = TowerElement.k4(3, 1, 2, 0)
    sq = x * x
    r = sqrt_in_k4(sq)
    assert r is not None and r * r == sq
    assert sqrt_in_k4(TowerElement.k4(9, 0, 0, 0)) is not None
    assert sqrt_in_k4(TowerElement.k4(5, 0, 0, 0)) is not None  # (sqrt5)^2
    assert sqrt_in_k4(TowerElement.k4(7, 0, 0, 0)) is None
    y = TowerElement.k4(1, 1, 1, 0)
    assert sqrt_in_k4(y * y) is not None


def test_traces_match_stated_values():
    cst = load_tower_constants()
    E256 = _curve(cst, "E256_i2")
    for p, expected in cst.hecke_traces_quarter.items():
        tr = trace_at_split_prime(E256, p)
        assert tr["galois_independent"]
        assert tr["common"] == expected, (p, tr)


def test_twist_relation():
    for p in (31, 41, 79):
        res = verify_twist_relation(p)
        assert res["ok"], res


def test_predictions_31():
    pred = predict_counts(31)
    assert pred.a_p == -4
    assert pred.mu == -15
    assert pred.count1 == 1536
    assert pred.t_p == -46
    assert pred.count2 == 942936


def test_predictions_nonsplit_rejected():
    with pytest.raises(ValueError):
        predict_counts(11)
    with pytest.raises(ValueError):
        predict_counts(19)


def test_simultaneous_twist():
    for p in (31, 41):
        assert simultaneous_twist_check(p)["ok"]


def test_prediction_matches_counts():
    from dyk3.surface import three_way_counts
    for p in (31, 41):
        pred = predict_counts(p)
        r1 = three_way_counts(p, 1)
        r2 = three_way_counts(p, 2)
        assert r1["count_smooth"] == pred.count1 == r1["count_fibration"]
        assert r2["count_smooth"] == pred.count2 == r2["count_fibration"]
        assert abs(pred.mu) <= 3 * p
        assert pred.mu % p == pred.a_p ** 2 % p


def test_kummer_model_examples():
    from dyk3.models import kummer_surface
    from dyk3.numfield import TOWER
    from fractions import Fraction
    cst = load_tower_constants()
    _, laurent = kummer_surface(cst.a, cst.b, cst.c, cst.d)
    D1 = -16 * (4 * cst.a ** 3 + 27 * cst.b * cst.b)
    assert laurent["u2"] == D1 * Fraction(1, 64)
    # a = c = 0, b = d = 1: Y^2 = X^3 + (-27u^2 + 864 - 27/u^2)/64
    one = TowerElement.rational(1)
    zero = TowerElement.rational(0)
    _, l2 = kummer_surface(zero, one, zero, one)
    assert l2["x_coeff"].is_zero()
    assert l2["u2"] == TowerElement.rational(Fraction(-432, 64))
    assert l2["um2"] == TowerElement.rational(Fraction(-432, 64))
    assert l2["const"] == TowerElement.rational(Fraction(864, 64))
    # swapping the two curves mirrors u <-> 1/u
    _, l3 = kummer_surface(cst.c, cst.d, cst.a, cst.b)
    assert l3["u2"] == laurent["um2"]
    assert l3["um2"] == laurent["u2"]
    assert l3["const"] == laurent["const"]
    assert l3["x_coeff"] == laurent["x_coeff"]
