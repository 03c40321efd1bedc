import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dyk3 import models
from dyk3.fixtures import load_tower_constants
from dyk3.numfield import TOWER, TowerElement
from dyk3.poly import Poly, QQ, RationalFunc
from dyk3.tate import (EllipticSurface, Place, SectionPoint,
                       analyze_quartic_double_cover, component_index,
                       cubic_root_count, factor_over_base, local_contribution,
                       min_positive_height_on_grid, mw_height, mw_pairing,
                       quartic_to_weierstrass, ramified_double_image,
                       shioda_tate_disc, torsion_two_divisibility,
                       trivial_lattice_disc)


def _table(surface):
    out = {}
    for place, fib in surface.bad_fibres():
        key = "inf" if place.infinity else tuple(place.poly.coeffs)
        out[key] = fib
    return out


def _qq(*ints):
    return tuple(Fraction(i) for i in ints)


def test_c4c6_identity_and_valuation():
    E2 = models.e2_surface()
    c4, c6, delta = E2.c4_c6_delta()
    assert (c4 ** 3 - c6 * c6) == delta * 1728
    t = Poly.x(QQ)
    assert delta.valuation(t) == 10  # I10 at t = 0


def test_e1_bad_fibres():
    E1 = models.e1_surface()
    tab = _table(E1)
    # I6 at 0, I6 at inf, I0* at 1, I2 at -1, I1 on the quartic
    assert tab[_qq(0, 1)].kodaira == "I6"
    assert tab["inf"].kodaira == "I6"
    assert tab[_qq(-1, 1)].kodaira == "I0*"
    assert tab[_qq(1, 1)].kodaira == "I2"
    assert tab[_qq(1, 8, -2, 8, 1)].kodaira == "I1"
    assert sum(f.vdelta * (1 if k == "inf" else len(k) - 1)
               for k, f in tab.items()) == 24
    # all four legs of the I0* are rational (step-6 cubic splits as T(T-4)(T+4))
    assert tab[_qq(-1, 1)].legs_rational == 4


def test_residue_root_count_only_for_cubics():
    # the I0* legs count the base-field roots of the step-6 cubic
    assert cubic_root_count(Fraction(0), Fraction(-1), Fraction(0)) == 3
    assert cubic_root_count(Fraction(0), Fraction(-5), Fraction(0)) == 1
    assert cubic_root_count(Fraction(0), Fraction(-5), Fraction(0),
                            "Qsqrt5") == 3
    # (x - sqrt5)(x^2 + 1) over Q(sqrt5)
    s5 = TowerElement.k4(0, 0, 1, 0)
    one = TowerElement.rational(1)
    assert cubic_root_count(-s5, one, -s5, "Qsqrt5") == 1
    # the cubic is read at degree-1 places only; others are refused
    E1 = models.e1_surface()
    with pytest.raises(NotImplementedError):
        E1._i0star_legs(Poly.from_ints(QQ, [1, 0, 1]))


def test_e2_bad_fibres():
    E2 = models.e2_surface()
    tab = _table(E2)
    # keys are monic place polynomials, low-to-high coefficients
    assert tab[_qq(0, 1)].kodaira == "I10"          # t
    assert tab["inf"].kodaira == "I2"               # t = inf
    assert tab[_qq(-1, 1)].kodaira == "I4"          # t - 1
    assert tab[_qq(1, 1)].kodaira == "I2"           # t + 1
    assert tab[_qq(-1, 1, 1)].kodaira == "I2"       # t^2 + t - 1
    assert tab[(Fraction(1, 9), Fraction(2, 9), Fraction(1))].kodaira == "I1"
    assert len(tab) == 6
    total = sum(f.vdelta * (1 if k == "inf" else len(k) - 1) for k, f in tab.items())
    assert total == 24


def test_tower_tables_factor_over_qsqrt5():
    # over Q(sqrt5) the E1 quartic place and the E2 place t^2 + t - 1 split
    e1 = [(pl, f) for pl, f in models.e1_surface("tower").bad_fibres()
          if f.kodaira == "I1"]
    assert [pl.degree for pl, _ in e1] == [2, 2]
    assert e1[0][0].poly * e1[1][0].poly == Poly.from_ints(TOWER, [1, 8, -2, 8, 1])
    golden = Poly.from_ints(TOWER, [-1, 1, 1])
    e2 = [(pl, f) for pl, f in models.e2_surface("tower").bad_fibres()
          if not pl.infinity and (golden % pl.poly).is_zero()]
    assert [(pl.degree, f.kodaira, f.split) for pl, f in e2] \
        == [(1, "I2", False), (1, "I2", False)]
    assert e2[0][0].poly * e2[1][0].poly == golden


def test_e2_splitness_flags():
    E2 = models.e2_surface()
    tab = _table(E2)
    # node tangent quadratics: t=0 -> 1 (split over Q); t=1 -> 4 (split);
    # t=-1 -> -4 (not a rational square); inf -> -3 (not)
    assert tab[_qq(0, 1)].split is True
    assert tab[_qq(-1, 1)].split is True
    assert tab[_qq(1, 1)].split is False
    assert tab["inf"].split is False


def test_heights_e2():
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    T, P3 = models.e2_sections(E2)
    assert mw_height(E2, P3, bad) == Fraction(3, 20)
    assert mw_height(E2, T, bad) == 0
    Z = SectionPoint(E2, zero=True)
    assert mw_height(E2, Z, bad) == 0


def test_height_scales_quadratically():
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    _, P3 = models.e2_sections(E2)
    P6 = P3 + P3
    assert mw_height(E2, P6, bad) == 4 * Fraction(3, 20)
    P9 = P6 + P3
    assert mw_height(E2, P9, bad) == 9 * Fraction(3, 20)


def test_torsion_translation_invariance():
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    T, P3 = models.e2_sections(E2)
    assert mw_height(E2, P3 + T, bad) == Fraction(3, 20)
    assert mw_pairing(E2, P3, T, bad) == 0


def test_component_indices_of_p3():
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    _, P3 = models.e2_sections(E2)
    t = Poly.x(QQ)
    kind, pair = component_index(E2, P3, Place(t), bad)
    assert kind == "cycle" and pair == frozenset({3, 7})
    kind, pair = component_index(E2, P3, Place(t - 1), bad)
    assert kind == "cycle" and pair == frozenset({1, 3})
    kind, pair = component_index(E2, P3, Place(t + 1), bad)
    assert kind == "cycle" and pair == frozenset({1, 1})
    golden = Poly.from_ints(QQ, [-1, 1, 1])
    kind, m = component_index(E2, P3, Place(golden), bad)
    assert kind == "identity"
    kind, pair = component_index(E2, P3, Place(infinity=True), bad)
    assert kind == "cycle" and pair == frozenset({1, 1})


def test_component_indices_of_torsion():
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    T, _ = models.e2_sections(E2)
    t = Poly.x(QQ)
    kind, pair = component_index(E2, T, Place(t), bad)
    assert kind == "cycle" and pair == frozenset({5})
    # total correction must be exactly 4 for height 0
    total = Fraction(0)
    for place, fib in bad:
        if fib.kodaira in ("I1",):
            continue
        total += place.degree * local_contribution(T, place, fib)
    assert total == 4


def test_e1_heights_and_gram():
    E1 = models.e1_surface("tower")
    bad = E1.bad_fibres()
    T, P1, P2 = models.e1_sections(E1)
    assert mw_height(E1, T, bad) == 0
    h11 = mw_height(E1, P1, bad)
    h22 = mw_height(E1, P2, bad)
    h12 = mw_pairing(E1, P1, P2, bad)
    assert h11 == Fraction(1, 3)
    assert h22 == 1
    det = h11 * h22 - h12 * h12
    # Shioda-Tate: disc NS = 24 = (-1)^2 * discTriv * detMW / |tors|^2
    dtriv = trivial_lattice_disc(bad)
    assert dtriv == 288
    assert shioda_tate_disc(2, dtriv, det, 2) == 24
    assert det == Fraction(1, 3)


def test_shioda_tate_e2():
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    dtriv = trivial_lattice_disc(bad)
    assert dtriv == -640
    assert shioda_tate_disc(1, dtriv, Fraction(3, 20), 2) == 24
    assert shioda_tate_disc(0, 7, Fraction(1), 1) == 7
    with pytest.raises(ValueError):
        shioda_tate_disc(1, -640, Fraction(3, 20), 0)


def test_torsion_two_divisibility():
    E2 = models.e2_surface()
    T, _ = models.e2_sections(E2)
    res = torsion_two_divisibility(E2, T)
    assert res["two_divisible"] is False
    # squarefree part of 16 t^5 (t^2+t-1) is t (t^2+t-1)
    sf = res["squarefree_part"]
    expected = Poly.from_ints(QQ, [0, -1, 1, 1]).monic()
    assert sf == expected
    # a square a4 is reported 2-divisible
    t = Poly.x(QQ)
    E = EllipticSurface(QQ, Poly(QQ, []), -(t ** 2), Poly(QQ, []), chi=1)
    Tt = SectionPoint(E, Poly(QQ, []), Poly(QQ, []))
    assert torsion_two_divisibility(E, Tt)["two_divisible"] is True


def test_min_height_grid():
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    m = min_positive_height_on_grid(bad)
    # the grid minimum: 4 - (24/10 + 3*(1/2)) = 1/10.  A minimum of 1/20 is
    # not attainable: 20*h = 2 a0^2 mod 5 can only be 0, 2 or 3 mod 5.  The
    # torsion divisibility argument needs only m > 3/80.
    assert m == Fraction(1, 10)
    assert m > Fraction(3, 80)
    assert Fraction(3, 20) in {Fraction(4) - s for s in _grid_sums(bad)}


def _grid_sums(bad):
    menus = []
    for place, fib in bad:
        n = fib.n
        if fib.kodaira.startswith("I") and not fib.kodaira.endswith("*") and n >= 2:
            menu = sorted({Fraction(k * (n - k), n) for k in range(n)})
            for _ in range(place.degree):
                menus.append(menu)
    sums = {Fraction(0)}
    for menu in menus:
        sums = {s + m for s in sums for m in menu}
    return sums


def test_local_type_translation_invariance():
    rng = random.Random(13)
    E2 = models.e2_surface()
    t = Poly.x(QQ)
    for _ in range(4):
        c = Fraction(rng.randrange(-5, 6))
        shifted = EllipticSurface(QQ, E2.a2.shift(c), E2.a4.shift(c),
                                  E2.a6.shift(c), chi=2)
        # fibre at t = t0 of the original = fibre at t = t0 - c of the shift
        for t0 in (0, 1, -1):
            orig = E2.local_type(Place(t - t0))
            moved = shifted.local_type(Place(t - (t0 - c)))
            assert orig.kodaira == moved.kodaira
            assert orig.split == moved.split


def test_quartic_to_weierstrass_counts():
    # s^2 y^2 = x^4 + 1 -> Jacobian y^2 = x^3 - 324 x, j = 1728; the models
    # must have matching point counts over several primes (both curves have
    # a rational point, so they are isomorphic)
    from dyk3.elliptic import CurveOverFq
    from dyk3.ffield import build_extension
    for p in (7, 11, 13, 31):
        F = build_extension(p, 1)
        n_quartic = 2  # two points at infinity of the monic quartic model
        for u in range(p):
            n_quartic += 1 + F.chi(F.from_int(u ** 4 + 1))
        E = CurveOverFq.from_ints(F, 0, -324, 0)
        assert E.count_points().count == n_quartic


def test_degenerate_quartic_rejected():
    # ty^2 = x^4 has zero discriminant after the substitution
    zero = Poly(TOWER, [])
    one = Poly.const(TOWER, TOWER.one)
    with pytest.raises(ValueError):
        quartic_to_weierstrass([zero, zero, zero, zero, one], TOWER)


def test_ramified_double_images():
    assert ramified_double_image("II*") == "IV*"
    assert ramified_double_image("IV") == "IV*"
    assert ramified_double_image("I0*") == "I0"
    assert ramified_double_image("III") == "I0*"
    assert ramified_double_image("I3") == "I6"


def test_third_fibration():
    res = analyze_quartic_double_cover(models.third_fibration_quartic())
    s_deg = {}
    for pl, f in res["s_table"]:
        s_deg[f.kodaira] = s_deg.get(f.kodaira, 0) + pl.degree
    assert s_deg["IV*"] == 2
    assert s_deg["I1"] == 8
    t_syms = [(("inf" if pl.infinity else tuple(pl.poly.coeffs)), sym)
              for pl, sym, _ in res["t_table"]]
    by_sym = {}
    for key, sym in t_syms:
        by_sym.setdefault(sym, []).append(key)
    assert len(by_sym["II*"]) == 2
    assert res["total_vdelta"] == 24
    # the I1 locus is exactly the stated quartic in t
    expected = models.third_fibration_i1_quartic().monic()
    assert res["t_locus"] == expected
    i1_degree = sum((1 if pl.infinity else pl.poly.degree())
                    for pl, sym, _ in res["t_table"] if sym == "I1")
    assert i1_degree == 4


def test_inose_surface_fibres():
    # the pulled-back fibration is a K3 with IV* at 0 and inf and 8 I1
    surf = models.inose_surface()
    tab = surf.bad_fibres()
    syms = {}
    for pl, fib in tab:
        syms.setdefault(fib.kodaira, 0)
        syms[fib.kodaira] += pl.degree
    assert syms["IV*"] == 2
    assert syms["I1"] == 8
    assert sum(f.vdelta * p.degree for p, f in tab) == 24


def test_reduce_fiber():
    from dyk3.ffield import build_extension
    from dyk3.tate import reduce_fiber
    E2 = models.e2_surface()
    F = build_extension(31, 1)
    curve, bad = reduce_fiber(E2, F.from_int(2), F)
    assert not bad
    rec = curve.count_points()
    assert rec.p == 31 and abs(rec.a) <= 11
    _, bad0 = reduce_fiber(E2, F.from_int(0), F)
    assert bad0
    # golden-ratio place: t^2 + t - 1 = 0 mod 31 at t = 12 (144+12-1 = 155)
    assert (12 * 12 + 12 - 1) % 31 == 0
    _, badg = reduce_fiber(E2, F.from_int(12), F)
    assert badg
    # tower-coefficient model through an embedding
    from dyk3.numfield import SplitEmbedding
    surf = models.inose_surface()
    emb = SplitEmbedding.enumerate_k4(31)[0]
    curve2, bad2 = reduce_fiber(surf, F.from_int(3), F, emb=emb)
    assert not bad2


# ---------------------------------------------------------------------------
# the cached local models against models built afresh


def _fresh_minimal(surface, place):
    """The minimal model at a place as a fresh surface per twist computes it:
    the u = 1/t chart rebuilt, and c4, c6, Delta recomputed at every step."""
    F = surface.fieldad
    if place.infinity:
        w = surface.weight
        a2, a4, a6 = (surface.a2.reverse(2 * w), surface.a4.reverse(4 * w),
                      surface.a6.reverse(6 * w))
        chi, pi = w, Poly.x(F)
    else:
        a2, a4, a6 = surface.a2, surface.a4, surface.a6
        chi, pi = surface.chi, place.poly
    e = 0
    while True:
        c4, c6, delta = EllipticSurface(F, a2, a4, a6, chi=chi).c4_c6_delta()
        if not (delta.valuation(pi) >= 12 and c4.valuation(pi) >= 4
                and c6.valuation(pi) >= 6):
            break
        a2, a4, a6 = (a2.exact_div(pi ** 2), a4.exact_div(pi ** 4),
                      a6.exact_div(pi ** 6))
        e += 1
    return (a2, a4, a6, e), (c4, c6, delta), pi


def _surfaces_for_local_models():
    from dyk3.tate import compose_t_squared
    E2 = models.e2_surface()
    t2 = Poly.from_ints(QQ, [0, 0, 1])
    yield "E1", models.e1_surface()
    yield "E1/tower", models.e1_surface("tower")
    yield "E2", E2
    yield "E2 twisted by t^2", EllipticSurface(
        QQ, E2.a2 * t2 ** 2, E2.a4 * t2 ** 4, E2.a6 * t2 ** 6, chi=2)
    yield "Inose", models.inose_surface()
    for kind in ("additive-inf", "free-section"):
        yield kind, models.rational_elliptic_test_surface(kind)
    quartic = [compose_t_squared(q) for q in models.third_fibration_quartic()]
    yield "quartic@s", quartic_to_weierstrass(quartic, TOWER, chi=2)


def test_cached_local_models_match_fresh_models():
    from dyk3.tate import classify_tame
    twists = {}
    for name, surface in _surfaces_for_local_models():
        _, _, delta = surface.c4_c6_delta()
        places = [Place(pi) for pi in factor_over_base(delta, surface.base_label)]
        for place in places + [Place(infinity=True)]:
            (a2, a4, a6, e), (c4, c6, dl), pi = _fresh_minimal(surface, place)
            chart, chart_pi = surface._chart(place)
            local = chart._local_minimal(pi)
            where = f"{name} at {place}"
            assert chart_pi == pi, where
            assert chart._local_minimal(pi) is local, where
            assert (local.model.a2, local.model.a4, local.model.a6, local.e) \
                == (a2, a4, a6, e), where
            assert local.model.c4_c6_delta() == (c4, c6, dl), where
            c4m, c6m, dm = local.model.c4_c6_delta()
            assert c4m ** 3 - c6m * c6m == dm * 1728, where
            vals = (c4.valuation(pi), c6.valuation(pi), dl.valuation(pi))
            assert (local.vc4, local.vc6, local.vdelta) == vals, where
            assert surface.local_type(place).kodaira \
                == classify_tame(*vals)[0], where
            twists[name] = max(twists.get(name, 0), e)
    # the rescaling path itself is exercised, once and twice over
    assert twists["quartic@s"] == 1
    assert twists["E2 twisted by t^2"] == 2


def test_node_residue_is_a_double_root_at_every_multiplicative_place():
    # f(x0) = f'(x0) = 0 mod pi checks the closed node formula without
    # repeating it
    seen = []
    for name, surface in _surfaces_for_local_models():
        _, _, delta = surface.c4_c6_delta()
        places = [Place(pi) for pi in factor_over_base(delta, surface.base_label)]
        for place in places + [Place(infinity=True)]:
            chart, pi = surface._chart(place)
            local = chart._local_minimal(pi)
            if local.vdelta == 0 or local.vc4 != 0:
                continue
            m, x0 = local.model, local.model._node_residue(pi)
            f = x0 ** 3 + m.a2 * x0 * x0 + m.a4 * x0 + m.a6
            df = 3 * x0 * x0 + 2 * m.a2 * x0 + m.a4
            assert (f % pi).is_zero() and (df % pi).is_zero(), f"{name} at {place}"
            seen.append(place.degree)
    assert len(seen) == 25 and max(seen) == 8


def test_critical_point_is_lifted_to_full_precision():
    # the critical point that places a section on the I_n cycle solves
    # f'(xs) = 0 mod pi^N at the precision section_component_data uses,
    # N = max(1, (n + 1)//2), and at v(Delta) + 4 as it did before; the two
    # agree mod pi^N and lie over the node
    from dyk3.tate import LocalRing, critical_point
    lifted = 0
    for name, surface in _surfaces_for_local_models():
        _, _, delta = surface.c4_c6_delta()
        places = [Place(pi) for pi in factor_over_base(delta, surface.base_label)]
        for place in places + [Place(infinity=True)]:
            chart, pi = surface._chart(place)
            local = chart._local_minimal(pi)
            if local.vdelta == 0 or local.vc4 != 0 or pi.degree() > 2:
                continue
            m, x0 = local.model, local.model._node_residue(pi)
            n = surface.local_type(place).n
            R, xs = chart._critical_point(pi)
            assert R.N == max(1, (n + 1) // 2) and R.pi == pi, name
            assert chart._critical_point(pi)[1] is xs, name
            Rfull = LocalRing(pi, local.vdelta + 4)
            xfull = critical_point(Rfull, m.a2, m.a4, x0)
            for ring, x in ((R, xs), (Rfull, xfull)):
                assert ring.red(3 * x * x + 2 * m.a2 * x + m.a4).is_zero(), name
                assert ((x - x0) % pi).is_zero(), name
            assert R.red(xfull - xs).is_zero(), name
            lifted += not ((xs - x0) % pi ** 2).is_zero()
    assert lifted > 0


def test_critical_point_off_a_root_raises():
    # f' = 3x^2 - 3 has no root over x0 = 2 mod t, though f''(2) = 12 is a
    # unit: Newton runs towards 1 in Q and never reaches it
    from dyk3.tate import LocalRing, critical_point
    R = LocalRing(Poly.x(QQ), 8)
    with pytest.raises(ValueError, match="simple root"):
        critical_point(R, *(Poly.from_ints(QQ, [c]) for c in (0, -3, 2)))


def _sections_for_heights():
    """(surface, sections) pairs whose heights and component data are
    checked against the parent code."""
    E2 = models.e2_surface()
    T, P3 = models.e2_sections(E2)
    yield E2, [P3, T, P3 + T, P3.mult(2), P3.mult(3), P3.mult(2) + T, -P3]
    E1 = models.e1_surface("tower")
    T, P1, P2 = models.e1_sections(E1)
    yield E1, [T, P1, P2, P1 + P2, P1 + T, P2.mult(2), P1.mult(2) + P2]
    # two of the tate workload's translations t -> t + c
    for c in (Fraction(1, 2), Fraction(-2, 3)):
        E = EllipticSurface(QQ, E2.a2.shift(c), E2.a4.shift(c), E2.a6.shift(c),
                            chi=E2.chi)
        T, P3 = (SectionPoint(E, P.x.num.shift(c), P.y.num.shift(c))
                 for P in models.e2_sections(E2))
        yield E, [P3, T, P3 + T]
    E = models.rational_elliptic_test_surface("free-section")
    P = SectionPoint(E, Poly(QQ, []), Poly.from_ints(QQ, [1]))
    yield E, [P, -P, P.mult(2), P.mult(3)]


def test_heights_and_components_match_the_parent_code(monkeypatch):
    import height_oracle as old
    from dyk3.tate import section_component_data
    # the oracle's heights read the component data it is compared on here:
    # each is computed once
    seen = {}
    parent = old.section_component_data
    monkeypatch.setattr(old, "section_component_data", lambda P, place, fib: seen[
        id(P), repr(place)] if (id(P), repr(place)) in seen else parent(P, place, fib))
    kinds = set()
    for E, sections in _sections_for_heights():
        bad = E.bad_fibres()
        for P in sections:
            for place, fib in bad:
                want = _outcome(parent, P, place, fib)
                got = _outcome(section_component_data, P, place, fib)
                assert got == want, (E.name, place)
                if isinstance(got[0], str):
                    seen[id(P), repr(place)] = got
                    kinds.add((fib.type.family, got[0]))
                    kind, m = got
                    assert component_index(E, P, place, bad) == (
                        (kind, frozenset({m, fib.n - m})) if kind == "cycle" else got)
            assert mw_height(E, P, bad) == old.mw_height(E, P, bad)
    # both outcomes at an additive place, and a cycle component
    assert {("I*", "identity"), ("I*", "nonidentity"), ("III*", "nonidentity"),
            ("III*", "identity"), ("I", "cycle")} <= kinds


def test_critical_point_is_computed_once_per_place(monkeypatch):
    # P3, T and the three heights of their pairing share one critical point
    # per multiplicative place where a section leaves the identity component
    from dyk3 import tate
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    T, P3 = models.e2_sections(E2)
    calls = []
    lift = tate.critical_point
    monkeypatch.setattr(tate, "critical_point",
                        lambda R, *args: calls.append(R.pi) or lift(R, *args))
    assert (mw_height(E2, P3, bad), mw_height(E2, T, bad),
            mw_pairing(E2, P3, T, bad)) == (Fraction(3, 20), 0, 0)
    made = list(calls)
    left = [place for place, fib in bad if fib.type.family == "I" and any(
        component_index(E2, S, place, bad)[0] != "identity" for S in (P3, T, P3 + T))]
    assert len(made) == len(left) == 5
    assert sorted(map(repr, made)) == sorted(
        repr(Poly.x(QQ) if place.infinity else place.poly) for place in left)


def test_surface_caches_are_reused():
    E2 = models.e2_surface()
    assert E2.infinity_model() is E2.infinity_model()
    assert E2.delta() is E2.c4_c6_delta()[2]


def test_local_ring_inverse_over_fp2():
    # the gcd inversion divides through F.inv, so it runs over an ExtField:
    # u = 3 + a t + t^2 at the place t - a, a in F_49 outside F_7
    from dyk3.ffield import build_extension
    from dyk3.tate import LocalRing
    F = build_extension(7, 2)
    a = (2, 5)
    pi = Poly(F, [F.neg(a), F.one])
    R = LocalRing(pi, 3)
    u = Poly(F, [F.from_int(3), a, F.one])
    v = R.inv(u)
    assert R.mul(u, v) == Poly.const(F, F.one)
    with pytest.raises(ZeroDivisionError):
        R.inv(pi * u)


def test_surface_over_fq_labels_its_field():
    from dyk3.ffield import build_extension
    F = build_extension(31, 2)
    E = EllipticSurface(F, Poly(F, []), Poly.from_ints(F, [1]), Poly.from_ints(F, [0, 1]),
                        chi=1)
    assert E.base_label == "GF(31^2)" and E.infinity_model().base_label == "GF(31^2)"
    assert E.local_type(Place(infinity=True)).kodaira == "II*"
    assert models.e1_surface().base_label == "QQ"
    assert models.e1_surface("tower").base_label == "Qsqrt5"
    assert models.inose_surface().base_label == "Qsqrt5"


# every additive type, I_n for n <= 24 and I_n* for n <= 18
KODAIRA_SYMBOLS = list(dict.fromkeys(
    ["II", "III", "IV", "I0*", "IV*", "III*", "II*"]
    + [f"I{n}" for n in range(25)] + [f"I{n}*" for n in range(19)]))


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, AssertionError, NotImplementedError) as exc:
        return type(exc), str(exc)


def _parent_disc(old, bad):
    """The parent's trivial_lattice_disc with the A_1 of III and the A_2 of
    IV that it left out: both symbols start with "I" and do not end with
    "*", so it took them for I_0, and its branches for them never ran."""
    disc = old.trivial_lattice_disc(bad)
    for place, fib in bad:
        disc *= {"III": -2, "IV": 3}.get(fib.kodaira, 1) ** place.degree
    return disc


def _parent_grid(old, bad, chi):
    """The parent's grid minimum with the corrections it left out at I_n*,
    n >= 1: its menu there was {0}, where a section can meet a near simple
    component with 1 and a far one with 1 + n/4.  Each choice of those
    corrections lowers 2 chi by their sum; the rest of the grid is the
    parent's."""
    shifts = {Fraction(0)}
    for place, fib in bad:
        if fib.type.family == "I*" and fib.n:
            for _ in range(place.degree):
                shifts = {s + c for s in shifts for c in (0, 1, 1 + Fraction(fib.n, 4))}
    heights = (old.min_positive_height_on_grid(bad, chi - s / 2) for s in shifts)
    return min((h for h in heights if h is not None), default=None)


class _CountingSurface:
    """What bad_fiber_points reads of a surface: q, and iv_split's answer."""

    def __init__(self, q, iv_split):
        self.fieldad = SimpleNamespace(q=q)
        self.iv_split = lambda place: iv_split


def test_kodaira_table_matches_the_parent_code():
    import kodaira_type_oracle as old
    from dyk3.surface import bad_fiber_points
    from dyk3.tate import (LocalFibreData, classify_tame, kodaira_type,
                           ramified_double_preimages)
    places = [Place(Poly.x(QQ)), Place(Poly.from_ints(QQ, [-1, 1, 1]))]
    fibres = []
    for sym in KODAIRA_SYMBOLS:
        t = kodaira_type(sym)
        assert t.symbol == sym and t.vdelta == old._vdelta_of(sym)
        assert classify_tame(*t.vals) == old.classify_tame(*t.vals) == (sym, t.n)
        assert t.components == old.components(sym, t.n)
        assert t.contr == old.CONTR_NONID.get(sym)
        assert (abs(t.det) == 1) == (sym in old.MW_HEIGHT_SKIPS)
        assert ramified_double_image(sym) == old.ramified_double_image(sym)
        assert ramified_double_preimages(sym) \
            == list(dict.fromkeys(old.ramified_double_preimages(sym)))
        for place in places:
            fib = LocalFibreData(place, t, *t.vals)
            fibres.append((place, fib))
            for chi in (1, 2):
                assert min_positive_height_on_grid([(place, fib)], chi) \
                    == _parent_grid(old, [(place, fib)], chi), sym
            assert trivial_lattice_disc([(place, fib)]) == _parent_disc(old, [(place, fib)]) \
                == -t.det ** place.degree, sym
        # the data local_type attaches: split at I_n, the legs at I0*
        splits = (True, False, None) if t.family == "I" else (None,)
        for split in splits:
            for legs in ((1, 2, 4) if sym == "I0*" else (None,)):
                fib = LocalFibreData(places[0], t, *t.vals, split=split,
                                     legs_rational=legs)
                for iv_split in (True, False):
                    S = _CountingSurface(49, iv_split)
                    assert _outcome(bad_fiber_points, S, fib) \
                        == _outcome(old.bad_fiber_points, S, fib), (sym, split, legs)
    for bad in ("", "I", "I*", "V", "IIII", "I-1", "Ia*"):
        with pytest.raises(ValueError):
            kodaira_type(bad)
    # tables of up to four fibres, kept to grids of at most 4000 points
    rng = random.Random(28)
    for _ in range(300):
        bad = rng.sample(fibres, rng.randrange(1, 5))
        size = 1
        for place, fib in bad:
            size *= len(fib.type.menu) ** place.degree
        if size > 4000:
            continue
        chi = rng.choice((1, 2, 3))
        assert min_positive_height_on_grid(bad, chi) \
            == _parent_grid(old, bad, chi), bad
        assert trivial_lattice_disc(bad) == _parent_disc(old, bad), bad
    # every (v c4, v c6, v Delta) near the tame range, inf where c4 or c6 is 0
    inf = float("inf")
    for vc4 in [*range(7), inf]:
        for vc6 in [*range(9), inf]:
            for vd in range(27):
                assert _outcome(classify_tame, vc4, vc6, vd) \
                    == _outcome(old.classify_tame, vc4, vc6, vd), (vc4, vc6, vd)


def test_min_height_grid_at_an_i2_star_fibre():
    # I2* (D6): a section meets the identity, a near simple component (1)
    # or a far one (1 + 2/4 = 3/2).  Alone at chi = 1 the least positive
    # 2 - c is 2 - 3/2 = 1/2; the parent's menu {0} gave 2.  With an I6
    # (0, 5/6, 4/3, 3/2) the least is 2 - (1 + 5/6) = 1/6, where the
    # parent gave 2 - 3/2 = 1/2.
    from dyk3.tate import LocalFibreData, kodaira_type
    t = Poly.x(QQ)
    fibres = [(Place(t - k), kodaira_type(sym)) for k, sym in ((0, "I2*"), (1, "I6"))]
    i2s, i6 = [(place, LocalFibreData(place, kt, *kt.vals)) for place, kt in fibres]
    assert i2s[1].type.menu == {0, 1, Fraction(3, 2)}
    assert min_positive_height_on_grid([i2s], chi=1) == Fraction(1, 2)
    assert min_positive_height_on_grid([i2s, i6], chi=1) == Fraction(1, 6)
    assert kodaira_type("I0*").menu == {0, 1}


def test_heights_at_iv_and_iv_star_fibres():
    # y^2 = x^3 + t^2 has IV at t = 0 and IV* at infinity, and (0, t) runs
    # through both cusps: it is 3-torsion, 2 - 2/3 - 4/3 = 0.  The parent
    # took IV for a multiplicative fibre here and found no node, and left
    # A_2 out of the trivial lattice; NS is unimodular, -9 / 3^2 = -1.
    t = Poly.x(QQ)
    E = EllipticSurface(QQ, Poly(QQ, []), Poly(QQ, []), t * t, chi=1)
    bad = E.bad_fibres()
    assert [fib.kodaira for _, fib in bad] == ["IV", "IV*"]
    P = SectionPoint(E, Poly(QQ, []), t)
    assert [component_index(E, P, place, bad) for place, _ in bad] \
        == [("nonidentity", 1)] * 2
    assert mw_height(E, P, bad) == 0
    assert trivial_lattice_disc(bad) == -9
    assert shioda_tate_disc(0, -9, Fraction(1), 3) == -1


def test_local_type_at_an_i_n_star_fibre():
    # y^2 = x^3 + t x^2 + t^4: v(c4, c6, Delta) = (2, 3, 7) at t = 0, I1*;
    # the step-6 legs are read at I0* only, and no splitness is asked
    t = Poly.x(QQ)
    E = EllipticSurface(QQ, t, Poly(QQ, []), t ** 4, chi=1)
    fib = E.local_type(Place(t))
    assert (fib.kodaira, fib.n, fib.vdelta) == ("I1*", 1, 7)
    assert fib.legs_rational is None and fib.split is None
