"""Batch front-end: fixture loading, subcommand dispatch, report emission.

Reports are line-delimited JSON objects (CSV for scans); all numeric output
is exact (integers, or fractions rendered as strings).  Exit codes: 0 all
requested assertions pass, 2 usage error (an unknown model too),
3 malformed fixture, 4 assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from . import __version__
from .fixtures import FixtureError

EXIT_OK = 0
EXIT_FIXTURE = 3
EXIT_ASSERT = 4

# The largest q = p^n that count, weil and si-verify count at.  A count over
# F_q takes of order q^2 steps: q = 71^2 takes seconds, q = 2^15 minutes,
# and a q near 10^6 would run for days.
MAX_Q = 2 ** 15


class UsageError(Exception):
    """A bad argument value, reported like argparse's own errors (exit 2)."""


def _emit(out, obj):
    out.write(json.dumps(obj, default=_jsonify, sort_keys=True) + "\n")


def _jsonify(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (set, frozenset)):
        return sorted(v)
    return str(v)


def _place_str(place):
    if place.infinity:
        return "inf"
    return ",".join(str(Fraction(str(c)) if not hasattr(c, "co") else c)
                    for c in place.poly.coeffs)


def _meta(provenance):
    return {"tool": "dyk3", "version": __version__,
            "fixture_provenance": provenance}


def _check_prime(p, fix):
    """p must be an odd prime of good reduction for the surface `fix`."""
    from .ffield import is_prime
    if p == 2 or not is_prime(p):
        raise UsageError(f"p = {p} is not an odd prime")
    if p in fix.bad_primes:
        raise UsageError(f"p = {p} is a bad-reduction prime for {fix.name}")


def _check_q(p, degrees):
    """Every q = p^n to be counted at must be at most MAX_Q."""
    n = max(degrees)
    if p ** n > MAX_Q:
        raise UsageError(f"q = {p}^{n} exceeds {MAX_Q}, the largest q counted at")


def cmd_count(args, out):
    from .surface import three_way_counts
    from .fixtures import load_surface
    fix = load_surface(args.surface)
    _check_prime(args.prime, fix)
    _check_q(args.prime, args.ext)
    ok = True
    for n in args.ext:
        rec = three_way_counts(args.prime, n, fix=fix)
        rec.update(_meta(fix.provenance))
        rec["op"] = "count"
        _emit(out, rec)
        ok = ok and rec["agree"]
    return EXIT_OK if ok else EXIT_ASSERT


def cmd_weil(args, out):
    from .ffield import build_extension
    from .surface import count_smooth
    from .weil import (solve_transcendental, spectrum_report,
                       transcendental_traces, van_luijk)
    from .fixtures import load_surface
    fix = load_surface(args.surface)
    for p in args.primes:
        _check_prime(p, fix)
        _check_q(p, (1, 2))
    specs = []
    for p in args.primes:
        c1, c2 = (count_smooth(fix, build_extension(p, n)).smooth
                  for n in (1, 2))
        mu1, mu2 = transcendental_traces(c1, c2, p)
        spec = solve_transcendental(mu1, mu2, p)
        rec = spectrum_report(spec)
        rec.update(_meta(fix.provenance))
        rec["op"] = "weil"
        _emit(out, rec)
        specs.append(spec)
    if len(specs) == 2:
        bound = van_luijk(specs[0], specs[1])
        _emit(out, {"op": "weil", "picard_bound": bound, **_meta(fix.provenance)})
        return EXIT_OK if bound == 19 else EXIT_ASSERT
    return EXIT_OK


def cmd_lattice(args, out):
    from .fixtures import load_gram
    from .lattice import (GramLattice, c2_cohomology, discriminant_group,
                          index2_overlattice_candidates, kernel_relation,
                          rank_det, span_action)
    fix = load_gram(args.fixture)
    L = GramLattice.from_fixture(fix)
    prov = fix.meta.get("provenance", "unknown")
    rec = {"op": "lattice", "fixture": args.fixture, "lattice_op": args.op,
           **_meta(prov)}
    if args.op == "rank-det":
        rank, det = rank_det(L)
        rec.update({"rank": rank, "det": det})
    elif args.op == "disc-group":
        rec["disc_group"] = ",".join(str(d) for d in discriminant_group(L))
    elif args.op == "overlattice":
        res = index2_overlattice_candidates(L)
        rec["index2_candidates"] = len(res["candidates"])
    elif args.op == "relation":
        rad = kernel_relation(L)
        rec["radical_rank"] = len(rad)
        rec["radical"] = [dict(zip(fix.labels, v)) for v in rad]
    elif args.op == "cohomology":
        action = span_action(L, fix.galois_permutation())
        if action is None:
            _emit(out, {"op": "lattice", "error": "action does not "
                        "preserve the span"})
            return EXIT_ASSERT
        h0, h1, h2 = c2_cohomology(*action)
        rec.update({"H0_rank": h0, "H1": h1 or "0",
                    "H2": "x".join(f"Z/{d}" for d in h2),
                    "brauer_quotient_trivial": h1 == []})
    _emit(out, rec)
    return EXIT_OK


def cmd_kodaira(args, out):
    from .fixtures import load_gram
    from .kodaira import (CurveSet, find_fibres, group_fibrations,
                          orbit_count)
    fix = load_gram(args.fixture)
    try:
        S = CurveSet(fix.labels, fix.gram)
        gens = []
        if args.group and fix.meta.get("galois-swap"):
            gens.append(fix.galois_permutation())
        if args.group and fix.meta.get("mirror-swap"):
            gens.append(fix.mirror_permutation())
        fibres = find_fibres(S, max_n=args.max_n)
        rec = {"op": "kodaira", "fixture": args.fixture, "fibres": len(fibres),
               "by_type": dict(sorted(Counter(fibres.kinds).items())),
               **_meta(fix.meta.get("provenance", "unknown"))}
        fibs = group_fibrations(fibres, S)
        rec["fibrations"] = len(fibs)
        rec["with_section_in_set"] = int(fibs.has_section_in_set.sum())
        if gens:
            rec["orbits"] = orbit_count(fibs, gens, S)
            rec["orbits_with_section"] = orbit_count(
                fibs, gens, S, predicate=lambda f: f.has_section)
            rec["orbits_with_section_in_set"] = orbit_count(
                fibs, gens, S, predicate=lambda f: f.has_section_in_set)
    except ValueError as exc:       # the fixture's matrix or its symmetries
        _emit(out, {"op": "kodaira", "error": str(exc)})
        return EXIT_FIXTURE
    _emit(out, rec)
    return EXIT_OK


def cmd_tate(args, out):
    from . import models
    from .tate import analyze_quartic_double_cover
    if args.model == "third":
        res = analyze_quartic_double_cover(models.third_fibration_quartic())
        for pl, sym, nn in res["t_table"]:
            _emit(out, {"op": "tate", "model": "third",
                        "place_coeffs": _place_str(pl),
                        "degree": pl.degree, "kodaira": sym,
                        **_meta("paper-text")})
        _emit(out, {"op": "tate", "model": "third",
                    "total_vdelta": res["total_vdelta"], **_meta("paper-text")})
        return EXIT_OK if res["total_vdelta"] == 24 else EXIT_ASSERT
    surf = {"e1": models.e1_surface, "e2": models.e2_surface,
            "inose": models.inose_surface}[args.model]()
    total = 0
    for place, fib in surf.bad_fibres():
        total += fib.vdelta * place.degree
        _emit(out, {"op": "tate", "model": args.model,
                    "place_coeffs": _place_str(place),
                    "degree": place.degree, "kodaira": fib.kodaira,
                    "vdelta": fib.vdelta, "split": fib.split,
                    "legs_rational": fib.legs_rational, **_meta("paper-text")})
    _emit(out, {"op": "tate", "model": args.model, "total_vdelta": total,
                **_meta("paper-text")})
    return EXIT_OK if total == 12 * surf.chi else EXIT_ASSERT


def cmd_height(args, out):
    from . import models
    from .tate import (min_positive_height_on_grid, mw_height,
                       shioda_tate_disc, torsion_two_divisibility,
                       trivial_lattice_disc)
    E2 = models.e2_surface()
    bad = E2.bad_fibres()
    T, P3 = models.e2_sections(E2)
    hP = mw_height(E2, P3, bad)
    hT = mw_height(E2, T, bad)
    dtriv = trivial_lattice_disc(bad)
    disc = shioda_tate_disc(1, dtriv, hP, 2)
    tors = torsion_two_divisibility(E2, T)
    grid = min_positive_height_on_grid(bad)
    rec = {"op": "height", "model": "e2", "height_P3": hP, "height_T": hT,
           "disc_triv": dtriv, "disc_NS": disc,
           "torsion_two_divisible": tors["two_divisible"],
           "squarefree_part_coeffs": [str(Fraction(c)) for c in tors["squarefree_part"].coeffs],
           "min_positive_grid_height": grid, **_meta("paper-text")}
    _emit(out, rec)
    ok = (hP == Fraction(3, 20) and hT == 0 and disc == 24
          and not tors["two_divisible"])
    return EXIT_OK if ok else EXIT_ASSERT


def cmd_ss_scan(args, out):
    from .fixtures import load_tower_constants
    from .sscan import ScanConfig, scan
    cst = load_tower_constants()
    hi = 104729 if args.full else args.to
    cfg = ScanConfig(cst.j_min_poly, args.start, hi)
    rep = scan(cfg, threads=args.threads)
    if args.format == "csv":
        out.write("prime,supersingular,witness_root\n")
        for p in rep.primes:
            wit = rep.witnesses[p][0]
            root = "+".join(f"{c}*b^{i}" for i, c in enumerate(wit.root) if c)
            out.write(f"{p},1,{root or '0'}\n")
    else:
        for p in rep.primes:
            wit = rep.witnesses[p][0]
            _emit(out, {"op": "ss-scan", "prime": p, "supersingular": True,
                        "witness_root": list(wit.root),
                        "special": wit.special, **_meta(cst.provenance)})
    return EXIT_OK


def _check_split_prime(p):
    from .ffield import is_prime
    from .numfield import SplitEmbedding
    if p < 7 or not is_prime(p) or not SplitEmbedding.splits_k4(p):
        raise UsageError(f"p = {p} is not a prime >= 7 split in Q(sqrt2, sqrt5)")


def cmd_si_verify(args, out):
    from .fixtures import load_surface, load_tower_constants
    from .siverify import predict_counts, verify_kummer_match
    from .surface import three_way_counts
    if not args.system:
        _check_split_prime(args.prime)
        _check_q(args.prime, args.ext)
    cst = load_tower_constants()
    if args.system:
        res = verify_kummer_match(cst)
        _emit(out, {"op": "si-verify", "mode": "system",
                    "equations_zero": res["system_zero"],
                    "coefficient_match": res["match_consistency"] and
                    res["fourth_equation"], "ok": res["ok"],
                    **_meta(cst.provenance)})
        return EXIT_OK if res["ok"] else EXIT_ASSERT
    p = args.prime
    pred = predict_counts(p, cst)
    fix = load_surface()
    ok = True
    for n in args.ext:
        want = pred.count1 if n == 1 else pred.count2
        got = three_way_counts(p, n, fix=fix)
        rec = {"op": "si-verify", "p": p, "n": n, "prediction": want,
               "count_smooth": got["count_smooth"],
               "count_fibration": got["count_fibration"],
               "verdict": want == got["count_smooth"] == got["count_fibration"],
               "a_p": pred.a_p, "mu": pred.mu, **_meta(cst.provenance)}
        ok = ok and rec["verdict"]
        _emit(out, rec)
    return EXIT_OK if ok else EXIT_ASSERT


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dyk3",
        description="exact arithmetic of the Drell-Yan K3 surface")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="surface point counts")
    c.add_argument("--surface", default="drell-yan", choices=("drell-yan",))
    c.add_argument("-p", "--prime", type=int, required=True)
    c.add_argument("-n", "--ext", type=int, nargs="+", default=[1],
                   choices=(1, 2, 3, 4))
    c.set_defaults(func=cmd_count)

    w = sub.add_parser("weil", help="Frobenius spectra and the rank bound")
    w.add_argument("--surface", default="drell-yan", choices=("drell-yan",))
    w.add_argument("--primes", type=lambda s: [int(x) for x in s.split(",")],
                   required=True)
    w.set_defaults(func=cmd_weil)

    l = sub.add_parser("lattice", help="integer lattice computations")
    l.add_argument("--fixture", required=True)
    l.add_argument("--op", default="rank-det",
                   choices=("rank-det", "disc-group", "overlattice",
                            "relation", "cohomology"))
    l.set_defaults(func=cmd_lattice)

    k = sub.add_parser("kodaira", help="fibre census on a curve set")
    k.add_argument("--fixture", default="curves34")
    k.add_argument("--max-n", type=int, default=16)
    k.add_argument("--group", action="store_true",
                   help="also count symmetry orbits")
    k.set_defaults(func=cmd_kodaira)

    t = sub.add_parser("tate", help="bad-fibre tables")
    t.add_argument("--model", default="e2",
                   choices=("e1", "e2", "inose", "third"))
    t.set_defaults(func=cmd_tate)

    h = sub.add_parser("height", help="Mordell-Weil heights and discriminants")
    h.add_argument("--model", default="e2", choices=("e2",))
    h.set_defaults(func=cmd_height)

    s = sub.add_parser("ss-scan", help="supersingular prime sieve")
    s.add_argument("--from", dest="start", type=int, default=7)
    s.add_argument("--to", type=int, default=3500)
    s.add_argument("--full", action="store_true",
                   help="scan the whole range up to 104729")
    s.set_defaults(func=cmd_ss_scan)

    v = sub.add_parser("si-verify", help="closed-formula count verification")
    v.add_argument("--prime", type=int)
    v.add_argument("--ext", type=int, nargs="+", default=[1, 2], choices=(1, 2))
    v.add_argument("--system", action="store_true",
                   help="check the five-equation coefficient system")
    v.set_defaults(func=cmd_si_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "si-verify" and not args.system and args.prime is None:
        ap.error("si-verify needs --prime or --system")
    if args.cmd == "kodaira" and args.max_n < 2:
        ap.error("--max-n must be >= 2")
    try:
        if args.out:
            with open(args.out, "w") as fh:
                return _run(args, fh)
        return _run(args, sys.stdout)
    except UsageError as exc:
        ap.error(str(exc))


def _run(args, out):
    """args.func, with a missing or malformed fixture reported as a JSON
    error record and exit 3."""
    try:
        return args.func(args, out)
    except FixtureError as exc:
        _emit(out, {"op": args.cmd, "error": str(exc)})
        return EXIT_FIXTURE


if __name__ == "__main__":
    sys.exit(main())
