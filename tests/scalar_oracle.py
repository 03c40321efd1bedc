"""Scalar ExtField versions of the two surface-counting routes.

They loop over F_q one element at a time, independently of the numpy
kernel in dyk3.surface, and serve the tests as its differential oracle.
"""

from dyk3.elliptic import weierstrass_discriminant
from dyk3.fixtures import SurfaceFixture


def _count_singular_scalar(fix: SurfaceFixture, field) -> int:
    F = field
    mono = [(e, c % F.p) for e, c in fix.monomials]
    total = 0

    def fval(x, y, z):
        acc = F.zero
        for (a, b, cdeg), coef in mono:
            term = F.smul(coef, F.mul(F.mul(F.pow(x, a), F.pow(y, b)), F.pow(z, cdeg)))
            acc = F.add(acc, term)
        return acc

    one = F.one
    for x in F.elements():
        for y in F.elements():
            total += 1 + F.chi(fval(x, y, one))
    for x in F.elements():
        total += 1 + F.chi(fval(x, one, F.zero))
    total += 1 + F.chi(fval(one, F.zero, F.zero))
    return total


def _good_fiber_count_scalar(field, A2, A4, A6) -> int:
    F = field
    total = F.q + 1
    for x in F.elements():
        rhs = F.add(F.mul(F.add(F.mul(F.add(x, A2), x), A4), x), A6)
        total += F.chi(rhs)
    return total


def _fibration_good_scalar(field, a2, a4, a6):
    F = field
    good = 0
    bad_ts = []

    def evalp(coeffs, x):
        acc = F.zero
        for c in reversed(coeffs):
            acc = F.add(F.mul(acc, x), F.from_int(c))
        return acc

    for t0 in F.elements():
        A2, A4, A6 = evalp(a2, t0), evalp(a4, t0), evalp(a6, t0)
        if weierstrass_discriminant(F, A2, A4, A6) == F.zero:
            bad_ts.append(t0)
        else:
            good += _good_fiber_count_scalar(F, A2, A4, A6)
    return good, bad_ts
