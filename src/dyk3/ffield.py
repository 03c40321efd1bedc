"""Exact arithmetic in F_p and F_{p^n} for n <= 4.

Elements of F_{p^n} are coefficient tuples (c_0, ..., c_{n-1}) of
polynomials in a fixed generator, reduced modulo a deterministic
irreducible modulus.  All arithmetic uses exact Python integers; there is
no floating point anywhere in this module.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import Poly

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond machine-word range."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, p: int) -> int:
    """Quadratic-residue symbol (a/p) for an odd prime p, in {-1, 0, 1}.

    Computed by the Euler criterion a^((p-1)/2) mod p.
    """
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    return _legendre(a, p)


def _legendre(a: int, p: int) -> int:
    """(a/p) by the Euler criterion; p is trusted to be an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int):
    """A square root of a modulo an odd prime p, or None."""
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def require_odd_prime(p: int):
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")


def rational_mod_p(c, p: int) -> int:
    """The image in F_p of a rational c; its denominator must be prime to p."""
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"denominator of {c} divisible by p = {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


# ---------------------------------------------------------------------------
# extensions


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, mod, p):
    """a*b mod (mod, p); mod is monic, coefficient lists low-to-high."""
    n = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
    return _poly_trim(prod)


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = list(base)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_divmod(a, b, p):
    """(quotient, remainder) of a by b != 0 over F_p, lists low-to-high."""
    r = list(a)
    db = len(b) - 1
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1 - db, -1, -1):
        c = r[i + db] * binv % p
        if c:
            q[i] = c
            for j in range(db + 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return _poly_trim(q), _poly_trim(r[:db])


def _poly_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_gcd(a, b, p):
    """Monic gcd over F_p of trimmed lists; [] when both are zero."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p)


def _poly_add(m, a, b, sign=1):
    """a + sign b mod m, trimmed."""
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _poly_trim([(x + sign * y) % m for x, y in zip(a, b)])


def _poly_squarefree_part(f, p):
    """f / gcd(f, f') for a monic f over F_p: f itself exactly when f is
    square-free, and the product of its distinct irreducible factors when
    no factor repeats a multiple of p times, as when deg f < p."""
    df = _poly_trim([i * c % p for i, c in enumerate(f)][1:])
    return _poly_divmod(f, _poly_gcd(f, df, p), p)[0]


def _distinct_degree(f, p):
    """[(g_d, d)] for the monic square-free f over F_p, g_d the product of
    its irreducible factors of degree d, from gcd(x^(p^d) - x, f)."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _poly_powmod(h, p, f, p)
        g = _poly_gcd(f, _poly_add(p, h, [0, 1], -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _poly_divmod(f, g, p)[0]
            h = _poly_divmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] * (len(f) > 1)


def _poly_equal_degree_split(g, d, p):
    """The monic irreducible factors of g, a monic product of distinct
    irreducibles of degree d over F_p (Cantor-Zassenhaus, p odd).

    For a random u of degree < deg h, u^((p^d - 1)/2) is 0 or +-1 at each
    root of h, independently, so gcd(u^((p^d - 1)/2) - 1, h) splits h with
    probability about 1/2.  The random source has a fixed seed.
    """
    rng = random.Random(0x5EED)
    e = (p ** d - 1) // 2
    out, stack = [], [g] if len(g) > 1 else []
    while stack:
        h = stack.pop()
        if len(h) - 1 == d:
            out.append(h)
            continue
        while True:
            u = _poly_trim([rng.randrange(p) for _ in range(len(h) - 1)])
            t = _poly_powmod(u, e, h, p) or [0]
            t[0] = (t[0] - 1) % p
            g1 = _poly_gcd(h, _poly_trim(t), p)
            if 0 < len(g1) - 1 < len(h) - 1:
                stack += [g1, _poly_divmod(h, g1, p)[0]]
                break
    return out


def _is_irreducible(coeffs, n, p):
    """Irreducibility of the monic degree-n poly over F_p.  A repeated
    factor of degree d <= n/2 shows at step d of the distinct-degree
    split, so f need not be square-free."""
    f = coeffs + [1]
    return _distinct_degree(f, p) == [(f, n)]


def lex_min_irreducible(p: int, n: int):
    """Smallest monic irreducible of degree n over F_p.

    Candidates x^n + c_{n-1}x^{n-1} + ... + c_0 are ordered by the integer
    sum(c_i p^i), ascending; the scan is deterministic so every run and
    every implementation picks the same modulus.  At n = 2 it is always
    x^2 + c_0 with -c_0 the first non-residue below p, so one Legendre
    symbol per candidate c_0 = 1, 2, ... finds it.
    """
    if n == 1:
        return (0,)
    if n == 2:
        return (next(c for c in range(1, p) if _legendre(-c, p) == -1), 0)
    for k in range(p ** n):
        c = [(k // p ** i) % p for i in range(n)]
        if _is_irreducible(c, n, p):
            return tuple(c)
    raise RuntimeError("no irreducible found")  # unreachable


class ExtField:
    """F_{p^n} = F_p[x]/(modulus), elements are tuples of length n.

    The modulus is lex_min_irreducible(p, n).  At n = 2 it is x^2 + c_0, so
    add, sub and mul there are closed forms, and inv, chi and sqrt go
    through the norm a_0^2 + c_0 a_1^2.
    """

    def __init__(self, p: int, n: int):
        if not 1 <= n <= 4:
            raise ValueError("extension degree must be 1..4")
        require_odd_prime(p)
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = lex_min_irreducible(p, n)
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)
        self._modlist = list(self.modulus) + [1]
        self._sylow3 = None   # (s, t, generator of the 3-Sylow subgroup)

    def __repr__(self):
        return f"GF({self.p}^{self.n})"

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.p == self.p
                and other.n == self.n and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ExtField", self.p, self.n, self.modulus))

    # -- element construction ------------------------------------------------
    def from_int(self, a: int):
        return (a % self.p,) + (0,) * (self.n - 1)

    def gen(self):
        if self.n == 1:
            raise ValueError("prime field has no extension generator")
        return (0, 1) + (0,) * (self.n - 2)

    def encode(self, a) -> int:
        """Element as an integer in [0, q): sum a_i p^i (canonical basis order)."""
        return sum(c * self.p ** i for i, c in enumerate(a))

    def decode(self, k: int):
        return tuple((k // self.p ** i) % self.p for i in range(self.n))

    def elements(self):
        for k in range(self.q):
            yield self.decode(k)

    # -- arithmetic ------------------------------------------------------------
    def is_zero(self, a) -> bool:
        return a == self.zero

    def add(self, a, b):
        p = self.p
        if self.n == 2:
            return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        if self.n == 2:
            return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p = self.p
        if self.n == 1:
            return (a[0] * b[0] % p,)
        if self.n == 2:
            a0, a1 = a
            b0, b1 = b
            return ((a0 * b0 - self.modulus[0] * a1 * b1) % p,
                    (a0 * b1 + a1 * b0) % p)
        c = _poly_mulmod(list(a), list(b), self._modlist, self.p)
        return tuple(c) + (0,) * (self.n - len(c))

    def smul(self, k: int, a):
        p = self.p
        return tuple(k * x % p for x in a)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, b = self.one, a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0")
        p = self.p
        if self.n == 1:
            return (pow(a[0], p - 2, p),)
        if self.n == 2:
            # 1/a = conj(a) / N(a), conj(a_0 + a_1 x) = a_0 - a_1 x
            a0, a1 = a
            ninv = pow(a0 * a0 + self.modulus[0] * a1 * a1, p - 2, p)
            return (a0 * ninv % p, -a1 * ninv % p)
        return self.pow(a, self.q - 2)

    def frobenius(self, a):
        """x -> x^p."""
        return self.pow(a, self.p)

    def chi(self, a) -> int:
        """Quadratic character of F_q, chi(0) = 0.

        At n = 2, chi_{p^2}(a) = chi_p(N(a)) for the norm N(a) = a^(p+1).
        """
        if a == self.zero:
            return 0
        if self.n == 1:
            return _legendre(a[0], self.p)
        if self.n == 2:
            return _legendre(a[0] * a[0] + self.modulus[0] * a[1] * a[1], self.p)
        e = self.pow(a, (self.q - 1) // 2)
        return 1 if e == self.one else -1

    def sqrt(self, a):
        """A square root in F_q, or None; n <= 2.

        At n = 2 with x^2 = -c_0, (b_0 + b_1 x)^2 = a gives
        b_0^2 = (a_0 +- sqrt(N(a))) / 2 and b_1 = a_1 / (2 b_0); for a_1 != 0
        the two choices multiply to -c_0 a_1^2 / 4, a non-residue, so
        exactly one of them is a square in F_p.
        """
        if self.n > 2:
            raise ValueError("square roots limited to F_p and F_{p^2}")
        p = self.p
        if self.n == 1:
            r = sqrt_mod(a[0], p)
            return None if r is None else (r,)
        a0, a1 = a
        c0 = self.modulus[0]
        if a1 == 0:
            r = sqrt_mod(a0, p)
            if r is not None:
                return (r, 0)
            # a_0 / (-c_0) is a square, and (r x)^2 = -c_0 r^2
            return (0, sqrt_mod(-a0 * pow(c0, p - 2, p), p))
        n = sqrt_mod(a0 * a0 + c0 * a1 * a1, p)
        if n is None:
            return None
        half = (p + 1) // 2
        b0 = sqrt_mod((a0 + n) * half, p)
        if b0 is None:
            b0 = sqrt_mod((a0 - n) * half, p)
        return (b0, a1 * pow(2 * b0, p - 2, p) % p)

    def cbrt(self, a):
        """A cube root in F_q, or None; n <= 2.

        a^((2q-1)/3) when q = 2 mod 3.  Otherwise write q - 1 = 3^s t with
        3 not dividing t: r = a^k, 3k = 1 mod t, has r^3 = a e with e in the
        3-Sylow subgroup, and the cubic Tonelli step (Adleman-Manders-Miller)
        finds the cube root of 1/e there by a base-3 discrete log.
        """
        if self.n > 2:
            raise ValueError("cube roots limited to F_p and F_{p^2}")
        if a == self.zero:
            return self.zero
        q = self.q
        if q % 3 == 2:
            return self.pow(a, (2 * q - 1) // 3)
        if self.pow(a, (q - 1) // 3) != self.one:
            return None
        s, t, c = self._sylow3_data()
        r = self.pow(a, pow(3, -1, t))
        h = self.mul(a, self.inv(self.mul(r, self.mul(r, r))))
        # h = 1/e = c^x; read x off in base 3, one digit per power of the
        # order-3 element zeta, then c^(x/3) cubes to h
        zeta = self.pow(c, 3 ** (s - 1))
        digits = {self.one: 0, zeta: 1, self.mul(zeta, zeta): 2}
        x = 0
        for i in range(s):
            g = self.mul(h, self.pow(c, -x))
            x += digits[self.pow(g, 3 ** (s - 1 - i))] * 3 ** i
        return self.mul(r, self.pow(c, x // 3))

    def _sylow3_data(self):
        """(s, t, c): q - 1 = 3^s t, c of order 3^s from the first cubic
        non-residue among k + x (n = 2) or k (n = 1), k = 1, 2, ..."""
        if self._sylow3 is None:
            s, t = 0, self.q - 1
            while t % 3 == 0:
                s, t = s + 1, t // 3
            base = self.gen() if self.n == 2 else self.zero
            k = 1
            while True:
                z = self.add(base, self.from_int(k))
                if self.pow(z, (self.q - 1) // 3) != self.one:
                    break
                k += 1
            self._sylow3 = (s, t, self.pow(z, t))
        return self._sylow3


def build_extension(p: int, n: int) -> ExtField:
    """F_{p^n} with the deterministic lexicographically-least modulus."""
    return ExtField(p, n)


# ---------------------------------------------------------------------------
# polynomials over F_q and root finding


class FqPoly(Poly):
    """A Poly over an ExtField, with the modular powers of root finding."""

    __slots__ = ()

    def powmod(self, e: int, mod: Poly) -> Poly:
        """self^e mod `mod`, by repeated squaring."""
        F = self.field
        result = Poly.const(F, F.one)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result


def find_roots(f: Poly, field: ExtField, exhaustive: bool | None = None) -> set:
    """All roots in F_q of the Poly f over F_q, each once, verified by
    re-substitution.

    Default strategy: gcd with x^q - x, then equal-degree splitting with a
    fixed-seed random source.  Small fields (q <= 256) instead scan
    exhaustively; both paths are cross-checked in the tests.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every element as a root")
    F = field
    if exhaustive is None:
        exhaustive = F.q <= 256
    if exhaustive:
        roots = {x for x in F.elements() if F.is_zero(f(x))}
    else:
        x = FqPoly.x(F)
        g = f.gcd(x.powmod(F.q, f) - x)
        roots = set()
        rng = random.Random(0x5EED)
        stack = [g]
        while stack:
            h = stack.pop()
            d = h.degree()
            if d <= 0:
                continue
            if d == 1:
                # h = x + c (monic)
                roots.add(F.neg(h.coeffs[0]))
                continue
            # Cantor-Zassenhaus split of a product of distinct linear factors
            while True:
                a = F.decode(rng.randrange(F.q))
                g1 = h.gcd(FqPoly(F, [a, F.one]).powmod((F.q - 1) // 2, h) - 1)
                if 0 < g1.degree() < d:
                    stack += [g1, h // g1]
                    break
    if not all(F.is_zero(f(r)) for r in roots):
        raise AssertionError("root verification failed")
    return roots
