"""Exact arithmetic in F_p and F_{p^n} for n <= 4.

Elements of F_{p^n} are coefficient tuples (c_0, ..., c_{n-1}) of
polynomials in a fixed generator, reduced modulo a deterministic
irreducible modulus.  All arithmetic uses exact Python integers; there is
no floating point anywhere in this module.
"""

from __future__ import annotations

import random

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
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def sqrt_mod(a: int, p: int):
    """A square root of a modulo an odd prime p, or None."""
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
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


class PrimeField:
    """The prime field F_p; primality is verified at construction."""

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"p = {p} is not an odd prime")
        self.p = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def chi(self, a: int) -> int:
        """Quadratic character with chi(0) = 0."""
        return kronecker(a, self.p)


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


def _is_irreducible(coeffs, n, p):
    """Irreducibility of the monic degree-n poly over F_p (n <= 4)."""
    mod = coeffs + [1]
    x = [0, 1]
    # x^(p^n) == x mod f
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


def lex_min_irreducible(p: int, n: int):
    """Smallest monic irreducible of degree n over F_p.

    Candidates x^n + c_{n-1}x^{n-1} + ... + c_0 are ordered by the integer
    sum(c_i p^i), ascending; the scan is deterministic so every run and
    every implementation picks the same modulus.
    """
    if n == 1:
        return (0,)
    for k in range(p ** n):
        c = [(k // p ** i) % p for i in range(n)]
        if _is_irreducible(c, n, p):
            return tuple(c)
    raise RuntimeError("no irreducible found")  # unreachable


class ExtField:
    """F_{p^n} = F_p[x]/(modulus), elements are tuples of length n."""

    def __init__(self, p: int, n: int, modulus=None):
        if not 1 <= n <= 4:
            raise ValueError("extension degree must be 1..4")
        self.base = PrimeField(p)
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(modulus) if modulus is not None else lex_min_irreducible(p, n)
        if len(self.modulus) != n:
            raise ValueError("modulus must be monic of degree n (n low coefficients)")
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)
        self._modlist = list(self.modulus) + [1]

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
    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        if self.n == 1:
            return (a[0] * b[0] % self.p,)
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
        if self.n == 1:
            return (pow(a[0], self.p - 2, self.p),)
        # extended Euclid in F_p[x]
        p = self.p
        r0, r1 = self._modlist, _poly_trim(list(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            # divide r0 by r1
            q, rem = self._polydivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, self._polysub(s0, self._polymul(q, s1))
        if not r1:
            raise ZeroDivisionError("element not invertible (bad modulus?)")
        c = pow(r1[0], p - 2, p)
        out = [c * x % p for x in s1]
        out = out[: self.n] + [0] * max(0, self.n - len(out))
        return tuple(out[: self.n])

    def _polymul(self, a, b):
        p = self.p
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return _poly_trim(out)

    def _polysub(self, a, b):
        p = self.p
        out = [0] * max(len(a), len(b))
        for i, ai in enumerate(a):
            out[i] = ai
        for i, bi in enumerate(b):
            out[i] = (out[i] - bi) % p
        return _poly_trim(out)

    def _polydivmod(self, a, b):
        p = self.p
        a = list(a)
        binv = pow(b[-1], p - 2, p)
        q = [0] * max(0, len(a) - len(b) + 1)
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + len(b) - 1] * binv % p
            if c:
                q[i] = c
                for j, bj in enumerate(b):
                    a[i + j] = (a[i + j] - c * bj) % p
        return q, _poly_trim(a)

    def frobenius(self, a):
        """x -> x^p."""
        return self.pow(a, self.p)

    def chi(self, a) -> int:
        """Quadratic character of F_q, chi(0) = 0."""
        if a == self.zero:
            return 0
        if self.n == 1:
            return kronecker(a[0], self.p)
        e = self.pow(a, (self.q - 1) // 2)
        return 1 if e == self.one else -1

    def sqrt(self, a):
        """A square root in F_q, or None.  Tonelli-Shanks over F_q."""
        if a == self.zero:
            return self.zero
        if self.chi(a) != 1:
            return None
        if self.n == 1:
            return (sqrt_mod(a[0], self.p),)
        q = self.q
        if q % 4 == 3:
            return self.pow(a, (q + 1) // 4)
        m, s = q - 1, 0
        while m % 2 == 0:
            m //= 2
            s += 1
        rng = random.Random(0xD1CE)
        while True:
            z = self.decode(rng.randrange(1, q))
            if self.chi(z) == -1:
                break
        c, t, r, e = self.pow(z, m), self.pow(a, m), self.pow(a, (m + 1) // 2), s
        while t != self.one:
            i, t2 = 0, t
            while t2 != self.one:
                t2 = self.mul(t2, t2)
                i += 1
            b = c
            for _ in range(e - i - 1):
                b = self.mul(b, b)
            r, c = self.mul(r, b), self.mul(b, b)
            t, e = self.mul(t, c), i
        return r


def build_extension(p: int, n: int) -> ExtField:
    """F_{p^n} with the deterministic lexicographically-least modulus."""
    return ExtField(p, n)


# ---------------------------------------------------------------------------
# polynomials over F_q and root finding


class FqPoly:
    """Dense polynomial over an ExtField; coefficients low-to-high."""

    def __init__(self, field: ExtField, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and cs[-1] == field.zero:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(c) for c in ints])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return self.field == other.field and self.coeffs == other.coeffs

    def __call__(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def monic(self):
        if self.is_zero():
            return self
        F = self.field
        lead = self.coeffs[-1]
        if lead == F.one:
            return self
        li = F.inv(lead)
        return FqPoly(F, [F.mul(c, li) for c in self.coeffs])

    def __mul__(self, other):
        F = self.field
        if self.is_zero() or other.is_zero():
            return FqPoly(F, [])
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a != F.zero:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return FqPoly(F, out)

    def __add__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [F.zero] * n
        for i, a in enumerate(self.coeffs):
            out[i] = a
        for i, b in enumerate(other.coeffs):
            out[i] = F.add(out[i], b)
        return FqPoly(F, out)

    def scale(self, k: int):
        F = self.field
        return FqPoly(F, [F.smul(k, c) for c in self.coeffs])

    def scale_elt(self, e):
        F = self.field
        return FqPoly(F, [F.mul(e, c) for c in self.coeffs])

    def coeff0(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def shift_down(self, k: int):
        """Exact division by t^k."""
        F = self.field
        if self.is_zero():
            return self
        if any(c != F.zero for c in self.coeffs[:k]):
            raise ValueError("not divisible by t^k")
        return FqPoly(F, self.coeffs[k:])

    def shift(self, t0):
        """p(t + t0)."""
        F = self.field
        acc = FqPoly(F, [])
        lin = FqPoly(F, [t0, F.one])
        for c in reversed(self.coeffs):
            acc = acc * lin + FqPoly(F, [c])
        return acc

    def __sub__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [F.zero] * n
        for i, a in enumerate(self.coeffs):
            out[i] = a
        for i, b in enumerate(other.coeffs):
            out[i] = F.sub(out[i], b)
        return FqPoly(F, out)

    def divmod(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        a = list(self.coeffs)
        b = other.coeffs
        binv = F.inv(b[-1])
        if len(a) < len(b):
            return FqPoly(F, []), FqPoly(F, a)
        q = [F.zero] * (len(a) - len(b) + 1)
        for i in range(len(a) - len(b), -1, -1):
            c = F.mul(a[i + len(b) - 1], binv)
            if c != F.zero:
                q[i] = c
                for j, bj in enumerate(b):
                    a[i + j] = F.sub(a[i + j], F.mul(c, bj))
        return FqPoly(F, q), FqPoly(F, a)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def powmod(self, e: int, mod: "FqPoly") -> "FqPoly":
        F = self.field
        result = FqPoly(F, [F.one])
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result


def find_roots(f: FqPoly, field: ExtField, exhaustive: bool | None = None) -> set:
    """All roots of f in F_q, each once, verified by re-substitution.

    Default strategy: gcd with x^q - x, then equal-degree splitting with a
    fixed-seed random source.  Small fields (q <= 4096) may instead scan
    exhaustively; both paths are cross-checked in the tests.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every element as a root")
    F = field
    if exhaustive is None:
        exhaustive = F.q <= 256
    if exhaustive:
        roots = {x for x in F.elements() if f(x) == F.zero}
    else:
        x = FqPoly(F, [F.zero, F.one])
        xq = x.powmod(F.q, f)
        g = f.gcd(xq - x)
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
                shift = FqPoly(F, [a, F.one])
                trial = shift.powmod((F.q - 1) // 2, h) - FqPoly(F, [F.one])
                g1 = h.gcd(trial)
                if 0 < g1.degree() < d:
                    g2 = h.divmod(g1)[0]
                    stack.append(g1)
                    stack.append(g2)
                    break
    for r in roots:
        if f(r) != F.zero:
            raise AssertionError("root verification failed")
    return roots
