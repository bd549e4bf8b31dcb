"""Arithmetic in GF(p^k) for prime powers up to 4096.

Elements are integers 0..q-1 read as base-p coefficient vectors; extension
fields reduce modulo the monic irreducible polynomial of degree k whose
low-order coefficient vector has the least base-p integer encoding, found by
exhaustive scan and verified irreducible by trial division.  Deterministic
across runs.
"""

from __future__ import annotations

MAX_FIELD_ORDER = 4096


class FieldError(ValueError):
    """Invalid field order or undefined operation (e.g. inverse of zero)."""


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise when q is not a prime power."""
    if q < 2:
        raise FieldError(f"field order must be at least 2, got {q}")
    p = None
    for d in range(2, q + 1):
        if q % d == 0:
            p = d
            break
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise FieldError(f"{q} is not a prime power")
    return p, k


# -- polynomial helpers over GF(p); coefficient lists, ascending degree ------


def _digits(a: int, p: int, k: int) -> list[int]:
    """The k base-p digits of a, least significant first."""
    out = []
    for _ in range(k):
        out.append(a % p)
        a //= p
    return out


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = a[-1] * inv_lead % p
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        _poly_trim(a)
    return a


class FiniteField:
    """GF(q) with elements encoded as integers 0..q-1 (base-p digit vectors)."""

    def __init__(self, q: int):
        if q > MAX_FIELD_ORDER:
            raise FieldError(f"field order {q} exceeds the supported {MAX_FIELD_ORDER}")
        p, k = factor_prime_power(q)
        self.p = p
        self.k = k
        self.q = q
        self.modulus = self._find_modulus()

    def _find_modulus(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)  # x itself; unused by the mod-p arithmetic
        # a reducible polynomial of degree k has a monic factor of degree <= k/2
        divisors = [_digits(low, p, d) + [1] for d in range(1, k // 2 + 1) for low in range(p ** d)]
        for low in range(p ** k):
            coeffs = _digits(low, p, k) + [1]
            if all(_poly_mod(coeffs, div, p) for div in divisors):
                return tuple(coeffs)
        raise FieldError(f"no irreducible polynomial found for GF({p}^{k})")  # unreachable

    def _undigits(self, coeffs: list[int]) -> int:
        acc = 0
        for c in reversed(coeffs[: self.k] + [0] * max(0, self.k - len(coeffs))):
            acc = acc * self.p + c
        return acc

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise FieldError(f"element {a} outside 0..{self.q - 1}")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.k == 1:
            return (a + b) % self.p
        da, db = _digits(a, self.p, self.k), _digits(b, self.p, self.k)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        self._check(a)
        if self.k == 1:
            return (-a) % self.p
        return self._undigits([(-x) % self.p for x in _digits(a, self.p, self.k)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.k == 1:
            return a * b % self.p
        prod = _poly_mul(_digits(a, self.p, self.k), _digits(b, self.p, self.k), self.p)
        return self._undigits(_poly_mod(prod, list(self.modulus), self.p))

    def power(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            return self.power(self.inverse(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inverse(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        return self.power(a, self.q - 2)

    def is_square(self, a: int) -> bool:
        """Quadratic-residue test; in characteristic 2 every element is a square."""
        self._check(a)
        if a == 0 or self.p == 2:
            return True
        return self.power(a, (self.q - 1) // 2) == 1
