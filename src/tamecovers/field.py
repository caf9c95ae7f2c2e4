"""Exact fields of computation: F_p, F_{p^n} and the rationals Q.

Elements are immutable and always kept in canonical form:

* prime field   -- an integer in [0, p)
* extension     -- a tuple of n integers in [0, p), ascending powers of the
                   generator t
* rationals     -- a reduced Fraction (positive denominator)

Elements of different contexts never mix; arithmetic across contexts
raises MixedContexts.  The only sanctioned conversion is ``lift_to`` from
F_p into one of its extensions.

An extension F_{p^n} is F_p[t] modulo a fixed monic irreducible
polynomial: the first irreducible hit when the non-leading coefficients
(c_{n-1}, ..., c_1, c_0) run in ascending lexicographic order, constant
term fastest.  ``make_field`` is cached, so identical specs share one
context object and therefore one modulus; this is what makes every
serialized element reproducible across runs.

The text form of an element is exact and self-describing: "3" for a
prime-field or small rational value, "-2/3" for a fraction, and the dense
descending form "4*t+1" (always n terms) for an extension element, so the
extension degree can be read off the string itself.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import (
    CharZero,
    DivisionByZero,
    InvariantViolated,
    MixedContexts,
    NoModulusFound,
    NotPrime,
    UsageError,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# Plain-integer polynomial arithmetic mod p (ascending coefficient lists).
# Used for the modulus search and inside extension-field arithmetic, where
# FieldElem objects would be circular and slow.

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _ptrim(out)


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] * inv_lead % p
        q[k] = c
        for i, bi in enumerate(b):
            a[i + k] = (a[i + k] - c * bi) % p
        _ptrim(a)
        if not a:
            break
    return _ptrim(q), a


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _pinvmod(a: list[int], mod: list[int], p: int) -> list[int]:
    # extended Euclid in F_p[t]; mod is irreducible so gcd(a, mod) = 1
    if not a:
        raise DivisionByZero("inverse of zero")
    r0, r1 = list(mod), list(a)
    s0, s1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if len(r0) != 1:
        raise InvariantViolated("element shares a factor with the irreducible modulus")
    inv = pow(r0[0], -1, p)
    return _ptrim([c * inv % p for c in s0])


def _is_irreducible(f: list[int], p: int) -> bool:
    """Deterministic irreducibility test for monic f over F_p (Rabin)."""
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    for r in {q for q in range(2, n + 1) if n % q == 0 and is_prime(q)}:
        xq = _ppowmod(x, p ** (n // r), f, p)
        if len(_pgcd(_psub(xq, x, p), f, p)) != 1:
            return False
    return _ppowmod(x, p ** n, f, p) == x


def _smallest_modulus(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n, scanning the non-leading
    coefficients (c_{n-1}, ..., c_0) in ascending order, constant fastest."""
    total = p ** n
    for idx in range(total):
        coeffs = [0] * n
        rem = idx
        for pos in range(n):  # pos 0 = constant term, varies fastest
            coeffs[pos] = rem % p
            rem //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise NoModulusFound(f"no irreducible of degree {n} over F_{p}")


# ---------------------------------------------------------------------------
# Field contexts

class FieldCtx:
    """Shared, immutable description of a field; owns the raw arithmetic."""

    kind = ""
    characteristic = 0
    order = None  # None for infinite fields

    # raw-level operations, implemented per subclass
    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a):
        raise NotImplementedError

    def _pth_root(self, a):
        raise NotImplementedError

    def from_int(self, k: int) -> "FieldElem":
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str) -> "FieldElem":
        raise NotImplementedError

    def sort_key(self, a):
        raise NotImplementedError

    def elem(self, value) -> "FieldElem":
        if isinstance(value, FieldElem):
            if value.ctx is not self:
                raise MixedContexts(f"element of {value.ctx} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise UsageError(f"cannot build an element of {self} from {value!r}")

    @property
    def zero(self) -> "FieldElem":
        return self.from_int(0)

    @property
    def one(self) -> "FieldElem":
        return self.from_int(1)

    def elements(self):
        """All field elements in canonical order (finite fields only)."""
        raise CharZero("cannot enumerate an infinite field")


class PrimeField(FieldCtx):
    kind = "prime"

    def __init__(self, p: int):
        self.p = p
        self.characteristic = p
        self.order = p

    def __repr__(self):
        return f"F_{self.p}"

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def _pth_root(self, a):
        return a  # Frobenius is the identity on F_p

    def from_int(self, k):
        return FieldElem(self, k % self.p)

    def format(self, a):
        return str(a)

    def parse(self, s):
        if not s.isdigit():
            raise UsageError(f"bad element literal {s!r} for {self}")
        v = int(s)
        if v >= self.p:
            raise UsageError(f"literal {s!r} out of range for {self}")
        return FieldElem(self, v)

    def sort_key(self, a):
        return a

    def elements(self):
        for v in range(self.p):
            yield FieldElem(self, v)


class ExtField(FieldCtx):
    kind = "extension"

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus  # ascending, length n+1, monic
        self.characteristic = p
        self.order = p ** n

    def __repr__(self):
        return f"F_{self.p}^{self.n}"

    def _canon(self, c: list[int]) -> tuple[int, ...]:
        c = _pmod(c, list(self.modulus), self.p)
        return tuple(c) + (0,) * (self.n - len(c))

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _mul(self, a, b):
        return self._canon(_pmul(list(a), list(b), self.p))

    def _neg(self, a):
        return tuple(-x % self.p for x in a)

    def _inv(self, a):
        if not any(a):
            raise DivisionByZero(f"inverse of zero in {self}")
        inv = _pinvmod(_ptrim(list(a)), list(self.modulus), self.p)
        return tuple(inv) + (0,) * (self.n - len(inv))

    def _is_zero(self, a):
        return not any(a)

    def _pth_root(self, a):
        # a = b^p with b = a^(p^(n-1))
        raw = _ppowmod(_ptrim(list(a)), self.p ** (self.n - 1), list(self.modulus), self.p)
        return tuple(raw) + (0,) * (self.n - len(raw))

    def from_int(self, k):
        return FieldElem(self, (k % self.p,) + (0,) * (self.n - 1))

    @property
    def gen(self) -> "FieldElem":
        """The generator t."""
        return FieldElem(self, (0, 1) + (0,) * (self.n - 2))

    def format(self, a):
        # dense descending: every one of the n terms appears
        parts = []
        for k in range(self.n - 1, -1, -1):
            c = a[k]
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return "+".join(parts)

    def parse(self, s):
        terms = s.split("+")
        if len(terms) != self.n:
            raise UsageError(f"literal {s!r} does not have {self.n} dense terms")
        coeffs = [0] * self.n
        for expect_k, term in zip(range(self.n - 1, -1, -1), terms):
            if expect_k == 0:
                cs, rest = term, None
            elif "*" not in term:
                raise UsageError(f"bad term {term!r} in {s!r}")
            else:
                cs, rest = term.split("*", 1)
            if rest is not None:
                want = "t" if expect_k == 1 else f"t^{expect_k}"
                if rest != want:
                    raise UsageError(f"bad term {term!r} in {s!r} (expected power {want})")
            if not cs.isdigit() or int(cs) >= self.p:
                raise UsageError(f"bad coefficient {cs!r} in {s!r}")
            coeffs[expect_k] = int(cs)
        return FieldElem(self, tuple(coeffs))

    def sort_key(self, a):
        return tuple(reversed(a))  # counting order: constant term least significant

    def elements(self):
        for i in range(self.order):
            raw = []
            rem = i
            for _ in range(self.n):
                raw.append(rem % self.p)
                rem //= self.p
            yield FieldElem(self, tuple(raw))


class RationalField(FieldCtx):
    kind = "rationals"
    characteristic = 0

    def __repr__(self):
        return "Q"

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in Q")
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _pth_root(self, a):
        raise CharZero("no Frobenius in characteristic zero")

    def from_int(self, k):
        return FieldElem(self, Fraction(k))

    def from_fraction(self, fr: Fraction) -> "FieldElem":
        return FieldElem(self, Fraction(fr))

    def format(self, a):
        return str(a)

    def parse(self, s):
        body = s[1:] if s[:1] == "-" else s
        if "/" in body:
            num, den = body.split("/", 1)
            ok = num.isdigit() and den.isdigit() and int(den) > 0
        else:
            ok = body.isdigit()
        if not ok:
            raise UsageError(f"bad rational literal {s!r}")
        return FieldElem(self, Fraction(s))

    def sort_key(self, a):
        return a


@functools.lru_cache(maxsize=None)
def make_field(p: int, ext_degree: int = 1) -> FieldCtx:
    """Build (and cache) a field context.

    ``make_field(0)`` is the rationals, ``make_field(p)`` the prime field
    F_p, and ``make_field(p, n)`` the extension F_{p^n} with its canonical
    modulus.  Repeated calls with the same arguments return the same object.
    """
    if p == 0:
        return RationalField()
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if ext_degree < 1:
        raise UsageError(f"extension degree must be >= 1, got {ext_degree}")
    if ext_degree == 1:
        return PrimeField(p)
    return ExtField(p, ext_degree, _smallest_modulus(p, ext_degree))


# ---------------------------------------------------------------------------
# Elements

class FieldElem:
    """An immutable element of a FieldCtx, always in canonical form."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FieldCtx, raw):
        self.ctx = ctx
        self.raw = raw

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise MixedContexts(f"mixing elements of {self.ctx} and {other.ctx}")
            return other.raw
        if isinstance(other, int):
            return self.ctx.from_int(other).raw
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._add(self.raw, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._sub(self.raw, r))

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._sub(r, self.raw))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.raw, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.raw, self.ctx._inv(r)))

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(r, self.ctx._inv(self.raw)))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx._neg(self.raw))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx._inv(self.raw))

    @property
    def is_zero(self) -> bool:
        return self.ctx._is_zero(self.raw)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx is other.ctx and self.raw == other.raw
        if isinstance(other, int):
            return self == self.ctx.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.raw))

    def __repr__(self):
        return self.ctx.format(self.raw)

    def frobenius(self) -> "FieldElem":
        """a -> a^p."""
        p = self.ctx.characteristic
        if p == 0:
            raise CharZero("no Frobenius in characteristic zero")
        return self ** p

    def pth_root(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx._pth_root(self.raw))

    def lift_to(self, ext: FieldCtx) -> "FieldElem":
        """Embed a prime-field element into an extension of the same field."""
        if ext is self.ctx:
            return self
        if (
            isinstance(self.ctx, PrimeField)
            and isinstance(ext, ExtField)
            and ext.p == self.ctx.p
        ):
            return FieldElem(ext, (self.raw,) + (0,) * (ext.n - 1))
        raise MixedContexts(f"no canonical embedding of {self.ctx} into {ext}")

    def min_degree(self) -> int:
        """Degree over the prime field of the subfield generated by self."""
        ctx = self.ctx
        if ctx.characteristic == 0 or isinstance(ctx, PrimeField):
            return 1
        chain = self
        images = []
        for _ in range(ctx.n):
            chain = chain.frobenius()
            images.append(chain)
        # the first k with self^(p^k) = self is the orbit length, a divisor of n
        for k, image in enumerate(images, start=1):
            if image == self:
                return k
        raise InvariantViolated("element not fixed by full Frobenius orbit")

    def sort_key(self):
        return self.ctx.sort_key(self.raw)
