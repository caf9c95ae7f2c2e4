"""Exact fields of computation: F_p, F_{p^n} and the rationals Q, and the
one polynomial kernel of the package.

A field context owns the raw arithmetic (``_add``, ``_sub``, ``_mul``,
``_neg``, ``_inv``) on canonical raw values and names its raw ``_zero``
and ``_one``:

* prime field   -- an integer in [0, p)
* extension     -- a tuple of n integers in [0, p), ascending powers of the
                   generator t
* rationals     -- a reduced Fraction (positive denominator)

A FieldElem wraps one raw value with its context and combines only with
elements of that context: arithmetic across contexts raises MixedContexts,
arithmetic with an int raises TypeError, and an int never equals an
element.  An int enters only through ``ctx.from_int`` or ``ctx.parse``; the
only conversion between fields is ``lift_to``, from F_p into an extension.

The private ``_p*`` functions are the polynomial kernel: add and sub (one
``_pzip``), mul, divmod, monic, gcd, pow-mod and inverse-mod on ascending
sequences of raw values, generic over the context.  ``poly.Poly`` runs it
over its coefficient field, and an extension runs it over F_p for its
inverse and the search for its modulus.

An extension F_{p^n} is F_p[t] modulo a fixed monic irreducible
polynomial: the first irreducible hit when the non-leading coefficients
(c_{n-1}, ..., c_1, c_0) run in ascending lexicographic order, constant
term fastest.  ``make_field`` searches that modulus and is cached, so
identical specs share one context object and therefore one modulus; this
is what makes every serialized element reproducible across runs.

The text form of an element is exact and self-describing: "3" for a
prime-field or small rational value, "-2/3" for a fraction, and the dense
descending form "4*t+1" (always n terms) for an extension element, so the
extension degree can be read off the string itself.  ``format`` is the one
grammar: ``parse`` accepts a string exactly when ``format`` prints it back
unchanged, so "04", "4/6", "-0", "1*t+02", a non-ASCII digit or stray
whitespace is a UsageError.  Each context reads only a candidate raw value
from the ASCII digit tokens of the text (``_raw_of``).  The form of F_{p^n}
needs only p and n, so ``ExtField(p, n)`` reads text without the modulus.
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


# Miller-Rabin with the prime bases 2..37 decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017), which exceeds 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a UsageError at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise UsageError(f"{n} is too large: primality is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):  # a passes when x reaches -1 within s squarings
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _digits(i: int, p: int, n: int) -> tuple[int, ...]:
    """The n base-p digits of i, least significant first."""
    return tuple(i // p ** k % p for k in range(n))


def _power(base, k: int, one):
    """base ** k by square-and-multiply, for k >= 0."""
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# The polynomial kernel.  A raw polynomial over a context is an ascending
# sequence of the context's raw values with no trailing zero (empty for the
# zero polynomial); results are lists.

def _trim(ctx: "FieldCtx", c: list) -> list:
    zero = ctx._zero
    while c and c[-1] == zero:
        c.pop()
    return c


def _pzip(ctx, a, b, op) -> list:
    """a op b coefficientwise, for op the context's ``_add`` or ``_sub``."""
    out = list(a) + [ctx._zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = op(out[i], c)
    return _trim(ctx, out)


def _pmul(ctx, a, b) -> list:
    if not a or not b:
        return []
    zero, add, mul = ctx._zero, ctx._add, ctx._mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            for j, bj in enumerate(b, i):
                out[j] = add(out[j], mul(ai, bj))
    return _trim(ctx, out)


def _pdivmod(ctx, a, b) -> tuple[list, list]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    rem = list(a)
    nb = len(b) - 1
    if len(rem) <= nb:
        return [], rem
    mul, sub = ctx._mul, ctx._sub
    inv = None if b[-1] == ctx._one else ctx._inv(b[-1])
    quot = [ctx._zero] * (len(rem) - nb)
    while len(rem) > nb:
        k = len(rem) - 1 - nb
        c = rem.pop() if inv is None else mul(rem.pop(), inv)
        quot[k] = c
        for i in range(nb):
            rem[i + k] = sub(rem[i + k], mul(c, b[i]))
        _trim(ctx, rem)
    return quot, rem


def _pmonic(ctx, a):
    if not a or a[-1] == ctx._one:
        return a
    inv, mul = ctx._inv(a[-1]), ctx._mul
    return [mul(c, inv) for c in a]


def _pgcd(ctx, a, b):
    while b:
        a, b = b, _pdivmod(ctx, a, b)[1]
    return _pmonic(ctx, a)


def _ppowmod(ctx, base, e: int, mod) -> list:
    result = [ctx._one]
    base = _pdivmod(ctx, base, mod)[1]
    while e:
        if e & 1:
            result = _pdivmod(ctx, _pmul(ctx, result, base), mod)[1]
        e >>= 1
        if e:
            base = _pdivmod(ctx, _pmul(ctx, base, base), mod)[1]
    return result


def _pinvmod(ctx, a, mod) -> list:
    # extended Euclid; mod is irreducible, so gcd(a, mod) = 1 for a != 0
    if not a:
        raise DivisionByZero("inverse of zero")
    r0, r1 = mod, a
    s0, s1 = [], [ctx._one]
    while r1:
        q, r = _pdivmod(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _pzip(ctx, s0, _pmul(ctx, q, s1), ctx._sub)
    if len(r0) != 1:
        raise InvariantViolated("element shares a factor with the irreducible modulus")
    inv, mul = ctx._inv(r0[0]), ctx._mul
    return [mul(c, inv) for c in s0]


def _is_irreducible(F: "PrimeField", f: list[int]) -> bool:
    """Deterministic irreducibility test for monic f over F_p (Rabin)."""
    n, p = len(f) - 1, F.p
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    for r in {q for q in range(2, n + 1) if n % q == 0 and is_prime(q)}:
        xq = _ppowmod(F, x, p ** (n // r), f)
        if len(_pgcd(F, _pzip(F, xq, x, F._sub), f)) != 1:
            return False
    return _ppowmod(F, x, p ** n, f) == x


def _smallest_modulus(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n, scanning the non-leading
    coefficients (c_{n-1}, ..., c_0) in ascending order, constant fastest."""
    F = make_field(p)
    for idx in range(p ** n):
        f = list(_digits(idx, p, n)) + [1]  # the constant term varies fastest
        if _is_irreducible(F, f):
            return tuple(f)
    raise NoModulusFound(f"no irreducible of degree {n} over F_{p}")


# ---------------------------------------------------------------------------
# Field contexts

class FieldCtx:
    """Shared, immutable description of a field; owns the raw arithmetic.

    Each subclass sets the canonical raw ``_zero`` and ``_one`` and defines
    ``_add``, ``_sub``, ``_mul``, ``_neg``, ``_inv``, ``from_int``,
    ``format``, ``_raw_of`` and ``sort_key``.  ``_raw_of(s)``
    returns the in-range raw value read from the ASCII digit tokens of s, or
    None; ``parse`` accepts s only when ``format`` of that value is s.  The
    hot loops ``_row_update`` and ``_horner`` run on plain ints in PrimeField.
    """

    kind = ""
    characteristic = 0
    order = None  # None for infinite fields

    def elem(self, value) -> "FieldElem":
        if isinstance(value, FieldElem):
            if value.ctx is not self:
                raise MixedContexts(f"element of {value.ctx} used in {self}")
            return value
        raise UsageError(f"cannot build an element of {self} from {value!r}")

    def parse(self, s: str) -> "FieldElem":
        """The element whose printed form is s."""
        try:
            raw = self._raw_of(s)
        except ValueError:  # a digit run too long for int()
            raw = None
        if raw is None or self.format(raw) != s:
            raise UsageError(f"bad element literal {s!r} for {self}: expected its "
                             f"printed form, such as {self.format(self._one)!r}")
        return FieldElem(self, raw)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, self._zero)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, self._one)

    def elements(self):
        """All field elements in canonical order (finite fields only)."""
        raise CharZero("cannot enumerate an infinite field")

    def _row_update(self, row: list, factor, support) -> None:
        """row[j] -= factor * v over support, the kernel solve's inner loop."""
        mul, sub = self._mul, self._sub
        for j, v in support:
            row[j] = sub(row[j], mul(factor, v))

    def _horner(self, coeffs, r) -> list:
        """Horner values of the ascending raw coeffs at r (the last is f(r))."""
        add, mul, acc, out = self._add, self._mul, self._zero, []
        for c in reversed(coeffs):
            acc = add(mul(acc, r), c)
            out.append(acc)
        return out


class PrimeField(FieldCtx):
    kind = "prime"
    _zero, _one = 0, 1

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

    def from_int(self, k):
        return FieldElem(self, k % self.p)

    def format(self, a):
        return str(a)

    def _raw_of(self, s):
        return int(s) if _is_digits(s) and int(s) < self.p else None

    def sort_key(self, a):
        return a

    def elements(self):
        for v in range(self.p):
            yield FieldElem(self, v)

    def _row_update(self, row, factor, support):
        p = self.p
        for j, v in support:
            row[j] = (row[j] - factor * v) % p

    def _horner(self, coeffs, r):
        p, acc, out = self.p, 0, []
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
            out.append(acc)
        return out


class ExtField(FieldCtx):
    """F_{p^n} as F_p[t] modulo a monic irreducible of degree n.

    Multiplication is a schoolbook product of the raw tuples in plain
    integers, whose terms t^n .. t^(2n-2) are folded back through ``_fold``,
    the table of their residues modulo the modulus (n - 1 rows of n ints,
    computed once with the kernel), and reduced mod p once at the end.
    Inverse runs the kernel over ``prime``.

    ``ExtField(p, n)`` holds only what the text form needs; ``make_field``
    then sets ``modulus`` and ``_fold``, which the arithmetic reads.
    """

    kind = "extension"

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.characteristic = p
        self.order = p ** n
        self.prime = make_field(p)  # the kernel runs over F_p
        self._zero = (0,) * n
        self._one = (1,) + self._zero[1:]

    def __repr__(self):
        return f"F_{self.p}^{self.n}"

    def _pad(self, c: list[int]) -> tuple[int, ...]:
        return tuple(c) + self._zero[len(c):]

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _mul(self, a, b):
        n = self.n
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        low = prod[:n]
        for c, row in zip(prod[n:], self._fold):
            if c:
                for k, r in enumerate(row):
                    low[k] += c * r
        p = self.p
        return tuple(v % p for v in low)

    def _neg(self, a):
        return tuple(-x % self.p for x in a)

    def _inv(self, a):
        if a == self._zero:
            raise DivisionByZero(f"inverse of zero in {self}")
        return self._pad(_pinvmod(self.prime, _trim(self.prime, list(a)), self.modulus))

    def from_int(self, k):
        return FieldElem(self, (k % self.p,) + self._zero[1:])

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

    def _raw_of(self, s):
        # the coefficient of each "+"-separated term, highest power first
        cs = [term.split("*", 1)[0] for term in s.split("+")]
        if len(cs) == self.n and all(_is_digits(c) and int(c) < self.p for c in cs):
            return tuple(int(c) for c in reversed(cs))
        return None

    def sort_key(self, a):
        return tuple(reversed(a))  # counting order: constant term least significant

    def elements(self):
        for i in range(self.order):
            yield FieldElem(self, _digits(i, self.p, self.n))


class RationalField(FieldCtx):
    kind = "rationals"
    characteristic = 0
    _zero, _one = Fraction(0), Fraction(1)

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

    def from_int(self, k):
        return FieldElem(self, Fraction(k))

    def from_fraction(self, fr: Fraction) -> "FieldElem":
        return FieldElem(self, Fraction(fr))

    def format(self, a):
        return str(a)

    def _raw_of(self, s):
        num, slash, den = s.partition("/")
        if _is_digits(num.removeprefix("-")) and (_is_digits(den) and int(den) > 0 or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        return None

    def sort_key(self, a):
        return a


def make_field(p: int, ext_degree: int = 1) -> FieldCtx:
    """Build (and cache) a field context.

    ``make_field(0)`` is the rationals, ``make_field(p)`` (or
    ``make_field(p, 1)``) the prime field F_p, and ``make_field(p, n)`` the
    extension F_{p^n} with its canonical modulus.  Every call naming the
    same field returns the same object.
    """
    return _field(p, ext_degree)


@functools.lru_cache(maxsize=None)
def _field(p: int, ext_degree: int) -> FieldCtx:
    if p == 0:
        return RationalField()
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if ext_degree < 1:
        raise UsageError(f"extension degree must be >= 1, got {ext_degree}")
    if ext_degree == 1:
        return PrimeField(p)
    ctx = ExtField(p, ext_degree)
    ctx.modulus = _smallest_modulus(p, ext_degree)  # ascending, length n+1, monic
    # row i is t^(n+i) mod modulus, for i = 0 .. n-2
    ctx._fold = tuple(ctx._pad(_pdivmod(ctx.prime, [0] * (ext_degree + i) + [1], ctx.modulus)[1])
                      for i in range(ext_degree - 1))
    return ctx


def _embedding(src: FieldCtx, ext: FieldCtx):
    """The raw map of the canonical embedding of src into ext."""
    if ext is src:
        return lambda a: a
    if isinstance(src, PrimeField) and isinstance(ext, ExtField) and ext.p == src.p:
        pad = ext._zero[1:]
        return lambda a: (a,) + pad
    raise MixedContexts(f"no canonical embedding of {src} into {ext}")


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
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._add(self.raw, r))

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._sub(self.raw, r))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.raw, r))

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.raw, self.ctx._inv(r)))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx._neg(self.raw))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, self.ctx.one)

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx._inv(self.raw))

    @property
    def is_zero(self) -> bool:
        return self.raw == self.ctx._zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx is other.ctx and self.raw == other.raw
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

    def lift_to(self, ext: FieldCtx) -> "FieldElem":
        """Embed a prime-field element into an extension of the same field."""
        return FieldElem(ext, _embedding(self.ctx, ext)(self.raw))

    def min_degree(self) -> int:
        """Degree over the prime field of the subfield generated by self."""
        ctx = self.ctx
        if ctx.characteristic == 0 or isinstance(ctx, PrimeField):
            return 1
        # the first k with self^(p^k) = self is the orbit length, a divisor of n
        image = self
        for k in range(1, ctx.n + 1):
            image = image.frobenius()
            if image == self:
                return k
        raise InvariantViolated("element not fixed by full Frobenius orbit")

    def sort_key(self):
        return self.ctx.sort_key(self.raw)
