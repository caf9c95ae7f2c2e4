"""Univariate polynomials and reduced rational functions over an exact field.

A Poly stores the ascending tuple of its coefficients' raw values (last
entry nonzero, empty for the zero polynomial) and runs its arithmetic --
add, mul, divmod, monic, gcd, pow-mod -- on the polynomial kernel of
``field``; ``Poly.coeffs`` gives the coefficients as FieldElem values.  A
RatFunc is always reduced (coprime numerator/denominator) with monic
denominator, so equality of values is equality of representations.  Points
of the projective line are a ProjPoint: a field element or the point at
infinity.

Root finding in characteristic p rests on one distinct-degree split: the
roots of minimal degree k over F_p are those of gcd(y^(p^k) - y, .) once
the roots of smaller degree are peeled off.

* ``roots`` names the roots of each degree k and splits them down to linear
  factors: for a prime-field polynomial those with k up to a bound, inside
  the canonical field F_{p^k} of the tower; for a polynomial over F_{p^n}
  those with k dividing n, inside F_{p^n} itself.
* ``count_roots_by_degree`` counts the roots of each degree k across the
  whole tower, over any finite coefficient field, and never has to name
  them.
"""

from __future__ import annotations

import math
from itertools import chain, islice

from .errors import (
    CharZero,
    ConstantMap,
    DivisionByZero,
    InvariantViolated,
    MixedContexts,
    UsageError,
    ValueMismatch,
    ZeroDenominator,
)
from .field import (
    ExtField,
    FieldCtx,
    FieldElem,
    _embedding,
    _padd,
    _pdivmod,
    _pgcd,
    _pmonic,
    _pmul,
    _ppowmod,
    _psub,
    _trim,
    make_field,
)

# default bound on the extension degree k of the fields F_{p^k} searched
DEFAULT_EXT = 6


class Poly:
    """A polynomial over a field context.

    ``raw`` is the ascending tuple of the context's raw coefficient values,
    last entry nonzero, empty for the zero polynomial; the arithmetic runs
    the kernel of ``field`` on it.  ``coeffs`` is the same tuple as
    FieldElem values.
    """

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FieldCtx, raw: tuple):
        # trusted constructor; use from_elems/from_ints to normalize
        self.ctx = ctx
        self.raw = raw

    @classmethod
    def from_elems(cls, ctx: FieldCtx, seq) -> "Poly":
        return cls(ctx, tuple(_trim(ctx, [ctx.elem(c).raw for c in seq])))

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "Poly":
        return cls.from_elems(ctx, [ctx.from_int(k) for k in ints])

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx) -> "Poly":
        return cls(ctx, (ctx._one,))

    @classmethod
    def constant(cls, c: FieldElem) -> "Poly":
        return cls.from_elems(c.ctx, [c])

    @classmethod
    def x(cls, ctx) -> "Poly":
        return cls(ctx, (ctx._zero, ctx._one))

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        return tuple(FieldElem(self.ctx, c) for c in self.raw)

    @property
    def degree(self) -> int:
        return len(self.raw) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.raw

    @property
    def lc(self) -> FieldElem:
        if self.is_zero:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return FieldElem(self.ctx, self.raw[-1])

    def _coerce(self, other):
        """The raw coefficients of a polynomial or constant over self.ctx."""
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise MixedContexts(f"mixing polynomials over {self.ctx} and {other.ctx}")
            return other.raw
        if isinstance(other, (FieldElem, int)):
            return tuple(_trim(self.ctx, [self.ctx.elem(other).raw]))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ctx, tuple(_padd(self.ctx, self.raw, o)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, tuple(map(self.ctx._neg, self.raw)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ctx, tuple(_psub(self.ctx, self.raw, o)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ctx, tuple(_psub(self.ctx, o, self.raw)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ctx, tuple(_pmul(self.ctx, self.raw, o)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q, r = _pdivmod(self.ctx, self.raw, o)
        return Poly(self.ctx, tuple(q)), Poly(self.ctx, tuple(r))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x) -> FieldElem:
        ctx = self.ctx
        x = ctx.elem(x).raw
        add, mul = ctx._add, ctx._mul
        acc = ctx._zero
        for c in reversed(self.raw):
            acc = add(mul(acc, x), c)
        return FieldElem(ctx, acc)

    def derivative(self) -> "Poly":
        """Formal derivative; in characteristic p the y^p terms vanish."""
        ctx = self.ctx
        out = [ctx._mul(c, ctx.from_int(i).raw) for i, c in enumerate(self.raw) if i]
        return Poly(ctx, tuple(_trim(ctx, out)))

    def monic(self) -> "Poly":
        return Poly(self.ctx, tuple(_pmonic(self.ctx, self.raw)))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx is other.ctx
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((id(self.ctx), self.raw))

    def __repr__(self):
        return poly_str(self)


def poly_str(f: Poly, var: str = "y") -> str:
    """Sparse descending text form, e.g. "3*y^3 - 2*y^2 + 1"."""
    if f.is_zero:
        return "0"
    parts = []
    coeffs = f.coeffs
    for k in range(f.degree, -1, -1):
        c = coeffs[k]
        if c.is_zero:
            continue
        cs = repr(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if k == 0:
            term = mag
        else:
            yk = var if k == 1 else f"{var}^{k}"
            term = yk if mag == "1" else f"{mag}*{yk}"
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)


def synthetic_div(f: Poly, r: FieldElem) -> tuple[Poly, FieldElem]:
    """Divide f by (y - r): returns (quotient, remainder value)."""
    ctx = f.ctx
    r = ctx.elem(r).raw
    add, mul = ctx._add, ctx._mul
    acc = ctx._zero
    out = []
    for c in reversed(f.raw):
        acc = add(mul(acc, r), c)
        out.append(acc)
    rem = out.pop() if out else acc
    out.reverse()  # its last entry is lc(f), so it needs no trimming
    return Poly(ctx, tuple(out)), FieldElem(ctx, rem)


def linear_multiplicity(f: Poly, r: FieldElem) -> int:
    """Multiplicity of r as a root of f (0 if not a root)."""
    m = 0
    while not f.is_zero:
        q, rem = synthetic_div(f, r)
        if not rem.is_zero:
            break
        m += 1
        f = q
    return m


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (zero for gcd(0, 0))."""
    return Poly(a.ctx, tuple(_pgcd(a.ctx, a.raw, a._coerce(b))))


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    return Poly(base.ctx, tuple(_ppowmod(base.ctx, base.raw, e, base._coerce(mod))))


def pth_root(f: Poly) -> Poly:
    """Inverse of y -> y^p on polynomials whose derivative vanishes."""
    ctx = f.ctx
    p = ctx.characteristic
    if p == 0:
        raise CharZero("p-th root needs positive characteristic")
    out = []
    for i, c in enumerate(f.raw):
        if i % p == 0:
            out.append(ctx._pth_root(c))
        elif c != ctx._zero:
            raise ValueError("polynomial is not a p-th power")
    return Poly(ctx, tuple(out))


def radical(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise DivisionByZero("radical of the zero polynomial")
    if f.degree == 0:
        return Poly.one(f.ctx)
    d = f.derivative()
    if f.ctx.characteristic == 0:
        return (f // poly_gcd(f, d)).monic()
    if d.is_zero:
        return radical(pth_root(f))
    g = poly_gcd(f, d)
    v = (f // g).monic()  # factors whose exponent is prime to p
    r = g
    while True:
        t = poly_gcd(r, v)
        if t.degree == 0:
            break
        r = r // t
    if r.degree == 0:
        return v
    # what is left of g is a p-th power holding the p | exponent factors
    return (v * radical(pth_root(r))).monic()


def lift_poly(f: Poly, ext: FieldCtx) -> Poly:
    if f.ctx is ext:
        return f
    return Poly(ext, tuple(map(_embedding(f.ctx, ext), f.raw)))


# ---------------------------------------------------------------------------
# Projective line

class ProjPoint:
    """A point of P^1: a field element or infinity."""

    __slots__ = ("value",)

    def __init__(self, value: FieldElem | None):
        self.value = value

    @classmethod
    def of(cls, x) -> "ProjPoint":
        if isinstance(x, ProjPoint):
            return x
        if isinstance(x, FieldElem):
            return cls(x)
        raise TypeError(f"cannot interpret {x!r} as a point of P^1")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            if isinstance(other, FieldElem):
                other = ProjPoint(other)
            else:
                return NotImplemented
        if self.is_infinite or other.is_infinite:
            return self.is_infinite and other.is_infinite
        return self.value == other.value

    def __hash__(self):
        return hash(None) if self.is_infinite else hash(self.value)

    def __repr__(self):
        return "inf" if self.is_infinite else repr(self.value)


INF = ProjPoint(None)


# ---------------------------------------------------------------------------
# Rational functions

class RatFunc:
    """Reduced rational function with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # trusted constructor: inputs already reduced with monic den
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num: Poly, den: Poly) -> "RatFunc":
        if num.ctx is not den.ctx:
            raise MixedContexts("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero:
            return cls(num, Poly.one(den.ctx))
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        inv = den.lc.inverse()
        if inv != den.ctx.one:
            num, den = num * inv, den * inv
        return cls(num, den)

    @classmethod
    def from_poly(cls, f: Poly) -> "RatFunc":
        return cls(f, Poly.one(f.ctx))

    @property
    def ctx(self) -> FieldCtx:
        return self.num.ctx if not self.num.is_zero else self.den.ctx

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (FieldElem, int)):
            return RatFunc.from_poly(Poly.from_elems(self.den.ctx, [self.den.ctx.elem(other)]))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc.make(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc.make(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise DivisionByZero("division of rational functions by zero")
        return RatFunc.make(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def fiber_poly(self, c: FieldElem) -> Poly:
        """num - c*den, whose roots are the finite points over c."""
        return self.num - self.den * c

    def derivative(self) -> "RatFunc":
        return RatFunc.make(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.degree == 0:
            return poly_str(self.num)
        return f"({poly_str(self.num)}) / ({poly_str(self.den)})"


def lift_ratfunc(f: RatFunc, ext: FieldCtx) -> RatFunc:
    if f.ctx is ext:
        return f
    return RatFunc(lift_poly(f.num, ext), lift_poly(f.den, ext))


def evaluate(f: RatFunc, x) -> ProjPoint:
    """Value of f at a point of P^1, infinity included on both sides."""
    x = ProjPoint.of(x)
    if x.is_infinite:
        dn, dd = f.num.degree, f.den.degree
        if dn > dd:
            return INF
        ctx = f.ctx
        if dn < dd:
            return ProjPoint(ctx.zero)
        return ProjPoint(f.num.lc / f.den.lc)
    nv = f.num(x.value)
    dv = f.den(x.value)
    if dv.is_zero:
        # reduced form: num and den cannot vanish together
        return INF
    return ProjPoint(nv / dv)


def map_degree(f: RatFunc) -> int:
    """Degree of f as a self-map of P^1."""
    if f.is_constant:
        raise ConstantMap("degree of a constant map")
    return max(f.num.degree, f.den.degree)


def ord_at(f: RatFunc, x, target) -> int:
    """Multiplicity of x as a solution of f = target.

    This is the local ramification-index datum: the valuation of
    f - target at x (of the denominator when target is infinite), with the
    point at infinity read off the degrees: f - t = fiber_poly(t) / den
    vanishes there to order deg den - deg fiber_poly(t), and f has a pole
    there of order deg num - deg den.
    """
    x = ProjPoint.of(x)
    target = ProjPoint.of(target)
    if evaluate(f, x) != target:
        raise ValueMismatch(f"f({x}) is not {target}")
    if x.is_infinite:
        if target.is_infinite:
            return f.num.degree - f.den.degree
        P = f.fiber_poly(target.value)
        return 0 if P.is_zero else f.den.degree - P.degree  # 0 for a constant f
    if target.is_infinite:
        return linear_multiplicity(f.den, x.value)
    return linear_multiplicity(f.fiber_poly(target.value), x.value)


# ---------------------------------------------------------------------------
# Root finding

def _linear_roots_split(g: Poly) -> list[FieldElem]:
    """All roots of a squarefree monic g that splits completely over its field."""
    ctx = g.ctx
    if g.degree <= 0:
        return []
    q = ctx.order
    if q % 2 == 0:
        # characteristic 2 has no quadratic character to split with: scan
        found = [e for e in ctx.elements() if g(e).is_zero]
        if len(found) != g.degree:
            raise InvariantViolated("polynomial did not split as expected")
        return found
    # deterministic equal-degree splitting: successive shifts a separate any
    # pair of roots because the quadratic character of (r + a) cannot agree
    # for every a in the field.  A shift a in F_p never separates r from its
    # conjugate r^p, since chi(r^p + a) = chi((r + a)^p) = chi(r + a), so the
    # shifts outside F_p (every element past the first p in canonical order)
    # come first and the F_p ones last.  Both parts of a split resume after
    # the shift that split them: no earlier shift separates two roots of h,
    # and that one puts all roots of each part on one side, so every pair is
    # still offered every shift that could separate it.
    half = (q - 1) // 2
    p = ctx.characteristic
    x = Poly.x(ctx)

    def split(h: Poly, start: int) -> list[FieldElem]:
        if h.degree == 1:
            return [-h.coeffs[0]]
        shifts = chain(islice(ctx.elements(), p, None), islice(ctx.elements(), p))
        for i, a in enumerate(islice(shifts, start, None), start):
            s = pow_mod(x + a, half, h)
            t = poly_gcd(s - Poly.one(ctx), h)
            if 0 < t.degree < h.degree:
                return split(t, i + 1) + split(h // t, i + 1)
        raise InvariantViolated("equal-degree splitting failed on split input")

    return split(g.monic(), 0)


def roots(f: Poly, max_ext_degree: int = DEFAULT_EXT) -> list[tuple[FieldElem, int, int]]:
    """Roots of f, each once, as (root, multiplicity in f, k), ordered by
    (k, canonical element order), where k is the minimal field degree of
    the root over F_p.

    Over F_p the roots with k <= max_ext_degree are named inside the
    canonical fields F_{p^k} of the tower.  Over F_{p^n} the roots are
    those lying in F_{p^n}, the ones whose k divides n, and the bound is
    not used.
    """
    ctx = f.ctx
    if ctx.characteristic == 0:
        raise CharZero("root finding needs characteristic p")
    if f.is_zero:
        raise DivisionByZero("root finding on the zero polynomial")
    n = ctx.n if isinstance(ctx, ExtField) else None
    out: list[tuple[FieldElem, int, int]] = []
    for k, g in _distinct_degree(f, n or max_ext_degree):
        if n is None:
            ext = make_field(ctx.characteristic, k)
        elif n % k == 0:
            ext = ctx
        else:
            continue  # roots of degree k lie outside F_{p^n}
        fk = lift_poly(f, ext)
        batch = [(r, linear_multiplicity(fk, r), k) for r in _linear_roots_split(lift_poly(g, ext))]
        batch.sort(key=lambda t: t[0].sort_key())
        out.extend(batch)
    return out


def _distinct_degree(f: Poly, max_k: int):
    """Distinct-degree split of the roots of f over a finite field.

    Yields (k, g_k) for each k <= max_k that has roots, where g_k is the
    monic product of y - r over the distinct roots r of f of minimal degree
    k over F_p.  Each g_k is peeled off the radical before step k + 1, so
    gcd(y^(p^(k+1)) - y, rest) meets no root of a smaller degree (von zur
    Gathen and Gerhard, Modern Computer Algebra, 14.2).
    """
    if max_k < 1:
        raise UsageError(f"extension degree bound must be >= 1, got {max_k}")
    p = f.ctx.characteristic
    rest = radical(f)
    x = Poly.x(f.ctx)
    xq = x
    for k in range(1, max_k + 1):
        if rest.degree <= 0:
            return
        xq = pow_mod(xq, p, rest)
        g = poly_gcd(xq - x, rest)
        if g.degree > 0:
            yield k, g
            rest = rest // g
            xq = xq % rest


def count_roots_by_degree(f: Poly, max_k: int) -> dict[int, int]:
    """Number of distinct roots of f of each minimal degree over F_p.

    Works over any finite coefficient field: the count of degree k is the
    degree of the distinct-degree factor g_k.  The roots themselves are
    never constructed.
    """
    ctx = f.ctx
    if ctx.characteristic == 0:
        raise CharZero("counting roots by field degree needs characteristic p")
    if f.is_zero:
        raise DivisionByZero("root counting on the zero polynomial")
    minimal = dict.fromkeys(range(1, max_k + 1), 0)
    for k, g in _distinct_degree(f, max_k):
        minimal[k] = g.degree
    return minimal


def clear_denominators(fracs) -> list[int]:
    """The primitive integer vector proportional to a nonzero rational one."""
    scale = math.lcm(*(fr.denominator for fr in fracs))
    ints = [int(fr * scale) for fr in fracs]
    g = math.gcd(*ints)
    return [v // g for v in ints]
