"""Univariate polynomials and reduced rational functions over an exact field.

A Poly stores the ascending tuple of its coefficients' raw values (last
entry nonzero, empty for the zero polynomial) and runs its arithmetic --
add, mul, divmod, monic, gcd, pow-mod -- on the polynomial kernel of
``field``; ``Poly.coeffs`` gives the coefficients as FieldElem values.
A point of P^1 is a FieldElem or ``INF`` (``None``), which ``point_str``
prints as "inf".  A map of P^1 is a RatFunc: the pair (num, den), coprime
with monic den, so equal maps are equal pairs.  It has no arithmetic: a
construction computes its pair from num and den, then reduces it with
``RatFunc.make`` or, when it is reduced by construction, uses the trusted
constructor.

Root finding in characteristic p rests on one distinct-degree split: the
roots of minimal degree k over F_p are those of gcd(y^(p^k) - y, .) once
the roots of smaller degree are peeled off.

* ``roots`` takes a polynomial over F_p, p odd, names its roots of each
  degree k up to a bound and splits them down to linear factors inside the
  canonical field F_{p^k} of the tower.
* ``count_roots_by_degree`` counts the roots of each degree k up to its
  bound, over any finite coefficient field, and never has to name them;
  roots of larger degree are not counted.
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
    FieldCtx,
    FieldElem,
    PrimeField,
    _embedding,
    _pdivmod,
    _pgcd,
    _pmonic,
    _pmul,
    _power,
    _ppowmod,
    _pzip,
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
        if isinstance(other, FieldElem):
            return tuple(_trim(self.ctx, [self.ctx.elem(other).raw]))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ctx, tuple(_pzip(self.ctx, self.raw, o, self.ctx._add)))

    def __neg__(self):
        return Poly(self.ctx, tuple(map(self.ctx._neg, self.raw)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ctx, tuple(_pzip(self.ctx, self.raw, o, self.ctx._sub)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(self.ctx, tuple(_pmul(self.ctx, self.raw, o)))

    def __pow__(self, k: int):
        if k < 0:
            raise InvariantViolated(f"negative polynomial power {k}")
        return _power(self, k, Poly.one(self.ctx))

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
        values = ctx._horner(self.raw, ctx.elem(x).raw)
        return FieldElem(ctx, values[-1] if values else ctx._zero)

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


def poly_str(f: Poly) -> str:
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
            yk = "y" if k == 1 else f"y^{k}"
            term = yk if mag == "1" else f"{mag}*{yk}"
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("- " if neg else "+ ") + term)
    return " ".join(parts)


def synthetic_div(f: Poly, r: FieldElem) -> tuple[Poly, FieldElem]:
    """Divide f by (y - r): returns (quotient, remainder value)."""
    ctx = f.ctx
    out = ctx._horner(f.raw, ctx.elem(r).raw)
    rem = out.pop() if out else ctx._zero
    out.reverse()  # its last entry is lc(f), so it needs no trimming
    return Poly(ctx, tuple(out)), FieldElem(ctx, rem)


def _strip_root(f: Poly, r: FieldElem) -> tuple[int, Poly]:
    """(m, f / (y - r)^m) for the multiplicity m of r as a root of f."""
    m = 0
    while not f.is_zero:
        q, rem = synthetic_div(f, r)
        if not rem.is_zero:
            break
        m += 1
        f = q
    return m, f


def linear_multiplicity(f: Poly, r: FieldElem) -> int:
    """Multiplicity of r as a root of f (0 if not a root, or if f = 0); at
    r = 0 it is the number of low-order zero coefficients of f."""
    if f.ctx.elem(r).is_zero and f.raw:
        zero = f.ctx._zero
        return next(k for k, c in enumerate(f.raw) if c != zero)
    return _strip_root(f, r)[0]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (zero for gcd(0, 0))."""
    return Poly(a.ctx, tuple(_pgcd(a.ctx, a.raw, a._coerce(b))))


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    return Poly(base.ctx, tuple(_ppowmod(base.ctx, base.raw, e, base._coerce(mod))))


def radical(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f.

    f // gcd(f, f') keeps each factor whose multiplicity is prime to p, all
    of them over Q.  The package takes radicals only of polynomials of
    degree below p, which have no other kind; the gcd loop checks that: a
    factor of gcd(f, f') that is left once every factor of f // gcd(f, f')
    is divided out has a multiplicity divisible by p, and raises
    InvariantViolated.
    """
    if f.is_zero:
        raise DivisionByZero("radical of the zero polynomial")
    g = poly_gcd(f, f.derivative())
    v = (f // g).monic()
    r = g
    while True:
        t = poly_gcd(r, v)
        if t.degree == 0:
            break
        r = r // t
    if r.degree > 0:
        raise InvariantViolated(f"radical: the factor {r} has a multiplicity divisible by p")
    return v


def lift_poly(f: Poly, ext: FieldCtx) -> Poly:
    if f.ctx is ext:
        return f
    return Poly(ext, tuple(map(_embedding(f.ctx, ext), f.raw)))


# ---------------------------------------------------------------------------
# Projective line and rational maps

INF = None  # the point at infinity of P^1; every other point is a FieldElem


def point_str(x) -> str:
    """Text form of a point of P^1: "inf" for INF, else the element's."""
    return "inf" if x is INF else repr(x)


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

    def fiber_poly(self, c: FieldElem) -> Poly:
        """num - c*den, whose roots are the finite points over c."""
        return self.num - self.den * c

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


def evaluate(f: RatFunc, x):
    """Value of f at a point x of P^1 (a FieldElem or INF), as a point of P^1."""
    if x is INF:
        dn, dd = f.num.degree, f.den.degree
        if dn > dd:
            return INF
        if dn < dd:
            return f.ctx.zero
        return f.num.lc / f.den.lc
    dv = f.den(x)
    if dv.is_zero:
        # reduced form: num and den cannot vanish together
        return INF
    return f.num(x) / dv


def map_degree(f: RatFunc) -> int:
    """Degree of f as a self-map of P^1."""
    if f.is_constant:
        raise ConstantMap("degree of a constant map")
    return max(f.num.degree, f.den.degree)


def ord_at(f: RatFunc, x, target) -> int:
    """Multiplicity of x as a solution of f = target (points of P^1).

    This is the local ramification-index datum: the valuation of
    f - target at x (of the denominator when target is INF), with the
    point at infinity read off the degrees: f - t = fiber_poly(t) / den
    vanishes there to order deg den - deg fiber_poly(t), and f has a pole
    there of order deg num - deg den.
    """
    if evaluate(f, x) != target:
        raise ValueMismatch(f"f({point_str(x)}) is not {point_str(target)}")
    if x is INF:
        if target is INF:
            return f.num.degree - f.den.degree
        P = f.fiber_poly(target)
        return 0 if P.is_zero else f.den.degree - P.degree  # 0 for a constant f
    if target is INF:
        return linear_multiplicity(f.den, x)
    return linear_multiplicity(f.fiber_poly(target), x)


# ---------------------------------------------------------------------------
# Root finding

def _linear_roots_split(g: Poly) -> list[FieldElem]:
    """All roots of a squarefree monic g of positive degree that splits
    completely over its field, a field of odd characteristic."""
    ctx = g.ctx
    # deterministic equal-degree splitting: successive shifts a separate any
    # pair of roots because the quadratic character of (r + a) cannot agree
    # for every a in the field.  A shift a in F_p never separates r from its
    # conjugate r^p, since chi(r^p + a) = chi((r + a)^p) = chi(r + a), so the
    # shifts outside F_p (every element past the first p in canonical order)
    # come first and the F_p ones last.  Both parts of a split resume after
    # the shift that split them: no earlier shift separates two roots of h,
    # and that one puts all roots of each part on one side, so every pair is
    # still offered every shift that could separate it.
    half = (ctx.order - 1) // 2
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
    """Roots of f over F_p, p odd, each once, as (root, multiplicity in f, k),
    ordered by (k, canonical element order), where k is the minimal field
    degree of the root over F_p.

    The roots with k <= max_ext_degree are named inside the canonical fields
    F_{p^k} of the tower.
    """
    ctx = f.ctx
    if ctx.characteristic == 0:
        raise CharZero("root finding needs characteristic p")
    if not isinstance(ctx, PrimeField) or ctx.p == 2:
        raise MixedContexts(f"root finding takes a polynomial over F_p with p odd, not over {ctx}")
    if f.is_zero:
        raise DivisionByZero("root finding on the zero polynomial")
    out: list[tuple[FieldElem, int, int]] = []
    for k, g in _distinct_degree(f, max_ext_degree):
        ext = make_field(ctx.p, k)
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
