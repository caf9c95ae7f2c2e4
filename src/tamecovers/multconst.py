"""The multiplicative construction: 4-point covers with one index p-1.

A genus-0 single-cycle type (d; e1, e2, e3, p-1) with 1 < e_i < p is tied
to the 3-point type (d~; e1, e2, p-e3), d~ = d+1-e3, by a pair of inverse
constructions:

* ``lift``     turns the unique normalized 3-point cover h and a parameter
               mu into a normalized 4-point cover f with fourth branch
               point lambda = mu^p (1 - h(mu)) / (mu^p - h(mu)), by
               normalizing w = (y - mu)^p / (h - h(mu));
* ``contract`` inverts it, dividing (y - mu)^p by f - lambda.

Sending mu to lambda is a single rational map; its degree is the generic
number of 4-point covers per branch locus (the p-Hurwitz number h_p).  The
map is the normalized 3-point cover of the dual type (h_p; E1, E2, E3),
E_i = p - e_i, since dlambda/dmu = u(1 - u) h'/(u - h)^2, u = mu^p,
vanishes only over 0, 1, inf.  A genus-0 three-point type has
E1 + E2 + E3 = 2 h_p + 1, so h_p = (3p - 1 - E)/2 with E = e1+e2+e3;
``p_hurwitz_4pt`` is the one home of this count.  With da = h_p-E1,
db = h_p-E3, dc = h_p-E2 the map is y^E1 A'/B', where

    x^da A'(1/x) = 2F1(-da, -E2-dc; -da-dc; x),
    B'           = 2F1(-db, -E2-dc; -db-dc; y),

with B' monic and A'(1) = B'(1).  The recurrence of each terminating
2F1(a, b; c; .) divides by (c+k)(k+1), a nonzero integer of absolute value
below p, as da+dc = E3-1 and db+dc = E1-1 are at most p-2: a unit mod p.
``lambda_map`` builds this (N, D) = (y^E1 A', B') and certifies it against
h by three clauses, a FormulaMismatch naming the one that fails:
N (y^p h.den - h.num) = D y^p (h.den - h.num), gcd(N, D) = 1 and
deg lambda = p_hurwitz_4pt(t).  With D monic they make (N, D) the reduced
pair of y^p (1 - h)/(y^p - h).

The finitely many lambda values where the fiber count drops (the
supersingular locus) are the images r^p of the poles r of h; since h has
F_p coefficients, Frobenius permutes its poles, so the locus is the zero
set of h.den.  ``is_supersingular_value`` tests a value against it
exactly, with no search bound, and ``supersingular_values`` names the
points of the locus up to a bound on their field degree, for the commands
that print them.

``count_covers_at`` is the independent oracle: it counts the mu-fiber over
a given lambda by degree bookkeeping alone, discarding the mu excluded by
the construction; it counts only the mu of field degree up to its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BranchValueExcluded,
    FormulaMismatch,
    InvalidMu,
    InvalidType,
    MinNotAtFirst,
    MixedContexts,
    NoCovers,
    NotRamifiedHere,
    WrongIndex,
)
from .field import FieldCtx, FieldElem, PrimeField, is_prime
from .poly import (
    DEFAULT_EXT,
    INF,
    Poly,
    RatFunc,
    count_roots_by_degree,
    evaluate,
    lift_poly,
    lift_ratfunc,
    map_degree,
    ord_at,
    point_str,
    poly_gcd,
    radical,
    roots,
)
from .ramify import NormalizedCover, expect_cover
from .threepoint import ThreePointSpec, solve_three_point


@dataclass(frozen=True)
class FourPointType:
    """A type (d; e1, e2, e3, p-1) with 1 < e_i < p, E = e1+e2+e3 even."""

    p: int
    e1: int
    e2: int
    e3: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise InvalidType(f"p = {self.p} is not an odd prime")
        for e in (self.e1, self.e2, self.e3):
            if not 1 < e < self.p:
                raise InvalidType(f"index {e} outside (1, {self.p})")
        if self.E % 2:
            raise InvalidType(f"E = {self.E} must be even")
        if self.e3 == self.p - 1:
            raise InvalidType(f"e3 = p - 1 = {self.e3} is excluded")

    @property
    def E(self) -> int:
        return self.e1 + self.e2 + self.e3

    @property
    def e4(self) -> int:
        return self.p - 1

    @property
    def d(self) -> int:
        return (self.E + self.p - 3) // 2

    @property
    def d_tilde(self) -> int:
        return self.d + 1 - self.e3

    @property
    def tilde_spec(self) -> ThreePointSpec:
        return ThreePointSpec(self.e1, self.e2, self.p - self.e3)

    def phpos_witness(self) -> str | None:
        """None when p+1 <= E <= p-1+2*min(e_i) holds, else the failed side."""
        lo, hi = self.p + 1, self.p - 1 + 2 * min(self.e1, self.e2, self.e3)
        if self.E < lo:
            return f"E = {self.E} < p+1 = {lo}"
        if self.E > hi:
            return f"E = {self.E} > p-1+2*min(e_i) = {hi}"
        return None

    @property
    def phpos_ok(self) -> bool:
        return self.phpos_witness() is None


def p_hurwitz_4pt(t: FourPointType) -> int:
    """Generic number of covers of type (d; e1, e2, e3, p-1)."""
    if not t.phpos_ok:
        return 0
    return (3 * t.p - 1 - t.E) // 2


@dataclass(frozen=True)
class LambdaMap:
    """The fourth-branch-point map mu -> lambda of a 4-point type."""

    p: int
    four_type: FourPointType
    base: NormalizedCover  # the 3-point cover h of the tilde type
    map: RatFunc
    degree: int


def _hyp2f1(p: int, n: int, b: int, c: int) -> list[int]:
    """Ascending coefficients mod p of the terminating 2F1(-n, b; c; x)."""
    out = [1]
    for k in range(n):
        den = (c + k) * (k + 1) % p
        if den == 0:
            raise FormulaMismatch(f"2F1({-n}, {b}; {c}) divides by ({c + k})({k + 1}) = 0 mod {p}")
        out.append(out[-1] * (k - n) * (b + k) * pow(den, -1, p) % p)
    return out


def _dual_lambda(t: FourPointType) -> tuple[list[int], list[int]]:
    """(N, D) of lambda = y^E1 A'/B' from the 2F1 forms of the dual type."""
    p = t.p
    E1, E2, E3 = p - t.e1, p - t.e2, p - t.e3
    hp = (E1 + E2 + E3 - 1) // 2  # the degree of the genus-0 dual type
    da, db, dc = hp - E1, hp - E3, hp - E2
    a = _hyp2f1(p, da, -E2 - dc, -da - dc)[::-1]  # A'(y) = y^da * 2F1(1/y), up to scale
    b = _hyp2f1(p, db, -E2 - dc, -db - dc)
    if b[-1] == 0 or sum(a) % p == 0:
        raise FormulaMismatch(f"dual closed form for {t}: lc(B') = {b[-1]}, A'(1) = {sum(a) % p}")
    inv = pow(b[-1], -1, p)
    b = [v * inv % p for v in b]  # B' monic
    scale = sum(b) * pow(sum(a), -1, p) % p  # A'(1) = B'(1)
    return [0] * E1 + [v * scale % p for v in a], b


def lambda_map(ctx: FieldCtx, t: FourPointType) -> LambdaMap:
    """mu -> mu^p (1 - h(mu)) / (mu^p - h(mu)) in closed form, certified against h."""
    if not isinstance(ctx, PrimeField) or ctx.p != t.p:
        raise MixedContexts(f"lambda_map needs the prime field F_{t.p}, got {ctx}")
    witness = t.phpos_witness()
    if witness is not None:
        raise NoCovers(witness)
    h = solve_three_point(ctx, t.tilde_spec)
    p = t.p
    num, den = (Poly.from_ints(ctx, c) for c in _dual_lambda(t))
    ypow = Poly.from_ints(ctx, [0] * p + [1])
    hn, hd = h.cover.num, h.cover.den
    if (ypow * hd - hn) * num != (ypow * (hd - hn)) * den:
        raise FormulaMismatch(f"identity clause: closed form is not y^p (1 - h)/(y^p - h) for {t}")
    if poly_gcd(num, den).degree != 0:
        raise FormulaMismatch(f"gcd clause: closed form is not reduced for {t}")
    lam = RatFunc(num, den)
    deg = map_degree(lam)
    h_p = p_hurwitz_4pt(t)
    if deg != h_p:
        raise FormulaMismatch(f"degree clause: deg(lambda) = {deg} but h_p = {h_p} for {t}")
    return LambdaMap(p=p, four_type=t, base=h, map=lam, degree=deg)


def supersingular_values(L: LambdaMap, max_ext_degree: int = DEFAULT_EXT) -> tuple[FieldElem, ...]:
    """The supersingular lambda values of field degree <= max_ext_degree,
    ordered by (degree, canonical element order).

    They are the images r^p of the poles r of h, which are the poles
    themselves: Frobenius permutes the roots of h.den within each degree.
    """
    return tuple(r for r, _m, _k in roots(L.base.cover.den, max_ext_degree))


@dataclass(frozen=True)
class LiftResult:
    cover: NormalizedCover  # normalized 4-point cover
    lam: FieldElem
    mu: FieldElem
    d: int
    indices: tuple[int, int, int, int]  # at 0, 1, infinity, mu


def _swap_through(F: RatFunc, mu: FieldElem, c: FieldElem) -> RatFunc:
    """The step shared by lift and contract: w = (y - mu)^p / (F - c),
    normalized by the affine map sending w(0), w(1) to 0, 1."""
    ctx = mu.ctx
    p = ctx.characteristic
    # (y - mu)^p = y^p - mu^p in characteristic p
    ypow = Poly.from_elems(ctx, [-(mu ** p)] + [ctx.zero] * (p - 1) + [ctx.one])
    w = RatFunc.make(ypow * F.den, F.fiber_poly(c))
    w0 = evaluate(w, ctx.zero)
    w1 = evaluate(w, ctx.one)
    if w1 == w0:
        raise FormulaMismatch(f"w(0) = w(1) = {w0}: degenerate normalization at mu = {mu}")
    # an affine image of a reduced map with monic denominator stays reduced
    return RatFunc((w.num - w.den * w0) * (w1 - w0).inverse(), w.den)


def lift(h: NormalizedCover, mu: FieldElem, verify: bool = True) -> LiftResult:
    """Extend a normalized 3-point cover to a 4-point cover through mu."""
    base_ctx = h.cover.ctx
    p = base_ctx.characteristic
    if h.ram_type is None or h.ram_type.single_cycle is None:
        raise InvalidType("lift needs a verified single-cycle 3-point cover")
    te1, te2, te3 = h.ram_type.single_cycle
    e1, e2, e3 = te1, te2, p - te3
    d = h.ram_type.d - 1 + e3

    ctx = mu.ctx
    if ctx.characteristic != p:
        raise MixedContexts(f"mu lives in characteristic {ctx.characteristic}, cover in {p}")
    if mu.is_zero or mu == ctx.one:
        raise InvalidMu(f"mu = {mu} is a ramification point of the base cover")

    hl = lift_ratfunc(h.cover, ctx)
    hv = evaluate(hl, mu)
    if hv is INF:
        raise InvalidMu(f"h(mu) is a pole at mu = {mu}")
    if hv.is_zero:
        raise InvalidMu(f"h(mu) = 0 at mu = {mu}")
    if hv == ctx.one:
        raise InvalidMu(f"h(mu) = 1 at mu = {mu}")
    mup = mu ** p
    if hv == mup:
        raise InvalidMu(f"h(mu) = mu^p at mu = {mu} (fixed point)")

    f = _swap_through(hl, mu, hv)
    lam = mup * (ctx.one - hv) / (mup - hv)
    f_mu = evaluate(f, mu)
    if f_mu != lam:
        raise FormulaMismatch(f"closed form lambda = {lam} but f(mu) = {point_str(f_mu)}")

    ram_type = None
    if verify:
        # f(mu) = lambda was checked above, so four branch points with the
        # images 0, 1, inf -> 0, 1, inf also keep lambda off 0 and 1
        zero, one = ctx.zero, ctx.one
        ram_type = expect_cover(
            f, FormulaMismatch, f"lift of {h.ram_type} at mu = {mu}",
            points=((zero, e1), (one, e2), (INF, e3), (mu, p - 1)),
            images=((zero, zero), (one, one), (INF, INF)),
            branch=4,
            degree=d,
        )
    return LiftResult(
        cover=NormalizedCover(cover=f, ram_type=ram_type),
        lam=lam,
        mu=mu,
        d=d,
        indices=(e1, e2, e3, p - 1),
    )


def contract(f: RatFunc, lam: FieldElem, mu: FieldElem, verify: bool = True) -> NormalizedCover:
    """Collapse the index-(p-1) point of a 4-point cover back to 3 points."""
    ctx = f.ctx
    p = ctx.characteristic
    if p == 0:
        raise MixedContexts("contract needs positive characteristic")
    lam, mu = ctx.elem(lam), ctx.elem(mu)
    if evaluate(f, mu) != lam:
        raise NotRamifiedHere(f"f({mu}) = {point_str(evaluate(f, mu))} is not {lam}")
    e = ord_at(f, mu, lam)
    if e == 1:
        raise NotRamifiedHere(f"mu = {mu} is unramified in its fiber")
    if e != p - 1:
        raise WrongIndex(f"index at mu = {mu} is {e}, expected p-1 = {p - 1}")

    h = _swap_through(f, mu, lam)

    ram_type = None
    if verify:
        zero, one = ctx.zero, ctx.one
        ram_type = expect_cover(
            h, FormulaMismatch, f"contract at mu = {mu}",
            points=((zero, None), (one, None), (INF, None)),
            images=((zero, zero), (one, one), (INF, INF)),
            branch=(zero, one, INF),
        )
    return NormalizedCover(cover=h, ram_type=ram_type)


def _exclusion_poly(h: RatFunc) -> Poly:
    """Polynomial whose roots are the mu rejected by the lift construction."""
    ctx = h.ctx
    p = ctx.characteristic
    x = Poly.x(ctx)
    ypow = Poly.from_ints(ctx, [0] * p + [1])
    parts = [
        x,
        x - Poly.one(ctx),
        h.num,
        h.num - h.den,
        h.den,
        ypow * h.den - h.num,
    ]
    out = Poly.one(ctx)
    for part in parts:
        if part.degree > 0:
            out = out * part
    return out


def _fiber_poly(L: LambdaMap, lam0: FieldElem) -> Poly:
    """The mu-polynomial over lam0, in the field of lam0."""
    return lift_ratfunc(L.map, lam0.ctx).fiber_poly(lam0)


def count_covers_at(L: LambdaMap, lam0, max_ext_degree: int = DEFAULT_EXT) -> int:
    """Number of valid mu with lambda(mu) = lam0 and field degree at most
    max_ext_degree over F_p; a mu of larger degree is not counted.

    Counts the distinct roots of the fiber polynomial within the bound,
    leaving out the roots excluded by the construction.
    """
    if lam0 is INF:
        raise BranchValueExcluded("lambda = infinity is a branch value")
    ctx0 = lam0.ctx
    if ctx0.characteristic != L.p:
        raise MixedContexts(f"lambda lives in characteristic {ctx0.characteristic}")
    if lam0.is_zero or lam0 == ctx0.one:
        raise BranchValueExcluded(f"lambda = {lam0} is one of the fixed branch values")

    rad = radical(_fiber_poly(L, lam0))
    valid = rad // poly_gcd(rad, lift_poly(_exclusion_poly(L.base.cover), ctx0))
    return sum(count_roots_by_degree(valid, max_ext_degree).values())


def is_critical_value(L: LambdaMap, lam0) -> bool:
    """Whether the fiber polynomial over lam0 has a repeated root."""
    if lam0 is INF:
        return True
    P = _fiber_poly(L, lam0)
    return poly_gcd(P, P.derivative()).degree > 0


def is_supersingular_value(L: LambdaMap, lam0) -> bool:
    """Whether lam0 lies in the supersingular locus: h.den, lifted into the
    field of lam0, vanishes there.  No search bound is involved."""
    if lam0 is INF:
        return False
    return lift_poly(L.base.cover.den, lam0.ctx)(lam0).is_zero


@dataclass(frozen=True)
class BadDegreeResult:
    p: int
    es: tuple[int, int, int]
    d: int
    h: int
    h_p: int
    bad: int
    case: str  # "all_good" | "mixed" | "all_bad"
    quotient: int | None  # (h - h_p)/p in the mixed case


def _score(d: int, e: int) -> int:
    return e * (d + 1 - e)


def min_first(d: int, es) -> tuple[int, ...]:
    """es ordered by e(d+1-e), ties by e: the order bad_degree expects."""
    return tuple(sorted(es, key=lambda e: (_score(d, e), e)))


def bad_degree(p: int, es) -> BadDegreeResult:
    """Covers with generic branch locus and bad reduction, by the piecewise
    closed form; es must put the minimal e_i (d+1-e_i) first."""
    t = FourPointType(p, *es)
    d = t.d
    s1, s2, s3, s4 = (_score(d, e) for e in (t.e1, t.e2, t.e3, t.e4))
    if s1 != min(s1, s2, s3):
        raise MinNotAtFirst(
            f"min of e_i(d+1-e_i) over {es} is not attained at e1 = {t.e1}"
        )
    if d < p - 1:
        h = 0  # the (p-1)-cycle does not fit in degree d: no covers at all
    else:
        h = min(s1, s2, s3, s4)
    h_p = p_hurwitz_4pt(t)
    if d <= p - 1:
        case, bad, quotient = "all_good", 0, None
    elif d <= p - 2 + t.e1:
        case, bad, quotient = "mixed", p * (d + 1 - p), d + 1 - p
    else:
        case, bad, quotient = "all_bad", s1, None
    if bad != h - h_p:
        raise FormulaMismatch(
            f"piecewise bad degree {bad} != h - h_p = {h} - {h_p} for {t}"
        )
    return BadDegreeResult(p=p, es=(t.e1, t.e2, t.e3), d=d, h=h, h_p=h_p, bad=bad,
                           case=case, quotient=quotient)

