"""Ramification analysis of rational self-maps of the projective line.

``analyze_cover`` locates the critical points of a separable map, computes
ramification indices and branch points, and derives the
ramification type and its Riemann-Hurwitz genus.  Completeness is tracked
honestly: the located critical points are complete exactly when their
multiplicities in the derivative numerator W sum to deg W, since W splits
over the algebraic closure.  Callers that construct covers with known
ramification points pass them as ``candidates``; the same bookkeeping then
certifies the type without any root search.

``expect_cover`` is the one certification step of the constructions: it
runs the analysis once and raises the caller's error class naming the
first clause of the claimed type that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Inseparable, InvalidType, InvariantViolated
from .field import ExtField, FieldElem
from .poly import (
    DEFAULT_EXT,
    INF,
    Poly,
    ProjPoint,
    RatFunc,
    evaluate,
    lift_ratfunc,
    map_degree,
    ord_at,
    rational_roots,
    roots,
    synthetic_div,
)


@dataclass(frozen=True)
class RamType:
    """Degree plus one partition of it per branch point, in branch order."""

    d: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for part in self.classes:
            if sum(part) != self.d:
                raise InvalidType(f"partition {part} does not sum to {self.d}")
            if any(e < 1 for e in part):
                raise InvalidType(f"partition {part} has parts < 1")
            if list(part) != sorted(part, reverse=True):
                raise InvalidType(f"partition {part} is not weakly decreasing")

    @property
    def single_cycle(self) -> tuple[int, ...] | None:
        """The (e_1, ..., e_r) when every partition has one part > 1."""
        es = []
        for part in self.classes:
            big = [e for e in part if e > 1]
            if len(big) != 1:
                return None
            es.append(big[0])
        return tuple(es)

    def __repr__(self):
        names = ",".join("[" + ",".join(map(str, c)) + "]" for c in self.classes)
        return f"({self.d}; {names})"


def genus_from_type(t: RamType) -> int:
    """Genus of the source curve from the Riemann-Hurwitz count."""
    total_e = sum(sum(part) for part in t.classes)
    total_n = sum(len(part) for part in t.classes)
    twice = total_e - total_n + 2 - 2 * t.d
    if twice % 2 != 0 or twice < 0:
        raise InvalidType(f"type {t} has no nonnegative integer genus")
    return twice // 2


def single_cycle_type(d: int, es) -> RamType:
    """RamType with one e_i-cycle per branch point, padded with 1's."""
    classes = []
    for e in es:
        if not 1 <= e <= d:
            raise InvalidType(f"cycle length {e} invalid for degree {d}")
        classes.append(tuple([e] + [1] * (d - e)))
    return RamType(d, tuple(classes))


@dataclass(frozen=True)
class CoverAnalysis:
    map: RatFunc
    degree: int
    tame: bool
    complete: bool  # all critical points located
    ram_points: tuple[tuple[ProjPoint, int], ...]
    branch_points: tuple[ProjPoint, ...]
    ram_type: RamType | None

    def index_at(self, pt) -> int:
        pt = ProjPoint.of(pt)
        for q, e in self.ram_points:
            if q == pt:
                return e
        return 1


@dataclass(frozen=True)
class NormalizedCover:
    """A cover carrying the convention 0,1,infinity -> 0,1,infinity."""

    cover: RatFunc
    ram_type: RamType | None = None


def _pt_sort_key(pt: ProjPoint):
    if pt.is_infinite:
        return (1, 0, ())
    ctx = pt.value.ctx
    n = ctx.n if isinstance(ctx, ExtField) else 1
    key = pt.value.sort_key()
    if not isinstance(key, tuple):
        key = (key,)
    return (0, n, key)


def _residual_roots(P: Poly, max_ext_degree: int) -> list[tuple[FieldElem, int]]:
    """Roots of P with multiplicities.  Over Q only rational roots are
    reachable; otherwise ``roots`` does the search."""
    if P.ctx.characteristic == 0:
        return rational_roots(P)[0]
    return [(r, m) for r, m, _k in roots(P, max_ext_degree)]


def analyze_cover(
    f: RatFunc,
    max_ext_degree: int = DEFAULT_EXT,
    candidates=(),
) -> CoverAnalysis:
    """Full ramification analysis of a nonconstant separable map."""
    ctx = f.ctx
    d = map_degree(f)  # raises ConstantMap on constants
    W = f.num.derivative() * f.den - f.num * f.den.derivative()
    if W.is_zero:
        raise Inseparable("derivative data vanishes identically")

    located: list[tuple[FieldElem, int]] = []
    residual = W
    seen = set()
    for cand in candidates:
        cand = ProjPoint.of(cand)
        if cand.is_infinite or cand in seen:
            continue
        seen.add(cand)
        x = ctx.elem(cand.value)
        m = 0
        while not residual.is_zero:
            q, rem = synthetic_div(residual, x)
            if not rem.is_zero:
                break
            residual = q
            m += 1
        if m:
            located.append((x, m))

    complete = residual.degree <= 0
    if not complete:
        # discovered roots may live in tower fields, so account for the
        # remaining critical mass by multiplicities instead of deflating
        extra = _residual_roots(residual, max_ext_degree)
        located.extend(extra)
        complete = sum(m for _r, m in extra) == residual.degree

    ram_points: list[tuple[ProjPoint, int]] = []
    for x, _m in located:
        pt = ProjPoint(x)
        fl = lift_ratfunc(f, x.ctx)
        e = ord_at(fl, pt, evaluate(fl, pt))
        ram_points.append((pt, e))
    e_inf = ord_at(f, INF, evaluate(f, INF))
    if e_inf >= 2:
        ram_points.append((INF, e_inf))
    ram_points.sort(key=lambda pe: _pt_sort_key(pe[0]))
    images = [_image(f, pt) for pt, _e in ram_points]
    branch_points = tuple(sorted(set(images), key=_pt_sort_key))

    p = ctx.characteristic
    tame = p == 0 or all(e % p != 0 for _pt, e in ram_points)

    ram_type = None
    if complete:
        classes = []
        for b in branch_points:
            idx = [e for (_pt, e), v in zip(ram_points, images) if v == b]
            pad = d - sum(idx)
            if pad < 0:
                raise InvariantViolated("ramification indices exceed the degree")
            classes.append(tuple(sorted(idx, reverse=True) + [1] * pad))
        ram_type = RamType(d, tuple(classes))

    return CoverAnalysis(
        map=f,
        degree=d,
        tame=tame,
        complete=complete,
        ram_points=tuple(ram_points),
        branch_points=branch_points,
        ram_type=ram_type,
    )


def _image(f: RatFunc, pt: ProjPoint) -> ProjPoint:
    """f(pt), written in f's own field when it is F_p-rational, so that one
    branch value reached from points of different field degrees is one
    branch point."""
    if pt.is_infinite or pt.value.ctx is f.ctx:
        return evaluate(f, pt)
    v = evaluate(lift_ratfunc(f, pt.value.ctx), pt)
    if v.is_infinite or v.value.min_degree() != 1:
        return v
    return ProjPoint(f.ctx.from_int(v.value.raw[0]))


def expect_cover(f: RatFunc, exc, what: str, points, images=(), branch=None,
                 degree=None) -> RamType:
    """Certify that f has the claimed ramification, or raise exc.

    ``points`` lists every ramification point as (point, index), with index
    None where it is not claimed; the finite points are the candidates of a
    single ``analyze_cover``.  ``images`` lists (point, value) pairs and
    ``branch`` is the exact branch-point tuple or their number.  The
    clauses are checked in a fixed order: complete, tame, degree,
    ramification-point count, index at each point, image of each point,
    branch points.  The detail of exc names the first failing clause.
    """
    points = [(ProjPoint.of(x), e) for x, e in points]
    a = analyze_cover(f, candidates=[x for x, _e in points])

    def fail(clause: str):
        raise exc(f"{what} failed type verification: {clause}")

    if not a.complete:
        fail("complete: some critical points lie outside the searched extensions")
    if not a.tame:
        fail(f"tame: an index is divisible by p = {f.ctx.characteristic}")
    if degree is not None and a.degree != degree:
        fail(f"degree is {a.degree}, expected {degree}")
    if len(a.ram_points) != len(points):
        fail(f"{len(a.ram_points)} ramification points, expected {len(points)}")
    for x, e in points:
        if e is not None and a.index_at(x) != e:
            fail(f"index at {x} is {a.index_at(x)}, expected {e}")
    for x, y in images:
        value = evaluate(f, x)
        if value != y:
            fail(f"image of {x} is {value}, expected {y}")
    if isinstance(branch, int):
        if len(a.branch_points) != branch:
            fail(f"{len(a.branch_points)} branch points, expected {branch}")
    elif branch is not None and a.branch_points != tuple(branch):
        fail(f"branch points are {a.branch_points}, expected {tuple(branch)}")
    return a.ram_type
