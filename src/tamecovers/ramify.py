"""Ramification analysis of rational self-maps of the projective line.

Every construction here knows its ramification points in advance, so
``analyze_cover`` never searches for roots: it does the bookkeeping at the
named points ``candidates`` (elements of the map's own field) and at
infinity.  It computes the ramification index of each named point, the
branch points and, when complete, the ramification type, whose
Riemann-Hurwitz genus ``genus_from_type`` gives.  The analysis is complete
exactly when dividing the derivative numerator W by each named point's
multiplicity in it leaves a constant.  To analyse a map over a small finite
field without knowing its critical points, name every element
(``candidates=ctx.elements()``), lifting the map first into a field that
holds them.

``expect_cover`` is the one certification step of the constructions: it
runs the analysis once and raises the caller's error class naming the
first clause of the claimed type that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Inseparable, InvalidType, InvariantViolated
from .poly import (
    INF,
    ProjPoint,
    RatFunc,
    evaluate,
    map_degree,
    ord_at,
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
    complete: bool  # the named points account for every critical point
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
        return (1, ())
    key = pt.value.sort_key()
    if not isinstance(key, tuple):
        key = (key,)
    return (0, key)


def analyze_cover(f: RatFunc, candidates) -> CoverAnalysis:
    """Ramification bookkeeping of a nonconstant separable map at the named
    finite points ``candidates`` (elements of f's field) and at infinity."""
    ctx = f.ctx
    d = map_degree(f)  # raises ConstantMap on constants
    W = f.num.derivative() * f.den - f.num * f.den.derivative()
    if W.is_zero:
        raise Inseparable("derivative data vanishes identically")

    ram_points: list[tuple[ProjPoint, int]] = []
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
            pt = ProjPoint(x)
            ram_points.append((pt, ord_at(f, pt, evaluate(f, pt))))
    complete = residual.degree <= 0

    e_inf = ord_at(f, INF, evaluate(f, INF))
    if e_inf >= 2:
        ram_points.append((INF, e_inf))
    ram_points.sort(key=lambda pe: _pt_sort_key(pe[0]))
    images = [evaluate(f, pt) for pt, _e in ram_points]
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


def expect_cover(f: RatFunc, exc, what: str, points, images=(), branch=None,
                 degree=None) -> RamType:
    """Certify that f has the claimed ramification, or raise exc.

    ``points`` lists every ramification point as (point, index), with index
    None where it is not claimed; the finite points are the candidates of a
    single ``analyze_cover``.  ``images`` lists (point, value) pairs and
    ``branch`` is the exact branch-point tuple or their number.  The
    clauses are checked in a fixed order: tame, degree, index at each named
    point, image of each named point, complete (the named points account
    for every critical point), ramification-point count, branch points.
    The detail of exc names the first failing clause.
    """
    points = [(ProjPoint.of(x), e) for x, e in points]
    a = analyze_cover(f, candidates=[x for x, _e in points])

    def fail(clause: str):
        raise exc(f"{what} failed type verification: {clause}")

    if not a.tame:
        fail(f"tame: an index is divisible by p = {f.ctx.characteristic}")
    if degree is not None and a.degree != degree:
        fail(f"degree is {a.degree}, expected {degree}")
    for x, e in points:
        if e is not None and a.index_at(x) != e:
            fail(f"index at {x} is {a.index_at(x)}, expected {e}")
    for x, y in images:
        value = evaluate(f, x)
        if value != y:
            fail(f"image of {x} is {value}, expected {y}")
    if not a.complete:
        fail("complete: the named points do not account for every critical point")
    if len(a.ram_points) != len(points):
        fail(f"{len(a.ram_points)} ramification points, expected {len(points)}")
    if isinstance(branch, int):
        if len(a.branch_points) != branch:
            fail(f"{len(a.branch_points)} branch points, expected {branch}")
    elif branch is not None and a.branch_points != tuple(branch):
        fail(f"branch points are {a.branch_points}, expected {tuple(branch)}")
    return a.ram_type
