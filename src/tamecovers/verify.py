"""Verification suites: the paper's worked examples and closed forms,
each checked against an independent construction or brute-force oracle.

``run_suite`` returns one JSON-ready document per suite; every check in it
records what was computed ("got") next to what the paper predicts ("want").
No suite takes an extension-degree bound: each passes the bound that makes
its root search exact, since a root of a degree-m polynomial over F_{p^n}
has degree at most n*m over F_p.
"""

from __future__ import annotations

import itertools

from . import addconst, jsonio, multconst, symhurwitz
from .errors import DegreeTooLarge, DomainError, FormulaMismatch, InvalidMu, MixedContexts, UsageError
from .field import is_prime, make_field
from .poly import Poly, lift_poly, lift_ratfunc
from .threepoint import ThreePointSpec, solve_three_point

SUITES = ("paper-examples", "formulas", "roundtrip", "oracle")
_BOUND = dict(zip(SUITES, ("p", "p_max", "p", "d_max")))  # the one bound each suite reads


def supersingular_strs(L: multconst.LambdaMap, ext: int) -> list[str]:
    """The supersingular values of L up to extension degree ext, as text."""
    return [jsonio.elem_str(s) for s in multconst.supersingular_values(L, ext)]


def run_suite(suite: str, p: int | None = None, p_max: int | None = None,
              d_max: int | None = None) -> dict:
    """Run one named suite; ``all_pass`` in the result is True exactly when
    every check passed.  A bound the suite does not read is a usage error."""
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}, expected one of {', '.join(SUITES)}")
    for name, value in (("p", p), ("p_max", p_max), ("d_max", d_max)):
        if value is not None and name != _BOUND[suite]:
            raise UsageError(f"the {suite} suite reads --{_BOUND[suite]}, not --{name}")
    if suite == "paper-examples":
        if p is not None and (p < 5 or not is_prime(p)):
            # the examples need the types (p; 2, 2, p-3) and (p; 3, 2, p-2)
            raise UsageError(f"--p must be a prime at least 5 for the paper-examples suite, got {p}")
        checks = _paper_examples(5 if p is None else p)
    elif suite == "formulas":
        p_max = 13 if p_max is None else p_max
        if p_max < 5:
            # the suite checks the primes from 5 to --p_max
            raise UsageError(f"--p_max must be at least 5, got {p_max}")
        checks = _formulas(p_max)
    elif suite == "roundtrip":
        if p is not None and (p < 5 or not is_prime(p)):
            # no type (d; e1, e2, e3, p-1) with 1 < e_i < p exists below 5,
            # and the suite builds F_p
            raise UsageError(f"--p must be at least 5 and prime for the roundtrip suite, got {p}")
        checks = _roundtrip([p] if p else [5, 7])
    else:
        d_max = 8 if d_max is None else d_max
        if d_max < 3:
            # 3 is the least degree with a 4-point type
            raise UsageError(f"--d_max must be at least 3, got {d_max}")
        checks = _oracle(d_max)
    passed = sum(1 for c in checks if c["pass"])
    return {
        "suite": suite,
        "checks": checks,
        "passed": passed,
        "failed": len(checks) - passed,
        "all_pass": passed == len(checks),
    }


def _check(name: str, got, want) -> dict:
    return {"name": name, "pass": got == want, "got": got, "want": want}


def _admissible_types(p: int) -> list[multconst.FourPointType]:
    out = []
    for es in itertools.product(range(2, p), repeat=3):
        try:
            t = multconst.FourPointType(p, *es)
        except DomainError:
            continue
        if t.phpos_ok:
            out.append(t)
    return out


def _paper_examples(p: int) -> list[dict]:
    checks = []
    ctx = make_field(p)
    QQ = make_field(0)

    t_a = multconst.FourPointType(p, 2, 2, p - 3)
    L_a = multconst.lambda_map(ctx, t_a)
    checks.append(_check(f"example-a-degree-p{p}", L_a.degree, p - 1))
    checks.append(_check(f"example-a-supersingular-p{p}",
                         supersingular_strs(L_a, max(1, L_a.base.cover.den.degree)), []))
    checks.append(_check(f"example-a-bad-degree-p{p}",
                         multconst.bad_degree(p, (2, 2, p - 3)).bad, 0))

    h_q = solve_three_point(QQ, ThreePointSpec(3, 2, 2))
    num, den = jsonio.ratfunc_strs(h_q.cover)
    checks.append(_check("example-b-cover-Q", [num, den], [["0", "0", "0", "1"], ["-2", "3"]]))
    t_b = multconst.FourPointType(p, 3, 2, p - 2)
    L_b = multconst.lambda_map(ctx, t_b)
    checks.append(_check(f"example-b-degree-p{p}", L_b.degree, p - 2))
    two_thirds = ctx.from_int(2) / ctx.from_int(3)
    checks.append(_check(f"example-b-supersingular-p{p}",
                         supersingular_strs(L_b, max(1, L_b.base.cover.den.degree)),
                         [jsonio.elem_str(two_thirds)]))
    b_first = multconst.min_first(t_b.d, (3, 2, p - 2))
    checks.append(_check(f"example-b-bad-degree-p{p}", multconst.bad_degree(p, b_first).bad, p))

    if p == 5:
        fams = addconst.construct_family(5, 2, 4)
        got = [(jsonio.elem_str(f.a), jsonio.elem_str(f.rho), jsonio.elem_str(f.c))
               for f in fams]
        checks.append(_check("family-p5", got, [("3", "4", "2")]))
        tw = addconst.additive_twist(fams[0].merged, make_field(5).from_int(2))
        checks.append(_check("family-p5-twist-lambda", jsonio.elem_str(tw.lam), "3"))
    return checks


def _formulas(p_max: int) -> list[dict]:
    checks = []
    for p in filter(is_prime, range(5, p_max + 1)):
        ctx = make_field(p)
        mismatches = []
        types = _admissible_types(p)
        for t in types:
            try:
                multconst.lambda_map(ctx, t)  # checks deg(lambda) against p_hurwitz_4pt
            except FormulaMismatch:
                mismatches.append([t.e1, t.e2, t.e3])
        checks.append(_check(f"degree-identity-p{p}-{len(types)}-types", mismatches, []))

        bad_mismatches = []
        for es in itertools.combinations_with_replacement(range(2, p), 3):
            try:
                t = multconst.FourPointType(p, *es)
            except DomainError:
                continue
            try:
                res = multconst.bad_degree(p, multconst.min_first(t.d, es))  # checks bad = h - h_p
            except FormulaMismatch:
                bad_mismatches.append(list(es))
                continue
            if res.case == "mixed" and res.bad % p != 0:
                bad_mismatches.append(list(es))
        checks.append(_check(f"bad-degree-identity-p{p}", bad_mismatches, []))

        count_failures = []
        for e3 in range(2, (p + 1) // 2):
            e4 = p + 1 - e3
            try:
                fams = addconst.construct_family(p, e3, e4)
            except DomainError:
                count_failures.append(e3)
                continue
            in_fp = e3 == 2 or pow(-2 * (e3 - 1) * (e4 - 1), (p - 1) // 2, p) == 1  # Euler
            # the quadratic in a of the older derivation, independent of Q
            quad = Poly.from_ints(ctx, [2 - e3, 2 * e3, e3])
            if (len(fams) != 2 - (e3 == 2)
                    or any((fam.rho.min_degree() == 1) != in_fp for fam in fams)
                    or any(not lift_poly(quad, fam.a.ctx)(fam.a).is_zero for fam in fams)):
                count_failures.append(e3)
        checks.append(_check(f"additive-count-p{p}", count_failures, []))

    QQ = make_field(0)
    failures = []
    for d in range(2, 13):
        for es in itertools.product(range(2, d + 1), repeat=3):
            if sum(es) != 2 * d + 1:
                continue
            try:
                solve_three_point(QQ, ThreePointSpec(*es))
            except DomainError:
                failures.append([d, *es])
    checks.append(_check("three-point-uniqueness-Q-d<=12", failures, []))
    return checks


def _roundtrip(ps: list[int]) -> list[dict]:
    checks = []
    for p in ps:
        ctx = make_field(p)
        ext2 = make_field(p, 2)
        failures = []
        trips = 0
        for t in _admissible_types(p):
            L = multconst.lambda_map(ctx, t)
            h_l = lift_ratfunc(L.base.cover, ext2)
            done = 0
            for mu in ext2.elements():
                if done >= 3:
                    break
                try:
                    res = multconst.lift(L.base, mu, verify=False)
                except (InvalidMu, MixedContexts):
                    continue
                back = multconst.contract(res.cover.cover, res.lam, res.mu, verify=False)
                if back.cover != h_l:
                    failures.append([t.e1, t.e2, t.e3, jsonio.elem_str(mu)])
                done += 1
                trips += 1
        checks.append(_check(f"lift-contract-roundtrip-p{p}-{trips}-trips", failures, []))

        merge_failures = []
        for e3 in range(2, (p - 1) // 2 + 1):
            e4 = p + 1 - e3
            if not e3 < e4 < p:
                continue
            for fam in addconst.construct_family(p, e3, e4):
                fctx = fam.merged.f.ctx
                rho_inv_p = -(fam.rho ** p).inverse()
                c = next(
                    fctx.from_int(k)
                    for k in range(2, p)
                    if fctx.from_int(k) != rho_inv_p
                )
                tw = addconst.additive_twist(fam.merged, c)
                merged_back, _c2 = addconst.find_merging_c(
                    tw.cover.cover, fctx.one, fam.rho
                )
                if merged_back != fam.merged.f:
                    merge_failures.append([p, e3])
        checks.append(_check(f"merge-split-roundtrip-p{p}", merge_failures, []))
    return checks


def _partitions(n: int, parts: int, largest: int) -> int:
    """Number of partitions of n into exactly ``parts`` parts, each <= ``largest``."""
    if parts == 0:
        return int(n == 0)
    return sum(_partitions(n - j, parts - 1, j) for j in range(1, min(n, largest) + 1))


def _oracle(d_max: int) -> list[dict]:
    cap = symhurwitz.DEGREE_CAP
    if d_max > cap:
        # the enumeration would fail at degree cap + 1; fail before it starts
        raise DegreeTooLarge(f"degree {cap + 1} exceeds the enumeration cap {cap}")
    checks = []
    n_types = 0
    for d in range(3, d_max + 1):
        for es in itertools.combinations_with_replacement(range(2, d + 1), 4):
            if sum(es) != 2 * d + 2:
                continue
            r = symhurwitz.verify_min_formula(d, es)
            n_types += 1
            checks.append(
                _check(f"min-formula-d{d}-{'-'.join(map(str, es))}",
                       r["enumerated"], r["formula"])
            )
    # the types (d; e1..e4) with 2 <= e_i <= d and sum 2d + 2 are the
    # partitions of 2d - 2 into 4 parts e_i - 1 of size at most d - 1
    want_types = sum(_partitions(2 * d - 2, 4, d - 1) for d in range(3, d_max + 1))
    checks.append(_check(f"min-formula-type-count-d3-d{d_max}", n_types, want_types))

    naive_failures = []
    for d in range(3, 6):
        for es in itertools.combinations_with_replacement(range(2, d + 1), 4):
            if sum(es) != 2 * d + 2:
                continue
            if symhurwitz.enumerate_char0(d, es).count != symhurwitz.naive_orbit_count(d, es):
                naive_failures.append([d, *es])
    checks.append(_check("dedup-vs-naive-d<=5", naive_failures, []))

    ctx = make_field(5)
    L = multconst.lambda_map(ctx, multconst.FourPointType(5, 3, 2, 3))
    ext2 = make_field(5, 2)
    fiber_failures = []
    for lam0 in ext2.elements():
        if lam0.is_zero or lam0 == ext2.one:
            continue
        # the fiber polynomial has degree L.degree over F_25, so every root
        # of it has degree at most 2 * L.degree over F_5
        c = multconst.count_covers_at(L, lam0, 2 * L.degree)
        if multconst.is_supersingular_value(L, lam0):
            if not c < L.degree:
                fiber_failures.append([jsonio.elem_str(lam0), c])
        elif not multconst.is_critical_value(L, lam0):
            if c != L.degree:
                fiber_failures.append([jsonio.elem_str(lam0), c])
    checks.append(_check("fiber-count-F25-type-3-2-3", fiber_failures, []))
    return checks
