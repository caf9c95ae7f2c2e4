"""Verification suites: the paper's worked examples and closed forms,
each checked against an independent construction or brute-force oracle.

``run_suite`` returns one JSON-ready document per suite; every check in it
records what was computed ("got") next to what the paper predicts ("want").
"""

from __future__ import annotations

import itertools

from . import addconst, jsonio, multconst, symhurwitz
from .errors import DegreeTooLarge, DomainError, FormulaMismatch, InvalidMu, MixedContexts, UsageError
from .field import is_prime, make_field
from .poly import DEFAULT_EXT, lift_ratfunc
from .threepoint import ThreePointSpec, solve_three_point

SUITES = ("paper-examples", "formulas", "roundtrip", "oracle")


def supersingular_strs(L: multconst.LambdaMap, ext: int) -> list[str]:
    """The supersingular values of L up to extension degree ext, as text."""
    return [jsonio.elem_str(s) for s in multconst.supersingular_values(L, ext)]


def run_suite(suite: str, p: int | None = None, p_max: int = 13, d_max: int = 8,
              ext: int = DEFAULT_EXT) -> dict:
    """Run one named suite; ``all_pass`` in the result is True exactly when
    every check passed."""
    if suite == "paper-examples":
        checks = _paper_examples(p or 5, ext)
    elif suite == "formulas":
        checks = _formulas(p_max)
    elif suite == "roundtrip":
        checks = _roundtrip([p] if p else [5, 7])
    elif suite == "oracle":
        checks = _oracle(d_max, ext)
    else:
        raise UsageError(f"unknown suite {suite!r}, expected one of {', '.join(SUITES)}")
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


def _primes_upto(p_max: int, start: int = 5) -> list[int]:
    return [p for p in range(start, p_max + 1) if is_prime(p)]


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


def _paper_examples(p: int, ext: int) -> list[dict]:
    checks = []
    ctx = make_field(p)
    QQ = make_field(0)

    t_a = multconst.FourPointType(p, 2, 2, p - 3)
    L_a = multconst.lambda_map(ctx, t_a)
    checks.append(_check(f"example-a-degree-p{p}", L_a.degree, p - 1))
    checks.append(_check(f"example-a-supersingular-p{p}", supersingular_strs(L_a, ext), []))
    checks.append(_check(f"example-a-bad-degree-p{p}",
                         multconst.bad_degree(p, (2, 2, p - 3)).bad, 0))

    h_q = solve_three_point(QQ, ThreePointSpec(3, 2, 2))
    num, den = jsonio.ratfunc_strs(h_q.cover)
    checks.append(_check("example-b-cover-Q", [num, den], [["0", "0", "0", "1"], ["-2", "3"]]))
    t_b = multconst.FourPointType(p, 3, 2, p - 2)
    L_b = multconst.lambda_map(ctx, t_b)
    checks.append(_check(f"example-b-degree-p{p}", L_b.degree, p - 2))
    two_thirds = ctx.from_int(2) / ctx.from_int(3)
    checks.append(_check(f"example-b-supersingular-p{p}", supersingular_strs(L_b, ext),
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
    for p in _primes_upto(p_max):
        ctx = make_field(p)
        mismatches = []
        types = _admissible_types(p)
        for t in types:
            try:
                multconst.lambda_map(ctx, t)  # checks deg(lambda) against the closed form
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


def _oracle(d_max: int, ext: int) -> list[dict]:
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
    checks.append(_check("min-formula-type-count>=20", n_types >= 20, True))

    naive_failures = []
    for d in range(3, 6):
        for es in itertools.combinations_with_replacement(range(2, d + 1), 4):
            if sum(es) != 2 * d + 2:
                continue
            if symhurwitz.hurwitz_char0(d, es).count != symhurwitz.naive_orbit_count(d, es):
                naive_failures.append([d, *es])
    checks.append(_check("dedup-vs-naive-d<=5", naive_failures, []))

    ctx = make_field(5)
    L = multconst.lambda_map(ctx, multconst.FourPointType(5, 3, 2, 3))
    ext2 = make_field(5, 2)
    fiber_failures = []
    for lam0 in ext2.elements():
        if lam0.is_zero or lam0 == ext2.one:
            continue
        c = multconst.count_covers_at(L, lam0, ext)
        if multconst.is_supersingular_value(L, lam0):
            if not c < L.degree:
                fiber_failures.append([jsonio.elem_str(lam0), c])
        elif not multconst.is_critical_value(L, lam0):
            if c != L.degree:
                fiber_failures.append([jsonio.elem_str(lam0), c])
    checks.append(_check("fiber-count-F25-type-3-2-3", fiber_failures, []))
    return checks
