"""Deterministic JSON command line for cover construction and counting.

Every command prints exactly one JSON document on stdout.  Exit codes:
0 success, 1 usage error, 2 domain error (the document then is
{"error": <stable code>, "detail": ...}) or a verification document
with "all_pass": false.
All lists in the output are deterministically ordered, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import addconst, jsonio, multconst, symhurwitz, verify
from .errors import DomainError, UsageError
from .field import _is_digits, is_prime, make_field
from .poly import DEFAULT_EXT
from .threepoint import ThreePointSpec, solve_three_point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(flag: str):
    """The type of flag's integer tokens: each is read only in its printed
    form str(k), so ASCII digits with no sign, leading zero or whitespace."""

    def parse(s: str) -> int:
        try:
            if _is_digits(s) and str(k := int(s)) == s:
                return k
        except ValueError:  # a digit run too long for int()
            pass
        raise UsageError(f"bad {flag} {s!r}: expected an integer in its printed form, such as '7'")

    return parse


def _cycles(arity: int | None = None):
    """The --cycles type: comma-separated ints, exactly `arity` of them if given."""

    def parse(s: str) -> tuple[int, ...]:
        cycles = tuple(map(_int("--cycles entry"), s.split(",")))
        if arity is not None and len(cycles) != arity:
            raise UsageError(f"--cycles must have exactly {arity} entries, got {s!r}")
        return cycles

    return parse


def _ext(s: str) -> int:
    """The --ext type: a bound on extension degrees, at least 1."""
    k = _int("--ext")(s)
    if k < 1:
        raise UsageError(f"--ext must be at least 1, got {k}")
    return k


@functools.cache
def build_parser() -> _Parser:
    """The command table, built once per process: each subcommand declares
    its arguments and its body, which maps the parsed args to a document."""
    parser = _Parser(prog="tamecovers", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, body, help, ext=False, sweep=False):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", help="also write the JSON document to this path")
        sp.add_argument("--pretty", action="store_true", help="indent the output")
        if ext:
            sp.add_argument("--ext", type=_ext, default=DEFAULT_EXT,
                            help="maximum extension degree searched for roots")
        if sweep:
            sp.add_argument("--p", type=_int("--p"))
            sp.add_argument("--sweep", help="range syntax p=5..13")
            body = functools.partial(_run_sweepable, body)
        sp.set_defaults(body=body)
        return sp

    sp = add("hurwitz-char0", _cmd_hurwitz_char0,
             "characteristic-zero count: characters in genus 0, tuple enumeration otherwise")
    sp.add_argument("--d", type=_int("--d"), required=True)
    sp.add_argument("--cycles", type=_cycles(), required=True)

    sp = add("hurwitz-p", _cmd_hurwitz_p, "p-Hurwitz number of (d; e1,e2,e3,p-1), with checks",
             ext=True, sweep=True)
    sp.add_argument("--cycles", type=_cycles(), required=True, help="e1,e2,e3 or e1,e2,e3,p-1")

    sp = add("three-point", _cmd_three_point, "the unique normalized 3-point cover")
    sp.add_argument("--p", type=_int("--p"), required=True, help="prime, or 0 for Q")
    sp.add_argument("--cycles", type=_cycles(3), required=True)

    sp = add("lambda-map", _cmd_lambda_map, "the fourth-branch-point map of a 4-point type",
             ext=True, sweep=True)
    sp.add_argument("--cycles", type=_cycles(3), required=True)

    sp = add("lift", _cmd_lift, "extend the 3-point cover of a type through mu")
    sp.add_argument("--p", type=_int("--p"), required=True)
    sp.add_argument("--cycles", type=_cycles(3), required=True)
    sp.add_argument("--mu", required=True)

    sp = add("contract", _cmd_contract, "collapse the index-(p-1) point of a cover file")
    sp.add_argument("--p", type=_int("--p"), required=True)
    sp.add_argument("--cover", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--mu", required=True)

    sp = add("fiber-count", _cmd_fiber_count, "count covers over one lambda value", ext=True)
    sp.add_argument("--p", type=_int("--p"), required=True)
    sp.add_argument("--cycles", type=_cycles(3), required=True)
    sp.add_argument("--lambda", dest="lam", required=True)

    sp = add("bad-degree", _cmd_bad_degree, "covers with bad reduction, closed form", sweep=True)
    sp.add_argument("--cycles", type=_cycles(3), required=True)

    sp = add("additive-family", _cmd_additive_family,
             "merged covers of type (p+2; p+2,3,e3-e4)", sweep=True)
    sp.add_argument("--cycles", type=_cycles(2), required=True, help="e3,e4")

    sp = add("additive-twist", _cmd_additive_twist, "split a merged family with f + c*x^p")
    sp.add_argument("--p", type=_int("--p"), required=True)
    sp.add_argument("--cycles", type=_cycles(2), required=True, help="e3,e4")
    sp.add_argument("--c", required=True)

    sp = add("verify", _cmd_verify, "run a verification suite")
    sp.add_argument("--suite", required=True, choices=verify.SUITES)
    sp.add_argument("--p", type=_int("--p"))
    sp.add_argument("--p_max", type=_int("--p_max"))
    sp.add_argument("--d_max", type=_int("--d_max"))

    return parser


# ---------------------------------------------------------------------------
# command bodies


def _cmd_hurwitz_char0(args) -> dict:
    res = symhurwitz.hurwitz_char0(args.d, args.cycles)
    return {"count": res.count}


def _cmd_hurwitz_p(args, p: int) -> dict:
    if len(args.cycles) not in (3, 4):
        raise UsageError("--cycles must have 3 entries (or 4 ending in p-1)")
    if args.cycles[3:] not in ((), (p - 1,)):
        raise UsageError(f"fourth index must be p-1 = {p - 1}")
    t = multconst.FourPointType(p, *args.cycles[:3])
    h_p = multconst.p_hurwitz_4pt(t)
    if h_p == 0:
        return {"h_p": 0, "degree_check": None, "supersingular": []}
    L = multconst.lambda_map(make_field(p), t)
    return {
        "h_p": h_p,
        "degree_check": L.degree,
        "supersingular": verify.supersingular_strs(L, args.ext),
    }


def _cmd_three_point(args) -> dict:
    ctx = make_field(args.p)
    spec = ThreePointSpec(*args.cycles)
    nc = solve_three_point(ctx, spec)
    return jsonio.cover_json(nc.cover, [spec.d, spec.e1, spec.e2, spec.e3])


def _cmd_lambda_map(args, p: int) -> dict:
    t = multconst.FourPointType(p, *args.cycles)
    L = multconst.lambda_map(make_field(p), t)
    num, den = jsonio.ratfunc_strs(L.map)
    return {
        "p": p,
        "type": [t.e1, t.e2, t.e3],
        "tilde": [t.d_tilde, t.e1, t.e2, p - t.e3],
        "lambda_num": num,
        "lambda_den": den,
        "degree": L.degree,
        "supersingular": verify.supersingular_strs(L, args.ext),
    }


def _cmd_lift(args) -> dict:
    p = args.p
    t = multconst.FourPointType(p, *args.cycles)
    h = solve_three_point(make_field(p), t.tilde_spec)
    mu = jsonio.parse_cli_elem(p, args.mu)
    res = multconst.lift(h, mu)
    doc = jsonio.cover_json(res.cover.cover, [res.d, *res.indices])
    return {"cover": doc, "lambda": jsonio.elem_str(res.lam), "mu": jsonio.elem_str(res.mu)}


def _cmd_contract(args) -> dict:
    try:
        with open(args.cover, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise UsageError(f"cannot read cover file: {exc}")
    f = jsonio.cover_from_json(doc)
    ctx = f.ctx
    if ctx.characteristic != args.p:
        raise UsageError(f"--p {args.p} does not match the cover file's char {ctx.characteristic}")
    lam = jsonio.parse_cli_elem(args.p, args.lam, into=ctx)
    mu = jsonio.parse_cli_elem(args.p, args.mu, into=ctx)
    nc = multconst.contract(f, lam, mu)
    sc = nc.ram_type.single_cycle
    return jsonio.cover_json(nc.cover, [nc.ram_type.d, *(sc or ())])


def _cmd_fiber_count(args) -> dict:
    p = args.p
    t = multconst.FourPointType(p, *args.cycles)
    L = multconst.lambda_map(make_field(p), t)
    lam0 = jsonio.parse_cli_elem(p, args.lam)
    count = multconst.count_covers_at(L, lam0, args.ext)
    return {
        "lambda0": jsonio.elem_str(lam0),
        "count": count,
        "degree": L.degree,
        "supersingular": multconst.is_supersingular_value(L, lam0),
        "critical": multconst.is_critical_value(L, lam0),
    }


def _cmd_bad_degree(args, p: int) -> dict:
    res = multconst.bad_degree(p, args.cycles)
    return {
        "p": p,
        "type": [res.es[0], res.es[1], res.es[2], p - 1],
        "d": res.d,
        "h": res.h,
        "h_p": res.h_p,
        "bad": res.bad,
        "case": res.case,
        "quotient": res.quotient,
    }


def _family_entry(fam: addconst.AdditiveFamily) -> dict:
    entry = {
        "a": jsonio.elem_str(fam.a),
        "rho": jsonio.elem_str(fam.rho),
        "c": jsonio.elem_str(fam.c),
        "f_num": jsonio.poly_strs(fam.merged.f.num),
    }
    ctx = fam.merged.f.ctx
    if hasattr(ctx, "modulus"):
        entry["ext_modulus"] = list(ctx.modulus)
    return entry


def _cmd_additive_family(args, p: int) -> dict:
    e3, e4 = args.cycles
    fams = addconst.construct_family(p, e3, e4)
    return {
        "p": p,
        "e3": e3,
        "e4": e4,
        "families": [_family_entry(f) for f in fams],
        "h_p_4pt": len(fams),  # merged-type counts transfer unchanged to the split type
    }


def _cmd_additive_twist(args) -> dict:
    p = args.p
    e3, e4 = args.cycles
    fams = addconst.construct_family(p, e3, e4)
    results = []
    for i, fam in enumerate(fams):
        ctx = fam.merged.f.ctx
        c = jsonio.parse_cli_elem(p, args.c, into=ctx)
        tw = addconst.additive_twist(fam.merged, c)
        sc = tw.cover.ram_type.single_cycle
        results.append(
            {
                "family": i,
                "lambda": jsonio.elem_str(tw.lam),
                "cover": jsonio.cover_json(
                    tw.cover.cover, [tw.cover.ram_type.d, *(sorted(sc, reverse=True) if sc else ())]
                ),
            }
        )
    return {"p": p, "e3": e3, "e4": e4, "c": args.c, "results": results}


def _cmd_verify(args) -> dict:
    return verify.run_suite(args.suite, args.p, args.p_max, args.d_max)


# ---------------------------------------------------------------------------
# dispatch


def _parse_sweep(spec: str) -> list[int]:
    if not spec.startswith("p=") or ".." not in spec:
        raise UsageError(f"bad --sweep value {spec!r}, expected p=5..13")
    lo, hi = spec[2:].split("..", 1)
    lo, hi = map(_int("--sweep bound"), (lo, hi))
    primes = [p for p in range(lo, hi + 1) if is_prime(p)]
    if not primes:
        raise UsageError(f"--sweep {spec!r} holds no prime")
    return primes


def _run_sweepable(body, args) -> dict:
    """body(args, p) at --p, or at each prime of --sweep with errors inline."""
    if args.sweep:
        if args.p is not None:
            raise UsageError("--p and --sweep are mutually exclusive")
        points = []
        for p in _parse_sweep(args.sweep):
            try:
                points.append({"p": p, **body(args, p)})
            except DomainError as exc:
                points.append({"p": p, "error": exc.code, "detail": exc.detail})
        return {"sweep": points}
    if args.p is None:
        raise UsageError("--p is required (or use --sweep)")
    return body(args, args.p)


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc = args.body(args)
        text = json.dumps(doc, indent=2 if args.pretty else None)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise UsageError(f"cannot write --out file: {exc}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        out = json.dumps({"error": exc.code, "detail": exc.detail})
        print(out)
        return 2

    print(text)
    return 0 if doc.get("all_pass", True) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
