"""Output checks for every command the workloads send.

Each check recomputes what it needs with ``refmath`` from the request's
argv alone, never with tamecovers.  A check returns one of

* ``OK``;
* ``TRUNCATED`` -- the output is exactly right up to the ``--ext`` bound
  but silently misses roots beyond it (the known defect that the program
  documents as ROADMAP item 3); the request counts as failed;
* ``WRONG`` -- anything else: wrong exit code, bad JSON shape or a value
  that disagrees with the reference.
"""

from __future__ import annotations

import functools
import json

import refmath as R

OK, TRUNCATED, WRONG = "ok", "truncated", "wrong"
DEFAULT_EXT = 6


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _keys(doc, keys) -> None:
    _expect(isinstance(doc, dict) and sorted(doc) == sorted(keys),
            f"keys {sorted(doc) if isinstance(doc, dict) else type(doc).__name__}")


def _opts(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _cycles(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(","))


@functools.lru_cache(maxsize=None)
def _tilde_cover(p: int, e1: int, e2: int, e3: int) -> tuple[list[int], list[int]]:
    """The 3-point cover h of the tilde type (e1, e2, p - e3) over F_p."""
    return R.three_point(R.PrimeF(p), e1, e2, p - e3)


def _closed_form(p: int, es) -> int:
    return (3 * p - 1 - sum(es)) // 2


def _parse_elem(p: int, s: str):
    """(field, element) from a literal, inferring the field as the CLI does."""
    if "t" not in s:
        F = R.PrimeF(p)
    else:
        F = R.ExtF(p, s.count("+") + 1)
    return F, F.parse(s)


def _parse_poly(F, strs) -> list:
    _expect(isinstance(strs, list) and all(isinstance(s, str) for s in strs), "coefficient list")
    coeffs = [F.parse(s) for s in strs]
    _expect(bool(coeffs) and coeffs[-1] != F.zero, "trailing zero coefficient")
    return coeffs


def _deg(a: list) -> int:
    return len(a) - 1


# ---------------------------------------------------------------------------
# per command


def _three_point(argv, doc) -> str:
    o = _opts(argv)
    p, es = int(o["--p"]), _cycles(o["--cycles"])
    d = (sum(es) - 1) // 2
    _keys(doc, ["char", "num", "den", "type"])
    _expect(doc["char"] == p and doc["type"] == [d, *es], "char or type")
    F = R.RationalF() if p == 0 else R.PrimeF(p)
    num, den = _parse_poly(F, doc["num"]), _parse_poly(F, doc["den"])
    _expect(_deg(num) == d and _deg(den) == d - es[2], "degrees of num and den")
    _expect(R.ord_at(F, num, F.zero) == es[0], "order of num at 0")
    _expect(R.ord_at(F, R.poly_sub(F, num, den), F.one) == es[1], "order of num - den at 1")
    ref_num, ref_den = R.three_point(F, *es)
    if p == 0:
        ref_num, ref_den = R.cleared_ints(ref_num, ref_den)
    _expect(doc["num"] == [str(c) for c in ref_num] and doc["den"] == [str(c) for c in ref_den],
            "cover differs from the reference solve")
    return OK


def _supersingular(values, hd: list[int], p: int, ext: int, bounded: bool) -> str:
    """The values r^p for roots r of h.den: each is a root of h.den (which
    has F_p coefficients, so Frobenius permutes its roots), they are
    distinct, and they are all roots of degree <= ext.  Without an explicit
    --ext the list must be the whole locus, #supersingular = deg rad(h.den)."""
    _expect(isinstance(values, list) and len(set(values)) == len(values), "supersingular list")
    for s in values:
        F, v = _parse_elem(p, s)
        _expect(R.poly_eval(F, R.lift(F, hd), v) == F.zero, f"{s} is not a pole of h")
    F = R.PrimeF(p)
    _expect(len(values) == R.roots_within(F, hd, ext), "supersingular count within --ext")
    if not bounded and len(values) < R.radical_degree(F, hd):
        return TRUNCATED
    return OK


def _lambda_map(argv, doc) -> str:
    o = _opts(argv)
    p, es = int(o["--p"]), _cycles(o["--cycles"])
    ext = int(o.get("--ext", DEFAULT_EXT))
    d = (sum(es) + p - 3) // 2
    _keys(doc, ["p", "type", "tilde", "lambda_num", "lambda_den", "degree", "supersingular"])
    _expect(doc["p"] == p and doc["type"] == list(es), "p or type")
    _expect(doc["tilde"] == [d + 1 - es[2], es[0], es[1], p - es[2]], "tilde type")
    hn, hd = _tilde_cover(p, *es)
    N, D = R.lambda_map(hn, hd, p)
    _expect(doc["lambda_num"] == [str(c) for c in N] and doc["lambda_den"] == [str(c) for c in D],
            "lambda map differs from mu^p (1 - h) / (mu^p - h)")
    _expect(doc["degree"] == max(_deg(N), _deg(D)) == _closed_form(p, es), "degree")
    return _supersingular(doc["supersingular"], hd, p, ext, "--ext" in o)


def _hurwitz_p(argv, doc) -> str:
    o = _opts(argv)
    p, es = int(o["--p"]), _cycles(o["--cycles"])
    _keys(doc, ["h_p", "degree_check", "supersingular"])
    _expect(doc["h_p"] == doc["degree_check"] == _closed_form(p, es),
            "h_p, degree_check and (3p-1-E)/2 disagree")
    hd = _tilde_cover(p, *es)[1]
    ext = int(o.get("--ext", DEFAULT_EXT))
    return _supersingular(doc["supersingular"], hd, p, ext, "--ext" in o)


def _valid_fiber_roots(F, fiber: list, hn: list, hd: list, p: int, ext: int) -> int:
    """Roots mu of the fiber polynomial of degree <= ext over F_p that lift
    accepts: mu not 0 or 1, not a zero or pole of h or of h - 1, and
    h(mu) != mu^p."""
    rest = R.squarefree_part(F, fiber)
    yp = [F.zero] * p + [F.one]
    rejected = ([F.zero, F.one], [F.sub(F.zero, F.one), F.one], hn, R.poly_sub(F, hn, hd), hd,
                R.poly_sub(F, R.poly_mul(F, yp, hd), hn))
    for bad in rejected:
        rest = R.poly_divmod(F, rest, R.poly_gcd(F, rest, bad))[0]
    return R.roots_within(F, rest, ext)


def _fiber_count(argv, doc) -> str:
    """The count must equal the reference count of valid roots within
    --ext; an exact count below the degree over a lambda that is neither
    critical nor supersingular is the --ext truncation."""
    o = _opts(argv)
    p, es = int(o["--p"]), _cycles(o["--cycles"])
    ext = int(o.get("--ext", DEFAULT_EXT))
    _keys(doc, ["lambda0", "count", "degree", "supersingular", "critical"])
    _expect(doc["lambda0"] == o["--lambda"], "lambda0 echo")
    _expect(doc["degree"] == _closed_form(p, es), "degree")
    F, lam = _parse_elem(p, o["--lambda"])
    hn, hd = _tilde_cover(p, *es)
    N, D = (R.lift(F, a) for a in R.lambda_map(hn, hd, p))
    hn, hd = R.lift(F, hn), R.lift(F, hd)
    fiber = R.poly_sub(F, N, R.poly_scale(F, D, lam))
    critical = _deg(R.poly_gcd(F, fiber, R.poly_deriv(F, fiber))) > 0
    supersingular = R.poly_eval(F, hd, lam) == F.zero
    _expect(doc["critical"] is critical, "critical flag")
    _expect(doc["supersingular"] is supersingular, "supersingular flag")
    count = doc["count"]
    _expect(type(count) is int and 0 <= count <= doc["degree"], "count exceeds the degree")
    expected = _valid_fiber_roots(F, fiber, hn, hd, p, ext)
    _expect(count == expected, f"count {count}, reference count within --ext {ext} is {expected}")
    if not critical and not supersingular and count < doc["degree"]:
        return TRUNCATED
    return OK


def _ext2(p: int, cover: dict):
    _expect(cover.get("ext_modulus") == list(R.canonical_modulus(p, 2)), "extension modulus")
    return R.ExtF(p, 2)


def _lift(argv, doc) -> str:
    o = _opts(argv)
    p, es = int(o["--p"]), _cycles(o["--cycles"])
    d = (sum(es) + p - 3) // 2
    _keys(doc, ["cover", "lambda", "mu"])
    _expect(doc["mu"] == o["--mu"], "mu echo")
    cover = doc["cover"]
    _keys(cover, ["char", "ext_modulus", "num", "den", "type"])
    _expect(cover["char"] == p and cover["type"] == [d, *es, p - 1], "char or type")
    F = _ext2(p, cover)
    mu = F.parse(o["--mu"])
    hn, hd = (R.lift(F, a) for a in _tilde_cover(p, *es))
    h = F.mul(R.poly_eval(F, hn, mu), F.inv(R.poly_eval(F, hd, mu)))
    mup = F.pow(mu, p)
    lam = F.mul(F.mul(mup, F.sub(F.one, h)), F.inv(F.sub(mup, h)))
    _expect(doc["lambda"] == F.fmt(lam), "lambda = mu^p (1 - h(mu)) / (mu^p - h(mu))")
    num, den = _parse_poly(F, cover["num"]), _parse_poly(F, cover["den"])
    _expect(den[-1] == F.one and _deg(num) == d and _deg(num) - _deg(den) == es[2],
            "degrees, or den not monic")
    _expect(R.ord_at(F, num, F.zero) == es[0], "index at 0")
    _expect(R.ord_at(F, R.poly_sub(F, num, den), F.one) == es[1], "index at 1")
    _expect(R.ord_at(F, R.poly_sub(F, num, R.poly_scale(F, den, lam)), mu) == p - 1,
            "index p-1 at mu")
    return OK


def _contract(argv, doc, lift_argv) -> str:
    o, lo = _opts(argv), _opts(lift_argv)
    p, es = int(o["--p"]), _cycles(lo["--cycles"])
    _expect(o["--mu"] == lo["--mu"], "contract of another lift")
    d = (sum(es) + p - 3) // 2
    _keys(doc, ["char", "ext_modulus", "num", "den", "type"])
    _expect(doc["char"] == p and doc["type"] == [d + 1 - es[2], es[0], es[1], p - es[2]],
            "char or type")
    F = _ext2(p, doc)
    hn, hd = _tilde_cover(p, *es)
    _expect(doc["num"] == [F.fmt(F.of_int(c)) for c in hn]
            and doc["den"] == [F.fmt(F.of_int(c)) for c in hd],
            "contract(lift(h, mu)) is not h")
    return OK


def _additive_twist(argv, doc) -> str:
    o = _opts(argv)
    p, (e3, e4) = int(o["--p"]), _cycles(o["--cycles"])
    _keys(doc, ["p", "e3", "e4", "c", "results"])
    _expect([doc["p"], doc["e3"], doc["e4"], doc["c"]] == [p, e3, e4, o["--c"]], "echo")
    results = doc["results"]
    _expect(isinstance(results, list) and len(results) in (1, 2), "one or two families")
    for i, res in enumerate(results):
        _keys(res, ["family", "lambda", "cover"])
        cover = res["cover"]
        _expect(res["family"] == i and cover.get("char") == p, "family index or char")
        _expect(cover["type"] == [p + 2] + sorted([p + 2, 3, e3, e4], reverse=True), "type")
        if "ext_modulus" in cover:
            _keys(cover, ["char", "ext_modulus", "num", "den", "type"])
            F = _ext2(p, cover)
        else:
            _keys(cover, ["char", "num", "den", "type"])
            F = R.PrimeF(p)
        g, den = _parse_poly(F, cover["num"]), _parse_poly(F, cover["den"])
        # g is a polynomial of degree p+2 (index p+2 at infinity) with g(0) = 0
        # to order 3 and g(1) = 1 to order e3; then g' = lc * y^2 (y-1)^(e3-1)
        # (y-rho)^(e4-1) names the fourth ramification point rho.
        _expect(den == [F.one] and _deg(g) == p + 2, "not a polynomial of degree p+2")
        _expect(R.ord_at(F, g, F.zero) == 3, "index 3 at 0")
        _expect(R.ord_at(F, R.poly_sub(F, g, [F.one]), F.one) == e3, "index e3 at 1")
        known = R.poly_mul(F, [F.zero, F.zero, F.one],
                           _power(F, [F.sub(F.zero, F.one), F.one], e3 - 1))
        q, r = R.poly_divmod(F, R.poly_deriv(F, g), known)
        _expect(not r and _deg(q) == e4 - 1, "derivative does not factor as the type needs")
        rho = F.sub(F.zero, F.mul(q[-2], F.inv(F.mul(F.of_int(e4 - 1), q[-1]))))
        _expect(rho not in (F.zero, F.one) and R.ord_at(F, q, rho) == e4 - 1, f"index {e4} at rho")
        _expect(res["lambda"] == F.fmt(R.poly_eval(F, g, rho)), "lambda = g(rho)")
    return OK


def _power(F, a: list, k: int) -> list:
    out = [F.one]
    for _ in range(k):
        out = R.poly_mul(F, out, a)
    return out


def _hurwitz_char0(argv, doc) -> str:
    o = _opts(argv)
    d, es = int(o["--d"]), _cycles(o["--cycles"])
    _keys(doc, ["count"])
    _expect(doc["count"] == min(e * (d + 1 - e) for e in es), "count != min e_i (d+1-e_i)")
    return OK


_CHECKS = {
    "three-point": _three_point,
    "lambda-map": _lambda_map,
    "hurwitz-p": _hurwitz_p,
    "fiber-count": _fiber_count,
    "lift": _lift,
    "additive-twist": _additive_twist,
    "hurwitz-char0": _hurwitz_char0,
}


def check(argv: list[str], rc, stdout: str, prev_argv=None) -> tuple[str, str]:
    """(status, reason) for one request; prev_argv is the lift a contract
    request consumed."""
    if rc != 0:
        return WRONG, f"exit code {rc}"
    try:
        doc = json.loads(stdout)
        if argv[0] == "contract":
            return _contract(argv, doc, prev_argv), ""
        return _CHECKS[argv[0]](argv, doc), ""
    except Mismatch as exc:
        return WRONG, str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return WRONG, f"malformed output: {type(exc).__name__}: {exc}"
