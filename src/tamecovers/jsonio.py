"""JSON forms of elements, polynomials and covers.

Every element is serialized through its exact text form, which is
self-describing: a bare integer string for prime fields, "num/den" over
the rationals, and the dense descending extension form whose term count
equals the extension degree.  Coefficient lists are ascending.  Covers over
Q are emitted with cleared integer coefficients (the internal form keeps a
monic denominator); both scalings reduce to the same rational function on
input.
"""

from __future__ import annotations

from .errors import UsageError
from .field import ExtField, FieldCtx, FieldElem, make_field
from .poly import Poly, RatFunc, clear_denominators


def elem_str(e: FieldElem) -> str:
    return e.ctx.format(e.raw)


def poly_strs(f: Poly) -> list[str]:
    return [elem_str(c) for c in f.coeffs]


def poly_from_strs(ctx: FieldCtx, strs) -> Poly:
    return Poly.from_elems(ctx, [ctx.parse(s) for s in strs])


def _cleared_int_strs(rf: RatFunc) -> tuple[list[str], list[str]]:
    """Integer-coefficient scaling of a rational function over Q."""
    ints = clear_denominators(rf.num.raw + rf.den.raw)
    nn = len(rf.num.raw)
    # den is monic and scaled by a positive lcm over a positive gcd, so lc(den) > 0
    return [str(v) for v in ints[:nn]], [str(v) for v in ints[nn:]]


def ratfunc_strs(rf: RatFunc) -> tuple[list[str], list[str]]:
    if rf.ctx.characteristic == 0:
        return _cleared_int_strs(rf)
    return poly_strs(rf.num), poly_strs(rf.den)


def cover_json(rf: RatFunc, type_seq) -> dict:
    ctx = rf.ctx
    num, den = ratfunc_strs(rf)
    doc = {"char": ctx.characteristic}
    if isinstance(ctx, ExtField):
        doc["ext_modulus"] = list(ctx.modulus)
    doc["num"] = num
    doc["den"] = den
    doc["type"] = [int(v) for v in type_seq]
    return doc


def ctx_from_json(doc: dict) -> FieldCtx:
    char = doc.get("char", 0)
    if type(char) is not int:
        raise UsageError(f"cover file char {char!r} is not an integer")
    if char == 0:
        return make_field(0)
    modulus = doc.get("ext_modulus")
    if modulus is None:
        return make_field(char)
    if not (isinstance(modulus, list) and len(modulus) >= 3
            and all(type(c) is int for c in modulus)):
        raise UsageError(
            f"cover file ext_modulus {modulus!r} is not a list of at least 3 integers"
        )
    ctx = make_field(char, len(modulus) - 1)
    if tuple(modulus) != ctx.modulus:
        raise UsageError(
            f"cover file modulus {modulus} is not the canonical modulus {list(ctx.modulus)}"
        )
    return ctx


def cover_from_json(doc) -> RatFunc:
    """The cover of a document written by cover_json; its "type" is not read."""
    if not isinstance(doc, dict):
        raise UsageError(f"cover file holds a JSON {type(doc).__name__}, not an object")
    ctx = ctx_from_json(doc)
    polys = []
    for key in ("num", "den"):
        strs = doc.get(key)
        if not (isinstance(strs, list) and all(isinstance(s, str) for s in strs)):
            raise UsageError(f"cover file {key} {strs!r} is not a list of element strings")
        polys.append(poly_from_strs(ctx, strs))
    return RatFunc.make(*polys)


def parse_cli_elem(p: int, s: str, into: FieldCtx | None = None) -> FieldElem:
    """Parse an element literal, inferring its field from the text form,
    and embed it into ``into`` when that is given.

    Over p = 0 the literal is rational; otherwise a bare integer is a
    prime-field element and a dense "...*t..." literal lives in the
    extension whose degree is its term count.  The form is checked first:
    it needs only p and n, so a malformed literal costs no modulus search.
    """
    if p and "t" in s:
        n = s.count("+") + 1
        ExtField(p, n).parse(s)
        e = make_field(p, n).parse(s)
    else:
        e = make_field(p).parse(s)
    return e if into is None else e.lift_to(into)
