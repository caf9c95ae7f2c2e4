"""Reference arithmetic for checking tamecovers outputs.

Nothing here imports tamecovers: the checks must not share code with the
path being timed.  Polynomials are ascending coefficient lists with no
trailing zeros.  The field classes give F_p (plain ints), F_{p^n}
(ascending int tuples modulo the canonical modulus) and Q the same small
interface, and the ``poly_*`` functions work over any of them.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if is_prime(n)]


# ---------------------------------------------------------------------------
# fields with one interface


class PrimeF:
    def __init__(self, p: int):
        self.p = p
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def of_int(self, k: int):
        return k % self.p

    def parse(self, s: str):
        v = int(s)
        if not 0 <= v < self.p or s != str(v):
            raise ValueError(f"bad F_{self.p} literal {s!r}")
        return v

    def fmt(self, a) -> str:
        return str(a)


class RationalF:
    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def of_int(self, k: int):
        return Fraction(k)

    def parse(self, s: str):
        """Integer literals only: covers over Q are printed cleared."""
        v = int(s)
        if s != str(v):
            raise ValueError(f"bad integer literal {s!r}")
        return Fraction(v)


class ExtF:
    """F_{p^n} = F_p[t] / (canonical modulus)."""

    _cache: dict = {}

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        key = (p, n)
        if key not in ExtF._cache:
            ExtF._cache[key] = canonical_modulus(p, n)
        self.modulus = ExtF._cache[key]
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        n, p, m = self.n, self.p, self.modulus
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(n):
                    prod[k - n + i] -= c * m[i]
        return tuple(v % p for v in prod[:n])

    def pow(self, a, e: int):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.p ** self.n - 2)

    def of_int(self, k: int):
        return (k % self.p,) + (0,) * (self.n - 1)

    def parse(self, s: str):
        """Dense descending form c_{n-1}*t^{n-1}+...+c_1*t+c_0."""
        terms = s.split("+")
        if len(terms) != self.n:
            raise ValueError(f"{s!r} does not have {self.n} terms")
        coeffs = []
        for k, term in zip(range(self.n - 1, -1, -1), terms):
            want = "" if k == 0 else "*t" if k == 1 else f"*t^{k}"
            if not term.endswith(want):
                raise ValueError(f"bad term {term!r} in {s!r}")
            c = term[: len(term) - len(want)]
            if not c.isdigit() or int(c) >= self.p:
                raise ValueError(f"bad coefficient in {s!r}")
            coeffs.append(int(c))
        return tuple(reversed(coeffs))

    def fmt(self, a) -> str:
        parts = []
        for k in range(self.n - 1, -1, -1):
            parts.append(str(a[k]) + ("" if k == 0 else "*t" if k == 1 else f"*t^{k}"))
        return "+".join(parts)


# ---------------------------------------------------------------------------
# polynomials over any of the fields above


def poly_trim(F, a: list) -> list:
    while a and a[-1] == F.zero:
        a.pop()
    return a


def poly_sub(F, a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [F.zero] * (n - len(a))
    b = b + [F.zero] * (n - len(b))
    return poly_trim(F, [F.sub(x, y) for x, y in zip(a, b)])


def poly_scale(F, a: list, c) -> list:
    return poly_trim(F, [F.mul(x, c) for x in a])


def poly_mul(F, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != F.zero:
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return poly_trim(F, out)


def poly_divmod(F, a: list, b: list) -> tuple[list, list]:
    r = list(a)
    inv = F.inv(b[-1])
    nb = len(b)
    q = [F.zero] * max(0, len(r) - nb + 1)
    for k in range(len(r) - nb, -1, -1):
        c = F.mul(r[k + nb - 1], inv)
        if c != F.zero:
            q[k] = c
            for i, y in enumerate(b):
                r[k + i] = F.sub(r[k + i], F.mul(c, y))
    return poly_trim(F, q), poly_trim(F, r[: nb - 1])


def poly_gcd(F, a: list, b: list) -> list:
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    return poly_scale(F, a, F.inv(a[-1])) if a else a


def poly_deriv(F, a: list) -> list:
    return poly_trim(F, [F.mul(F.of_int(i), c) for i, c in enumerate(a)][1:])


def poly_eval(F, a: list, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def ord_at(F, a: list, x) -> int:
    """Order of vanishing of a nonzero polynomial at x (synthetic division)."""
    if not a:
        raise ValueError("order of vanishing of the zero polynomial")
    m = 0
    while True:
        acc, quot = F.zero, []
        for c in reversed(a):
            acc = F.add(F.mul(acc, x), c)
            quot.append(acc)
        if acc != F.zero:
            return m
        a = poly_trim(F, list(reversed(quot[:-1])))
        m += 1


def lift(F, a: list[int]) -> list:
    """Embed an F_p polynomial into F."""
    return [F.of_int(c) for c in a]


# ---------------------------------------------------------------------------
# roots over finite fields, by field degree over F_p


def poly_powmod(F, base: list, e: int, mod: list) -> list:
    result = [F.one]
    base = poly_divmod(F, base, mod)[1]
    while e:
        if e & 1:
            result = poly_divmod(F, poly_mul(F, result, base), mod)[1]
        e >>= 1
        if e:
            base = poly_divmod(F, poly_mul(F, base, base), mod)[1]
    return poly_divmod(F, result, mod)[1]


def squarefree_part(F, f: list) -> list:
    """f / gcd(f, f'), whose roots are the distinct roots of f.

    That holds when every multiplicity is below the characteristic, which
    deg f < p guarantees.
    """
    if len(f) - 1 >= F.p:
        raise ValueError("squarefree part is only implemented for deg f < p")
    if len(f) <= 1:
        return f
    return poly_divmod(F, f, poly_gcd(F, f, poly_deriv(F, f)))[0]


def radical_degree(F, f: list) -> int:
    """Number of distinct roots of f in the algebraic closure of F_p."""
    return max(len(squarefree_part(F, f)) - 1, 0)


def roots_within(F, f: list, k: int) -> int:
    """Number of distinct roots of f whose degree over F_p is at most k.

    Distinct-degree splitting of the squarefree part: once the roots in
    smaller fields are divided out, the roots of degree exactly j are those
    of gcd(x^(p^j) - x, rest).  Works for coefficients in any F_{p^n}.
    """
    x = [F.zero, F.one]
    rest, xq, count = squarefree_part(F, f), x, 0
    for _j in range(k):
        if len(rest) <= 1:
            break
        xq = poly_powmod(F, xq, F.p, rest)
        g = poly_gcd(F, poly_sub(F, xq, x), rest)
        if len(g) > 1:
            count += len(g) - 1
            rest = poly_divmod(F, rest, g)[0]
            xq = poly_divmod(F, xq, rest)[1]
    return count


def is_irreducible(F, f: list) -> bool:
    """Monic f of degree n is irreducible iff it has no factor of degree
    j <= n/2, i.e. gcd(x^(p^j) - x, f) = 1 for those j."""
    n = len(f) - 1
    x = [F.zero, F.one]
    xq = x
    for _j in range(n // 2):
        xq = poly_powmod(F, xq, F.p, f)
        if len(poly_gcd(F, poly_sub(F, xq, x), f)) > 1:
            return False
    return n >= 1


def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """The modulus tamecovers documents for F_{p^n}: the first monic
    irreducible of degree n when the lower coefficients count upwards with
    the constant term fastest."""
    for idx in range(p ** n):
        lower = [(idx // p ** pos) % p for pos in range(n)]
        if is_irreducible(PrimeF(p), lower + [1]):
            return tuple(lower + [1])
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{p}")


# ---------------------------------------------------------------------------
# the normalized three-point cover


def kernel(rows: list[list], F) -> list[list]:
    """Kernel basis of a matrix over F by Gauss-Jordan elimination."""
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != F.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(v, inv) for v in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != F.zero:
                m[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F.zero] * ncols
        vec[fc] = F.one
        for r, pc in enumerate(pivots):
            vec[pc] = F.sub(F.zero, m[r][fc])
        basis.append(vec)
    return basis


def three_point(F, e1: int, e2: int, e3: int) -> tuple[list, list]:
    """(num, den) of the cover y^e1 A / B of type (d; e1, e2, e3), B monic.

    Unknowns are the coefficients of A (degree d-e1) and B (degree d-e3);
    the conditions are that y^e1 A - B vanishes to order e2 at y = 1, i.e.
    its Hasse derivatives of order k < e2 at 1 are zero:
    sum_i A_i C(i+e1, k) - sum_j B_j C(j, k) = 0.
    """
    d = (e1 + e2 + e3 - 1) // 2
    na, nb = d - e1 + 1, d - e3 + 1
    rows = [
        [F.of_int(math.comb(i + e1, k)) for i in range(na)]
        + [F.of_int(-math.comb(j, k)) for j in range(nb)]
        for k in range(e2)
    ]
    basis = kernel(rows, F)
    if len(basis) != 1:
        raise ValueError(f"kernel dimension {len(basis)} for ({d}; {e1},{e2},{e3})")
    A, B = basis[0][:na], basis[0][na:]
    inv = F.inv(B[-1])
    num = [F.zero] * e1 + [F.mul(a, inv) for a in A]
    return poly_trim(F, num), poly_trim(F, [F.mul(b, inv) for b in B])


def cleared_ints(num: list, den: list) -> tuple[list[int], list[int]]:
    """Integer scaling of a rational function over Q: coprime integer
    coefficients with a positive leading denominator coefficient."""
    fracs = list(num) + list(den)
    lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * lcm) for f in fracs]
    g = math.gcd(*ints) or 1
    sign = -1 if den[-1] < 0 else 1
    ints = [sign * v // g for v in ints]
    return ints[: len(num)], ints[len(num):]


def lambda_map(hn: list[int], hd: list[int], p: int) -> tuple[list[int], list[int]]:
    """Reduced mu -> mu^p (hd - hn) / (mu^p hd - hn), monic denominator."""
    F = PrimeF(p)
    yp = [0] * p + [1]
    num = poly_mul(F, yp, poly_sub(F, hd, hn))
    den = poly_sub(F, poly_mul(F, yp, hd), hn)
    g = poly_gcd(F, num, den)
    num, den = poly_divmod(F, num, g)[0], poly_divmod(F, den, g)[0]
    inv = F.inv(den[-1])
    return poly_scale(F, num, inv), poly_scale(F, den, inv)
