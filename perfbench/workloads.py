"""Seeded request generators for the four benchmark workloads.

A workload is a fixed catalogue of requests, drawn once from the
workload's input space with CATALOGUE_SEED and stratified by prime.  A run
replays the catalogue in passes; the run's --seed shuffles each pass and
draws the parameters that do not drive the cost (mu, lambda and c in
``tower``).  The catalogue is fixed because per-request cost varies by
three orders of magnitude between types of one prime (hurwitz-p at p = 29
takes 8 ms to 3.9 s), so a fresh draw per seed would make the seed-to-seed
spread of every end-to-end metric measure the draw, not the program.  A
pass is sized to take about one run at the seed commit, so requests do not
repeat within a run unless the input space is smaller (``char0``).

Why each workload exists:

* ``sweep`` -- lambda-map at --ext 1 and three-point over F_P and Q, 3:1,
  the shape of ``verify --suite formulas``: kernel solves and polynomial
  algebra in the base field, almost no extension-field arithmetic.
* ``tower`` -- lift, contract, fiber-count and additive-twist per draw, the
  shape of ``verify --suite roundtrip``: the same polynomial layer with
  F_{P^2} coefficients.
* ``supersingular`` -- hurwitz-p at the default --ext, where root finding
  in F_{P^k} dominates.
* ``char0`` -- hurwitz-char0 on every genus-0 4-point type with 5 <= d <= 8,
  the only workload that enumerates permutation tuples.
"""

from __future__ import annotations

import itertools
import math
import random

import refmath as R

WORKLOADS = ("sweep", "tower", "supersingular", "char0")
CATALOGUE_SEED = "tamecovers-perfbench-1"

SWEEP_PRIMES = R.primes_in(23, 101)
SWEEP_ROUNDS = 5  # rounds of 36 requests: every prime twice, 27 lambda-map : 9 three-point
TOWER_PRIMES = R.primes_in(13, 43)
TOWER_DRAWS = 12  # every prime once, then primes drawn at random
SUPERSINGULAR_PRIMES = R.primes_in(17, 37)
SUPERSINGULAR_ROUNDS = 7  # types per prime
CHAR0_COPIES = 2  # copies of the 38 types per pass: the input space is smaller than a run
Q_MAX_DEGREE = 12  # the degree range verify --suite formulas solves over Q

# contract reads the cover that the preceding lift printed; the runner
# writes it to COVER_FILE and puts the lambda that lift printed in place
# of FROM_LIFT
COVER_FILE = "perfbench/.work/cover.json"
FROM_LIFT = "{lambda from lift}"


def _csv(es) -> str:
    return ",".join(map(str, es))


def admissible_type(rng: random.Random, p: int) -> tuple[int, int, int]:
    """Uniform draw from the 4-point types (e1, e2, e3) with a positive
    p-Hurwitz number: 1 < e_i < p, E even, e3 != p-1 and
    p+1 <= E <= p-1+2*min(e_i)."""
    while True:
        es = tuple(rng.randint(2, p - 1) for _ in range(3))
        E = sum(es)
        if E % 2 == 0 and es[2] != p - 1 and p + 1 <= E <= p - 1 + 2 * min(es):
            return es


def three_point_type(rng: random.Random, d_max: int) -> tuple[int, int, int]:
    """Uniform draw from the genus-0 3-point types of degree <= d_max."""
    while True:
        es = tuple(rng.randint(2, d_max) for _ in range(3))
        d = (sum(es) - 1) // 2
        if sum(es) % 2 and max(es) <= d <= d_max:
            return es


def char0_types() -> list[tuple[int, tuple[int, ...]]]:
    return [
        (d, es)
        for d in range(5, 9)
        for es in itertools.combinations_with_replacement(range(2, d + 1), 4)
        if sum(es) == 2 * d + 2
    ]


def _draw_new(seen: set, draw):
    while True:
        item = draw()
        if item not in seen:
            seen.add(item)
            return item


def _sweep_catalogue(rng: random.Random) -> list[list[str]]:
    seen: set = set()
    out = []
    over_q = True
    for _ in range(SWEEP_ROUNDS):
        primes = rng.sample(SWEEP_PRIMES, len(SWEEP_PRIMES)) * 2
        kinds = ["lambda-map"] * 27 + ["three-point"] * 9
        rng.shuffle(kinds)
        for p, kind in zip(primes, kinds):
            if kind == "lambda-map":
                es = _draw_new(seen, lambda: ("lm", p, admissible_type(rng, p)))[2]
                out.append(["lambda-map", "--p", str(p), "--cycles", _csv(es), "--ext", "1"])
                continue
            field, over_q = (0 if over_q else p), not over_q
            d_max = Q_MAX_DEGREE if field == 0 else p - 1
            es = _draw_new(seen, lambda: ("tp", field, three_point_type(rng, d_max)))[2]
            out.append(["three-point", "--p", str(field), "--cycles", _csv(es)])
    return out


def _supersingular_catalogue(rng: random.Random) -> list[list[str]]:
    seen: set = set()
    return [
        ["hurwitz-p", "--p", str(p), "--cycles",
         _csv(_draw_new(seen, lambda: (p, admissible_type(rng, p)))[1])]
        for _ in range(SUPERSINGULAR_ROUNDS)
        for p in SUPERSINGULAR_PRIMES
    ]


def _valid_mu(F, hn, hd, mu) -> bool:
    """lift rejects mu in {0, 1}, poles and zeros of h and h - 1, and the
    fixed points h(mu) = mu^p."""
    if mu in (F.zero, F.one):
        return False
    den = R.poly_eval(F, hd, mu)
    if den == F.zero:
        return False
    h = F.mul(R.poly_eval(F, hn, mu), F.inv(den))
    return h not in (F.zero, F.one, F.pow(mu, F.p))


def _excluded_c(p: int, e3: int) -> set[int]:
    """c = -rho^(-p) for the families whose rho lies in F_p: there a solves
    e3 a^2 + 2 e3 a + 2 - e3 = 0 and rho = (e3 - 1) a / (e3 a + 1)."""
    out = set()
    for a in range(p):
        if (e3 * a * a + 2 * e3 * a + 2 - e3) % p == 0 and (e3 * a + 1) % p:
            rho = (e3 - 1) * a * pow(e3 * a + 1, -1, p) % p
            if rho:
                out.add(-pow(rho, -1, p) % p)
    return out


def _tower_draw(rng: random.Random, seen: set, p: int, es, e3: int, c: int,
                hn, hd) -> list[list[str]]:
    """lift, contract, fiber-count and additive-twist for one catalogue
    entry; the seed draws mu and lambda, which do not drive the cost."""
    F = R.ExtF(p, 2)
    hn, hd = R.lift(F, hn), R.lift(F, hd)
    mu = (0, 0)
    while not _valid_mu(F, hn, hd, mu) or (p, mu) in seen:
        mu = (rng.randrange(p), rng.randrange(1, p))  # outside F_p
    seen.add((p, mu))
    lam = (rng.randrange(p), rng.randrange(p))
    while lam in (F.zero, F.one):
        lam = (rng.randrange(p), rng.randrange(p))
    cyc, mu = _csv(es), F.fmt(mu)
    return [
        ["lift", "--p", str(p), "--cycles", cyc, "--mu", mu],
        ["contract", "--p", str(p), "--cover", COVER_FILE, "--lambda", FROM_LIFT, "--mu", mu],
        ["fiber-count", "--p", str(p), "--cycles", cyc, "--lambda", F.fmt(lam)],
        ["additive-twist", "--p", str(p), "--cycles", f"{e3},{p + 1 - e3}", "--c", str(c)],
    ]


def _tower_catalogue(rng: random.Random) -> list[tuple]:
    """(p, type, e3, c, h.num, h.den) per draw: a 4-point type for lift,
    contract and fiber-count, and an additive type e3 + e4 = p + 1 with a
    c that additive-twist accepts."""
    seen: set = set()
    out = []
    extra = [rng.choice(TOWER_PRIMES) for _ in range(TOWER_DRAWS - len(TOWER_PRIMES))]
    for p in TOWER_PRIMES + extra:
        es = _draw_new(seen, lambda: (p, admissible_type(rng, p)))[1]

        def twist():
            e3 = rng.randint(2, (p - 1) // 2)
            bad_c = {0, p - 1} | _excluded_c(p, e3)
            return p, e3, rng.choice([v for v in range(p) if v not in bad_c])

        _, e3, c = _draw_new(seen, twist)
        out.append((p, es, e3, c, *R.three_point(R.PrimeF(p), es[0], es[1], p - es[2])))
    return out


def _char0_catalogue(_rng: random.Random) -> list[list[str]]:
    return [["hurwitz-char0", "--d", str(d), "--cycles", _csv(es)]
            for d, es in char0_types()] * CHAR0_COPIES


def tail_percentile(workload: str) -> int:
    """The highest whole percentile with at least ten of one pass's
    requests beyond it; fixed per workload, so a run of two passes reports
    the same percentile as a run of one."""
    pass_size = sum(len(unit) for unit in next(passes(workload, 0)))
    return math.floor(100 * (1 - 10 / pass_size))


def passes(workload: str, seed: int):
    """Endless passes over the workload's catalogue for one seed; a pass is
    a list of units, a unit a list of argv lists run back to back."""
    cat_rng = random.Random(f"{CATALOGUE_SEED}:{workload}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tower":
        catalogue = _tower_catalogue(cat_rng)
        while True:
            seen_mu: set = set()
            yield [_tower_draw(rng, seen_mu, *entry)
                   for entry in rng.sample(catalogue, len(catalogue))]
    catalogue = {"sweep": _sweep_catalogue, "supersingular": _supersingular_catalogue,
                 "char0": _char0_catalogue}[workload](cat_rng)
    while True:
        yield [[argv] for argv in rng.sample(catalogue, len(catalogue))]
