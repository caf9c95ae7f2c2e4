"""tamecovers benchmark: replays seeded CLI request mixes and checks every answer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads are defined in workloads.py.
Load shape: a closed loop with one client and one thread, because a CLI
user waits for each answer; each run starts a fresh interpreter
(worker.py), so per-process caches start cold.  Every output is checked by
checks.py, which shares no code with the program.

All reported times, and --seconds itself, are seconds at reference machine
speed (calib.py): the host this runs on changes speed by up to 2x for
seconds at a time, so each request time is scaled by machine-speed samples
taken while it ran.  The run record keeps the raw figures next to them.

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload with
span tracing (tracer.py) and then replays the same requests untraced, and
reports the per-layer metrics.  The last stdout line is the result object;
the line before it is a run record that carries the sha256 of the
concatenated stdout of all requests, the failure breakdown and the tail
percentile (fixed per workload) with the number of requests beyond it.  The record is also appended to perfbench/.work/runs.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = os.path.join("perfbench", ".work")
SETUP_LAUNCHES = 11
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _worker(*args: str) -> list[dict]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def setup_seconds() -> tuple[float, float]:
    """Median time (reference, raw) for a fresh interpreter to import
    tamecovers and build the CLI parser; one launch first compiles the
    bytecode."""
    _worker("--setup")
    runs = [_worker("--setup")[0] for _ in range(SETUP_LAUNCHES)]
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["raw_s"] for r in runs))


def run_pass(workload: str, seed: int, *extra: str) -> tuple[list[dict], dict]:
    lines = _worker("--workload", workload, "--seed", str(seed), *extra)
    if not lines or not lines[-1].get("done"):
        raise BenchError("worker ended without a summary")
    return lines[:-1], lines[-1]


def verdicts(requests: list[dict]) -> dict:
    counts = {checks.OK: 0, checks.TRUNCATED: 0, checks.WRONG: 0}
    wrong = []
    prev_argv = None
    for req in requests:
        status, why = checks.check(req["argv"], req["rc"], req["out"], prev_argv)
        counts[status] += 1
        if status == checks.WRONG and len(wrong) < 5:
            wrong.append({"argv": req["argv"], "why": why})
        prev_argv = req["argv"]
    digest = hashlib.sha256("".join(r["out"] for r in requests).encode()).hexdigest()
    return {"counts": counts, "wrong_examples": wrong, "stdout_sha256": digest}


def hd_quantile(xs: list[float], q: float, grid: int = 10000) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of their
    rank slot.  Request costs are sparse in places (one supersingular pass
    jumps from 49 to 69 to 83 to 140 ms around its median), so a single
    order statistic jumps with the noise of one request; on ten
    supersingular runs the plain median spread 15% (IQR/median), this
    estimate 3%."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if n < 2 or a <= 1 or b <= 1:
        raise ValueError(f"too few values ({n}) for the {q} quantile")
    logc = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    dens = [0.0] + [math.exp(logc + (a - 1) * math.log(k / grid) + (b - 1) * math.log1p(-k / grid))
                    for k in range(1, grid)] + [0.0]
    cdf = list(itertools.accumulate(((dens[k] + dens[k + 1]) / 2 for k in range(grid)),
                                    initial=0.0))
    at = [cdf[round(grid * i / n)] for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, at, at[1:])) / at[-1]


def tail(workload: str, latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, requests beyond) at the workload's tail
    percentile."""
    q = workloads.tail_percentile(workload)
    value = hd_quantile(latencies, q / 100)
    return q, value, sum(1 for v in latencies if v > value)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup, raw_setup = setup_seconds()
    requests, summary = run_pass(workload, seed, "--seconds", str(seconds))
    v = verdicts(requests)
    lat = [r["ref_s"] for r in requests if r["ref_s"] is not None]
    raw = [r["s"] for r in requests if r["s"] is not None]
    q, tail_s, beyond = tail(workload, lat)
    attempted = len(requests)
    metrics = {
        "setup_s": (setup, "s"),
        "latency_p50_ms": (hd_quantile(lat, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        # one closed-loop client: requests per second of request time
        "throughput_rps": (len(lat) / summary["wall_s"], "1/s"),
        "ok_ratio": (v["counts"][checks.OK] / attempted, "ratio"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024, "MB"),
    }
    record = {
        "units": summary["units"],
        "wall_s": summary["wall_s"],
        "raw_wall_s": summary["raw_wall_s"],
        "raw_latency_p50_ms": hd_quantile(raw, 0.5) * 1e3,
        "raw_setup_s": raw_setup,
        "tail_percentile": q,
        "tail_beyond": beyond,
        "timed_requests": len(lat),
        **v,
    }
    return metrics, record


def _label(tr: dict, name: str) -> str:
    """name, if the tracer wrapped it: a renamed or removed function must
    fail the traced run, not read as zero calls."""
    if name not in tr["labels"]:
        raise BenchError(f"per-layer metrics read {name}, which the tracer did not wrap")
    return name


def _layer(tr: dict, layer: str) -> list[str]:
    labels = [n for n in tr["labels"] if n.startswith(layer + ".")]
    if not labels:
        raise BenchError(f"the tracer wrapped nothing in layer {layer}")
    return labels


def _self(tr: dict, *names: str) -> float:
    return sum((tr["self_s"].get(_label(tr, n), 0.0) for n in names), 0.0)


def _total(tr: dict, name: str) -> float:
    return tr["total_s"].get(_label(tr, name), 0.0)


def _calls(tr: dict, name: str) -> int:
    return tr["calls"].get(_label(tr, name), 0)


def _count(tr: dict, name: str, hook_of: str | None = None) -> int:
    """A counter, or a count kept by the hook on span hook_of."""
    _label(tr, hook_of or name)
    return tr["counts"].get(name, 0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    spans = os.path.join(WORK_DIR, f"spans-{workload}-{seed}.bin")
    traced, summary = run_pass(workload, seed, "--seconds", str(seconds), "--trace", spans)
    plain, plain_summary = run_pass(workload, seed, "--units", str(summary["units"]))
    tv, pv = verdicts(traced), verdicts(plain)
    tr = summary["trace"]
    layers = {name.split(".")[0] for name in tr["calls"]}
    request_s = sum(r["s"] for r in traced if r["s"] is not None)  # raw, as spans are
    tuples = _count(tr, "symhurwitz.is_single_cycle")
    m = {
        "threepoint.kernel_basis.self_s": (_self(tr, "threepoint.kernel_basis"), "s"),
        "threepoint.kernel_basis.cells": (_count(tr, "threepoint.kernel_basis.cells",
                                                 "threepoint.kernel_basis"), "count"),
        "threepoint.solve_three_point.calls": (_calls(tr, "threepoint.solve_three_point"), "count"),
        "threepoint.solve_three_point.self_s": (_self(tr, "threepoint.solve_three_point"), "s"),
        "poly.gcd.calls": (_calls(tr, "poly.poly_gcd"), "count"),
        "poly.gcd.self_s": (_self(tr, "poly.poly_gcd"), "s"),
        "poly.gcd.trivial_ratio": (_ratio(_count(tr, "poly.poly_gcd.trivial", "poly.poly_gcd"),
                                          _calls(tr, "poly.poly_gcd")), "ratio"),
        "poly.ratfunc_make.calls": (_calls(tr, "poly.RatFunc.make"), "count"),
        "poly.mul.calls": (_calls(tr, "poly.Poly.mul"), "count"),
        "poly.mul.self_s": (_self(tr, "poly.Poly.mul"), "s"),
        "poly.divmod.calls": (_calls(tr, "poly.Poly.divmod"), "count"),
        "poly.divmod.self_s": (_self(tr, "poly.Poly.divmod"), "s"),
        "poly.roots.calls": (_calls(tr, "poly.roots"), "count"),
        "poly.roots.self_s": (_self(tr, "poly.roots"), "s"),
        "poly.roots.share": (_ratio(_total(tr, "poly.roots"), request_s), "ratio"),
        "poly.pow_mod.calls": (_calls(tr, "poly.pow_mod"), "count"),
        "poly.pow_mod.self_s": (_self(tr, "poly.pow_mod"), "s"),
        "poly.count_roots.self_s": (_self(tr, "poly.count_roots_by_degree"), "s"),
        "poly.radical.self_s": (_self(tr, "poly.radical"), "s"),
        "ramify.analyze_cover.calls": (_calls(tr, "ramify.analyze_cover"), "count"),
        "ramify.analyze_cover.self_s": (_self(tr, "ramify.analyze_cover"), "s"),
        "multconst.lambda_map.self_s": (_self(tr, "multconst.lambda_map"), "s"),
        "multconst.lift.self_s": (_self(tr, "multconst.lift"), "s"),
        "multconst.contract.self_s": (_self(tr, "multconst.contract"), "s"),
        "multconst.count_covers_at.self_s": (_self(tr, "multconst.count_covers_at"), "s"),
        "multconst.errors": (tr["layer_errors"].get("multconst", 0), "count"),
        "addconst.construct_family.self_s": (_self(tr, "addconst.construct_family"), "s"),
        "addconst.additive_twist.self_s": (_self(tr, "addconst.additive_twist"), "s"),
        "jsonio.calls": (sum(_calls(tr, n) for n in _layer(tr, "jsonio")), "count"),
        "jsonio.self_s": (_self(tr, *_layer(tr, "jsonio")), "s"),
        "cli.self_s": (_self(tr, *_layer(tr, "cli")), "s"),
        "symhurwitz.hurwitz_char0.self_s": (_self(tr, "symhurwitz.hurwitz_char0"), "s"),
        "symhurwitz.is_single_cycle.calls": (tuples, "count"),
        "symhurwitz.conjugate.calls": (_count(tr, "symhurwitz.conjugate"), "count"),
        "symhurwitz.accept_ratio": (_ratio(_count(tr, "symhurwitz.classes_found",
                                                  "symhurwitz.hurwitz_char0"), tuples), "ratio"),
        "symhurwitz.share": (_ratio(_total(tr, "symhurwitz.hurwitz_char0"), request_s), "ratio"),
        "trace.request_s": (request_s, "s"),
        "trace.untraced_s": (tr["untraced_s"], "s"),
        "trace.untraced_share": (_ratio(tr["untraced_s"], request_s), "ratio"),
        "trace.overhead_ratio": (summary["wall_s"] / plain_summary["wall_s"], "ratio"),
    }
    for kind in ("prime", "extension", "rationals"):
        m[f"field.mul.{kind}"] = (_count(tr, f"field.mul.{kind}"), "count")
        m[f"field.inv.{kind}"] = (_count(tr, f"field.inv.{kind}"), "count")
    record = {
        "units": summary["units"],
        "spans": tr["spans"],
        "aliases_rebound": tr["rebound"],
        "layers_seen": sorted(layers),
        "traced_stdout_sha256": tv["stdout_sha256"],
        "untraced_stdout_sha256": pv["stdout_sha256"],
        "tracing_changed_stdout": tv["stdout_sha256"] != pv["stdout_sha256"],
        "counts": tv["counts"],
        "untraced_counts": pv["counts"],
        "wrong_examples": tv["wrong_examples"] + pv["wrong_examples"],
    }
    return m, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "tamecovers", "cli.py")):
        print("perfbench: run from a tamecovers checkout (src/tamecovers is missing)",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.trace:
            metrics, record = per_layer(args.workload, args.seed, args.seconds)
            counts = [record["counts"], record["untraced_counts"]]
        else:
            metrics, record = end_to_end(args.workload, args.seed, args.seconds)
            counts = [record["counts"]]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(counts[0].values())
    failed = attempted - counts[0][checks.OK]
    correct = all(c[checks.WRONG] == 0 for c in counts) and not record.get("tracing_changed_stdout")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fail_ratio": failed / attempted, **record}
    with open(os.path.join(WORK_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
