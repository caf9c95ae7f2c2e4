"""Tests of the benchmark's own parts: generators, output checks, tracer.

Run from the repository root with the program importable from src:
    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import refmath  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(argv):
    from tamecovers import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def _status(argv, doc, prev=None, rc=0):
    return checks.check(argv, rc, json.dumps(doc), prev)[0]


def _first_passes(workload, seed, n=2):
    gen = workloads.passes(workload, seed)
    return [next(gen) for _ in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    a = _first_passes(workload, 11)
    assert a == _first_passes(workload, 11)
    assert a != _first_passes(workload, 12)
    argvs = [tuple(argv) for unit in a[0] for argv in unit]
    if workload != "char0":  # its 38 types are fewer than a pass
        assert len(set(argvs)) == len(argvs), "a pass repeats a request"


LIFT = ["lift", "--p", "7", "--cycles", "3,2,5", "--mu", "1*t+2"]

CASES = [
    # argv, key holding a count, key holding a coefficient list
    (["three-point", "--p", "0", "--cycles", "5,4,6"], None, "num"),
    (["three-point", "--p", "23", "--cycles", "9,8,12"], None, "den"),
    (["lambda-map", "--p", "13", "--cycles", "5,4,7", "--ext", "1"], "degree", "lambda_num"),
    (["hurwitz-p", "--p", "7", "--cycles", "3,2,5"], "h_p", "supersingular"),
    (["fiber-count", "--p", "5", "--cycles", "3,2,3", "--lambda", "2*t+1"], "count", None),
    (LIFT, None, "cover.num"),
    (["additive-twist", "--p", "7", "--cycles", "3,5", "--c", "2"], None, "results.0.cover.num"),
    (["hurwitz-char0", "--d", "6", "--cycles", "2,3,4,5"], "count", None),
]


def _contract_case():
    rc, out = _run(LIFT)
    assert rc == 0
    doc = json.loads(out)
    path = os.path.join(ROOT, "perfbench", ".work", "test-cover.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc["cover"], fh)
    return ["contract", "--p", "7", "--cover", path, "--lambda", doc["lambda"],
            "--mu", "1*t+2"]


def _at(doc, dotted):
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc, last


@pytest.mark.parametrize("argv,count_key,coeff_key", CASES, ids=[c[0][0] + "-" + c[0][2] for c in CASES])
def test_checks_accept_real_output_and_catch_corruption(argv, count_key, coeff_key):
    rc, out = _run(argv)
    doc = json.loads(out)
    assert checks.check(argv, rc, out)[0] == checks.OK
    assert _status(argv, doc, rc=2) == checks.WRONG
    assert checks.check(argv, 0, out[:-3])[0] == checks.WRONG
    if count_key:
        bad = copy.deepcopy(doc)
        bad[count_key] += 1
        assert _status(argv, bad) == checks.WRONG
    if coeff_key:
        bad = copy.deepcopy(doc)
        parent, key = _at(bad, coeff_key)
        del parent[key][0]
        assert _status(argv, bad) != checks.OK


@pytest.mark.parametrize("argv", [
    CASES[4][0],
    ["fiber-count", "--p", "13", "--cycles", "5,4,7", "--lambda", "3"],
    next(workloads.passes("tower", 1))[0][2],
])
def test_fiber_count_wrong_count_is_caught(argv):
    rc, out = _run(argv)
    doc = json.loads(out)
    assert checks.check(argv, rc, out)[0] != checks.WRONG
    for bad_count in {0, doc["count"] - 1, doc["count"] + 1, doc["degree"]} - {doc["count"]}:
        if 0 <= bad_count <= doc["degree"]:
            assert _status(argv, dict(doc, count=bad_count)) == checks.WRONG, bad_count


def test_zero_cover_over_q_is_wrong_not_a_hang():
    argv = ["three-point", "--p", "0", "--cycles", "5,4,6"]
    rc, out = _run(argv)
    doc = json.loads(out)
    bad = dict(doc, num=["0"] * len(doc["num"]))
    assert _status(argv, bad) == checks.WRONG
    with pytest.raises(ValueError):
        refmath.ord_at(refmath.RationalF(), [], refmath.RationalF().zero)


def test_tail_percentile_is_fixed_per_workload():
    # one pass of sweep has 180 requests: p94 leaves ten beyond it
    assert workloads.tail_percentile("sweep") == 94
    lat = [float(i) for i in range(360)]
    assert run.tail("sweep", lat)[0] == run.tail("sweep", lat[:180])[0] == 94
    assert run.hd_quantile(lat, 0.5) == pytest.approx(179.5, abs=1e-3)
    assert run.hd_quantile(lat, 0.94) == pytest.approx(0.94 * 359, abs=0.5)


def test_per_layer_reads_only_wrapped_labels():
    tr = {"labels": ["poly.roots"], "calls": {}, "self_s": {}, "total_s": {}, "counts": {}}
    assert run._calls(tr, "poly.roots") == 0
    with pytest.raises(run.BenchError):
        run._calls(tr, "poly.count_roots_by_degree")
    with pytest.raises(run.BenchError):
        run._count(tr, "poly.poly_gcd.trivial", "poly.poly_gcd")


def test_contract_must_return_the_lifted_cover():
    argv = _contract_case()
    rc, out = _run(argv)
    doc = json.loads(out)
    assert checks.check(argv, rc, out, LIFT)[0] == checks.OK
    bad = copy.deepcopy(doc)
    del bad["num"][-1]
    assert _status(argv, bad, LIFT) == checks.WRONG
    bad = copy.deepcopy(doc)
    bad["den"][0] = "1*t+0" if bad["den"][0] != "1*t+0" else "0*t+1"
    assert _status(argv, bad, LIFT) == checks.WRONG


def test_known_ext_truncation_is_classified():
    argv = ["hurwitz-p", "--p", "13", "--cycles", "8,9,11"]
    rc, out = _run(argv)
    assert checks.check(argv, rc, out)[0] == checks.TRUNCATED
    argv = ["fiber-count", "--p", "13", "--cycles", "5,4,7", "--lambda", "3"]
    rc, out = _run(argv)
    assert json.loads(out)["count"] == 0
    assert checks.check(argv, rc, out)[0] == checks.TRUNCATED


def test_traced_run_rebinds_aliases_and_keeps_stdout():
    env = dict(os.environ, PYTHONPATH="")
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", "sweep", "--seed", "1", "--units", "4"]
    spans = os.path.join(ROOT, "perfbench", ".work", "test-spans.bin")
    plain = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    traced = subprocess.run(cmd + ["--trace", spans, "--seconds", "1000"], cwd=ROOT, env=env,
                            capture_output=True, text=True, check=True)
    plain_lines = [json.loads(line) for line in plain.stdout.splitlines()]
    traced_lines = [json.loads(line) for line in traced.stdout.splitlines()]
    assert [r["out"] for r in plain_lines[:-1]] == [r["out"] for r in traced_lines[:-1]]
    assert plain_lines[-1]["trace"] is None
    tr = traced_lines[-1]["trace"]
    assert tr["rebound"] > 0
    assert {"cli.run", "poly.poly_gcd", "poly.Poly.mul", "threepoint.kernel_basis",
            "ramify.analyze_cover", "jsonio.poly_strs"} <= set(tr["calls"])
    assert tr["counts"]["field.mul.prime"] > 0
