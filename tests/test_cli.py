import io
import json
import subprocess
import sys

import pytest

from tamecovers import multconst, symhurwitz
from tamecovers.cli import build_parser, run
from tamecovers.errors import DegreeTooLarge
from tamecovers.verify import run_suite


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert code == 0, (code, out, err)
    return json.loads(out)


def test_hurwitz_char0_golden():
    code, out, _ = invoke(["hurwitz-char0", "--d", "5", "--cycles", "3,2,3,4"])
    assert code == 0
    assert out == '{"count": 8}\n'


def test_hurwitz_p_golden():
    code, out, _ = invoke(["hurwitz-p", "--p", "5", "--cycles", "3,2,3", "--with-pminus1"])
    assert code == 0
    assert json.loads(out) == {"h_p": 3, "degree_check": 3, "supersingular": ["4"]}


def test_hurwitz_p_accepts_four_cycles():
    doc = invoke_json(["hurwitz-p", "--p", "5", "--cycles", "3,2,3,4"])
    assert doc["h_p"] == 3


def test_three_point_golden_over_Q():
    doc = invoke_json(["three-point", "--p", "0", "--cycles", "3,2,2"])
    assert doc == {
        "char": 0,
        "num": ["0", "0", "0", "1"],
        "den": ["-2", "3"],
        "type": [3, 3, 2, 2],
    }


def test_three_point_over_prime_field():
    doc = invoke_json(["three-point", "--p", "7", "--cycles", "3,2,2"])
    assert doc["char"] == 7
    assert doc["num"] == ["0", "0", "0", "5"]
    assert doc["den"] == ["4", "1"]


def test_lambda_map_output():
    doc = invoke_json(["lambda-map", "--p", "5", "--cycles", "2,2,2"])
    assert doc["degree"] == 4
    assert doc["tilde"] == [3, 2, 2, 3]
    assert doc["lambda_num"] == ["0", "0", "0", "1", "2"]
    assert doc["lambda_den"] == ["2", "1"]
    assert doc["supersingular"] == []


def test_lift_and_contract_round_trip(tmp_path):
    doc = invoke_json(["lift", "--p", "7", "--cycles", "3,2,5", "--mu", "4"])
    assert doc["lambda"] == "2"
    assert doc["cover"]["type"] == [7, 3, 2, 5, 6]
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(doc["cover"]), encoding="utf-8")
    back = invoke_json(
        ["contract", "--p", "7", "--cover", str(cover_path), "--lambda", "2", "--mu", "4"]
    )
    assert back["num"] == ["0", "0", "0", "5"]
    assert back["den"] == ["4", "1"]
    assert back["type"] == [3, 3, 2, 2]


def test_fiber_count_supersingular():
    doc = invoke_json(["fiber-count", "--p", "5", "--cycles", "3,2,3", "--lambda", "4"])
    assert doc == {
        "lambda0": "4",
        "count": 2,
        "degree": 3,
        "supersingular": True,
        "critical": False,
    }


def test_fiber_count_extension_lambda():
    doc = invoke_json(
        ["fiber-count", "--p", "5", "--cycles", "3,2,3", "--lambda", "1*t+0"]
    )
    assert doc["count"] == 3
    assert doc["supersingular"] is False


def test_fiber_count_supersingular_flag_ignores_ext():
    # lambda0 = t+2 is the image of a pole of h of degree 2 over F_5; the
    # flag tests h.den at lambda0, so --ext 1 does not hide it
    argv = ["fiber-count", "--p", "5", "--cycles", "3,4,3", "--lambda", "1*t+2"]
    assert invoke_json(argv + ["--ext", "1"])["supersingular"] is True
    assert invoke_json(argv)["supersingular"] is True


def test_ext_only_on_commands_that_read_it():
    sub = build_parser()._subparsers._group_actions[0]
    with_ext = {name for name, sp in sub.choices.items() if "--ext" in sp._option_string_actions}
    assert with_ext == {"hurwitz-p", "lambda-map", "fiber-count", "verify"}
    code, _out, err = invoke(["three-point", "--p", "7", "--cycles", "3,2,2", "--ext", "2"])
    assert code == 1 and "--ext" in err


@pytest.mark.parametrize("modulus", [[3, 1], [1], [], 5, "3,0,1", [3, 0, "1"]])
def test_contract_rejects_malformed_ext_modulus(tmp_path, modulus):
    path = tmp_path / "c.json"
    cover = {"char": 7, "ext_modulus": modulus, "num": ["0", "1"], "den": ["1"], "type": []}
    path.write_text(json.dumps(cover), encoding="utf-8")
    code, out, err = invoke(
        ["contract", "--p", "7", "--cover", str(path), "--lambda", "2", "--mu", "4"]
    )
    assert code == 1 and out == ""
    assert "ext_modulus" in err and "Traceback" not in err


CONTRACT = ["contract", "--p", "7", "--cover", "{tmp}/c.json", "--lambda", "2", "--mu", "4"]


@pytest.mark.parametrize(
    "cover, argv",
    [
        (None, CONTRACT),
        ("{", CONTRACT),
        ("[]", CONTRACT),
        ('{"char": 7, "den": ["1"]}', CONTRACT),
        ('{"char": 7, "num": ["0", "1"]}', CONTRACT),
        ('{"char": "x", "num": ["0", "1"], "den": ["1"]}', CONTRACT),
        (None, ["three-point", "--p", "7", "--cycles", "3,2,2", "--out", "{tmp}/no/dir/out.json"]),
    ],
    ids=["missing", "not-json", "list", "no-num", "no-den", "char-not-int", "out-unwritable"],
)
def test_unusable_files_are_usage_errors(tmp_path, cover, argv):
    if cover is not None:
        (tmp_path / "c.json").write_text(cover, encoding="utf-8")
    code, out, err = invoke([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize("ext", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["fiber-count", "--p", "5", "--cycles", "3,2,3", "--lambda", "2"],
        ["hurwitz-p", "--p", "5", "--cycles", "3,2,3"],
        ["lambda-map", "--p", "5", "--cycles", "3,2,3"],
        ["verify", "--suite", "paper-examples", "--p", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_ext_below_one_is_a_usage_error(argv, ext):
    code, out, err = invoke(argv + ["--ext", ext])
    assert (code, out) == (1, "") and "--ext" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["three-point", "--p", "7", "--cycles", "3,2"],
        ["lambda-map", "--p", "5", "--cycles", "3,2,3,4"],
        ["lift", "--p", "7", "--cycles", "3,2", "--mu", "4"],
        ["fiber-count", "--p", "5", "--cycles", "3,2", "--lambda", "2"],
        ["bad-degree", "--sweep", "p=5..7", "--cycles", "2,3"],
        ["additive-family", "--p", "5", "--cycles", "2,4,3"],
        ["additive-twist", "--p", "5", "--cycles", "2", "--c", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cycles_of_the_wrong_length_are_a_usage_error(argv):
    code, out, err = invoke(argv)
    assert (code, out) == (1, "") and "--cycles" in err


def test_one_parser_serves_every_call():
    assert build_parser() is build_parser()
    built = build_parser.cache_info().misses
    invoke(["hurwitz-char0", "--d", "3", "--cycles", "2,2,3", "--pretty"])
    assert invoke(["hurwitz-char0", "--d", "3", "--cycles", "2,2,3"]) == (0, '{"count": 1}\n', "")
    invoke(["bad-degree", "--sweep", "p=5..7", "--cycles", "2,3,3"])
    after_sweep = invoke(["bad-degree", "--p", "5", "--cycles", "2,3,3"])
    assert build_parser.cache_info().misses == built
    build_parser.cache_clear()
    assert invoke(["bad-degree", "--p", "5", "--cycles", "2,3,3"]) == after_sweep


def test_bad_degree_output():
    doc = invoke_json(["bad-degree", "--p", "5", "--cycles", "2,3,3"])
    assert doc["bad"] == 5 and doc["case"] == "mixed" and doc["quotient"] == 1


def test_additive_family_and_twist():
    doc = invoke_json(["additive-family", "--p", "5", "--cycles", "2,4"])
    assert doc["h_p_4pt"] == 1
    assert doc["families"][0]["a"] == "3"
    assert doc["families"][0]["rho"] == "4"
    assert doc["families"][0]["c"] == "2"
    tw = invoke_json(["additive-twist", "--p", "5", "--cycles", "2,4", "--c", "2"])
    assert tw["results"][0]["lambda"] == "3"
    assert tw["results"][0]["cover"]["type"] == [7, 7, 4, 3, 2]


def test_sweep_is_sorted_and_reports_errors_inline():
    doc = invoke_json(["hurwitz-p", "--sweep", "p=5..13", "--cycles", "2,2,2"])
    ps = [entry["p"] for entry in doc["sweep"]]
    assert ps == [5, 7, 11, 13]
    assert doc["sweep"][0]["h_p"] == 4
    assert doc["sweep"][1]["h_p"] == 0


def test_output_is_deterministic():
    _, out1, _ = invoke(["lambda-map", "--p", "7", "--cycles", "2,2,4"])
    _, out2, _ = invoke(["lambda-map", "--p", "7", "--cycles", "2,2,4"])
    assert out1 == out2


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "result.json"
    code, out, _ = invoke(
        ["three-point", "--p", "0", "--cycles", "3,2,2", "--out", str(path)]
    )
    assert code == 0
    assert json.loads(path.read_text(encoding="utf-8")) == json.loads(out)


def test_domain_error_exit_code_and_shape():
    code, out, _ = invoke(["three-point", "--p", "3", "--cycles", "2,2,3"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NoSuchCover"
    assert "detail" in doc


def test_usage_error_exit_code():
    code, _out, err = invoke(["hurwitz-char0", "--d", "5"])
    assert code == 1 and "usage" in err.lower()
    code, _out, err = invoke(["no-such-command"])
    assert code == 1


def test_verify_paper_examples_suite():
    doc = invoke_json(["verify", "--suite", "paper-examples", "--p", "5"])
    assert doc["all_pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "example-b-cover-Q" in names


def test_verify_formulas_reports_a_wrong_closed_form(monkeypatch):
    # one wrong closed form fails its own check; the rest of the suite runs
    real = multconst.p_hurwitz_4pt

    def off_by_one(p, t):
        n = real(p, t)
        return n + 1 if p == 5 and sorted((t.e1, t.e2, t.e3)) == [2, 3, 3] else n

    monkeypatch.setattr(multconst, "p_hurwitz_4pt", off_by_one)
    doc = run_suite("formulas", p_max=5)
    assert doc["all_pass"] is False
    failed = {c["name"]: c["got"] for c in doc["checks"] if not c["pass"]}
    assert failed == {"bad-degree-identity-p5": [[2, 3, 3]]}

    code, out, _err = invoke(["verify", "--suite", "formulas", "--p_max", "5"])
    assert code == 2
    assert json.loads(out)["checks"] == doc["checks"]


def test_verify_oracle_above_the_degree_cap_fails_before_enumerating(monkeypatch):
    # the document is the one the enumeration raises at degree cap + 1
    cap = symhurwitz.DEGREE_CAP
    calls = 0
    real = symhurwitz.hurwitz_char0

    def counting(d, cycles):
        nonlocal calls
        calls += 1
        return real(d, cycles)

    with pytest.raises(DegreeTooLarge) as info:
        real(cap + 1, (2, 2, cap + 1, cap + 1))
    monkeypatch.setattr(symhurwitz, "hurwitz_char0", counting)
    code, out, _err = invoke(["verify", "--suite", "oracle", "--d_max", str(cap + 1)])
    assert (code, calls) == (2, 0)
    assert json.loads(out) == {"error": "DegreeTooLarge", "detail": info.value.detail}


def test_verify_roundtrip_suite_small():
    doc = invoke_json(["verify", "--suite", "roundtrip", "--p", "5"])
    assert doc["all_pass"] is True


def test_pretty_flag():
    code, out, _ = invoke(["hurwitz-char0", "--d", "3", "--cycles", "2,2,3", "--pretty"])
    assert code == 0 and out.startswith("{\n")


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "tamecovers", "hurwitz-char0", "--d", "3", "--cycles", "2,2,3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"count": 1}
