import io
import json
import subprocess
import sys
import time

import pytest

from tamecovers import field, jsonio, multconst, symhurwitz
from tamecovers.cli import build_parser, run
from tamecovers.errors import DegreeTooLarge, MixedContexts, UsageError
from tamecovers.field import make_field
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
    code, out, _ = invoke(["hurwitz-p", "--p", "5", "--cycles", "3,2,3"])
    assert code == 0
    assert json.loads(out) == {"h_p": 3, "degree_check": 3, "supersingular": ["4"]}


def test_hurwitz_p_has_no_with_pminus1_flag():
    # three --cycles entries already mean (d; e1, e2, e3, p-1)
    code, out, err = invoke(["hurwitz-p", "--p", "5", "--cycles", "3,2,3", "--with-pminus1"])
    assert (code, out) == (1, "") and err.startswith("usage error:")


LONG_P = "7" * 5000  # past the digit limit of int()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--p", "5", "--cycles", "3,2"], "--cycles must have 3 entries (or 4 ending in p-1)"),
        (["--p", "5", "--cycles", "3,2,3,3"], "fourth index must be p-1 = 4"),
        (["--p", "5", "--sweep", "p=5..7", "--cycles", "3,2,3"],
         "--p and --sweep are mutually exclusive"),
        (["--cycles", "3,2,3"], "--p is required (or use --sweep)"),
        (["--sweep", "p5..7", "--cycles", "3,2,3"], "bad --sweep value 'p5..7', expected p=5..13"),
        (["--sweep", "p=5-7", "--cycles", "3,2,3"], "bad --sweep value 'p=5-7', expected p=5..13"),
        (["--p", LONG_P, "--cycles", "3,2,3"],
         f"bad --p '{LONG_P}': expected an integer in its printed form, such as '7'"),
    ],
    ids=["two-cycles", "fourth-index", "p-and-sweep", "no-p", "sweep-no-equals",
         "sweep-dash", "long-p"],
)
def test_hurwitz_p_usage_errors(argv, message):
    code, out, err = invoke(["hurwitz-p", *argv])
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


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


def test_three_point_over_a_large_prime_is_prompt():
    start = time.perf_counter()
    doc = invoke_json(["three-point", "--p", "1000000000000000003", "--cycles", "3,2,2"])
    assert time.perf_counter() - start < 1.0
    assert doc["char"] == 1000000000000000003
    code, out, err = invoke(["three-point", "--p", "318665857834031151167461", "--cycles", "3,2,2"])
    assert (code, out) == (1, "") and "318665857834031151167461" in err


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


def test_contract_at_an_unramified_mu_is_a_domain_error(tmp_path):
    # mu = 2 lies in the fiber over f(2) = 5, where f is unramified
    doc = invoke_json(["lift", "--p", "7", "--cycles", "3,2,5", "--mu", "4"])
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(doc["cover"]), encoding="utf-8")
    code, out, _err = invoke(
        ["contract", "--p", "7", "--cover", str(cover_path), "--lambda", "5", "--mu", "2"]
    )
    assert (code, json.loads(out)) == (
        2, {"error": "NotRamifiedHere", "detail": "mu = 2 is unramified in its fiber"})


@pytest.mark.parametrize("p", ["5", "11"])
def test_contract_rejects_a_p_other_than_the_cover_files_char(tmp_path, p):
    doc = invoke_json(["lift", "--p", "7", "--cycles", "3,2,5", "--mu", "4"])
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(doc["cover"]), encoding="utf-8")
    code, out, err = invoke(
        ["contract", "--p", p, "--cover", str(cover_path), "--lambda", "2", "--mu", "4"]
    )
    assert (code, out) == (1, "")
    assert err == f"usage error: --p {p} does not match the cover file's char 7\n"


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
    assert with_ext == {"hurwitz-p", "lambda-map", "fiber-count"}
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


@pytest.mark.parametrize("mu", ["²", "٣", "04"])
def test_lift_mu_not_in_printed_form_is_a_usage_error(mu):
    code, out, err = invoke(["lift", "--p", "7", "--cycles", "3,2,5", "--mu", mu])
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "Traceback" not in err


def test_contract_cover_coefficient_not_in_printed_form_is_a_usage_error(tmp_path):
    path = tmp_path / "c.json"
    cover = {"char": 7, "num": ["0", "²"], "den": ["1"], "type": []}
    path.write_text(json.dumps(cover), encoding="utf-8")
    code, out, err = invoke(
        ["contract", "--p", "7", "--cover", str(path), "--lambda", "2", "--mu", "4"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("usage error:") and "Traceback" not in err


def _45_terms(low: str) -> str:
    """A 45-term extension literal over F_7 whose two lowest terms are low."""
    return "+".join(f"0*t^{k}" for k in range(44, 1, -1)) + "+" + low


@pytest.mark.parametrize(
    "argv",
    [
        ["fiber-count", "--p", "7", "--cycles", "3,2,5", "--lambda", _45_terms("0*t^1+0")],
        ["lift", "--p", "7", "--cycles", "3,2,5", "--mu", _45_terms("0*t+00")],
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_extension_literal_costs_no_modulus_search(monkeypatch, argv):
    # the printed form of F_{7^45} needs only p and n, so it is checked
    # before make_field searches the degree-45 modulus
    search = field._smallest_modulus

    def no_search(p, n):
        if n == 45:
            raise AssertionError("modulus search for a malformed literal")
        return search(p, n)

    monkeypatch.setattr(field, "_smallest_modulus", no_search)
    code, out, err = invoke(argv)
    assert (code, out) == (1, "") and err.startswith("usage error: bad element literal")


def test_cli_literal_is_embedded_into_the_target_field():
    F49 = make_field(7, 2)
    assert jsonio.parse_cli_elem(7, "1*t+2", into=F49) == F49.parse("1*t+2")
    assert jsonio.parse_cli_elem(7, "3", into=F49) == F49.from_int(3)  # lifted from F_7
    with pytest.raises(MixedContexts):  # F_{7^3} does not embed in F_49
        jsonio.parse_cli_elem(7, "0*t^2+1*t+2", into=F49)


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


COVER = "{tmp}/c.json"
INTEGER_OPTIONS = [
    (["hurwitz-char0", "--d", "{}", "--cycles", "3,2,2"], "--d"),
    (["hurwitz-char0", "--d", "3", "--cycles", "3,{},2"], "--cycles"),
    (["hurwitz-p", "--p", "{}", "--cycles", "3,2,3"], "--p"),
    (["hurwitz-p", "--p", "5", "--cycles", "3,2,3", "--ext", "{}"], "--ext"),
    (["lambda-map", "--p", "{}", "--cycles", "3,2,3"], "--p"),
    (["lambda-map", "--p", "5", "--cycles", "3,2,3", "--ext", "{}"], "--ext"),
    (["bad-degree", "--p", "{}", "--cycles", "2,3,3"], "--p"),
    (["bad-degree", "--sweep", "p={}..7", "--cycles", "2,3,3"], "--sweep"),
    (["bad-degree", "--sweep", "p=5..{}", "--cycles", "2,3,3"], "--sweep"),
    (["additive-family", "--p", "{}", "--cycles", "3,2"], "--p"),
    (["three-point", "--p", "{}", "--cycles", "3,2,2"], "--p"),
    (["lift", "--p", "{}", "--cycles", "3,2,5", "--mu", "4"], "--p"),
    (["contract", "--p", "{}", "--cover", COVER, "--lambda", "2", "--mu", "4"], "--p"),
    (["fiber-count", "--p", "{}", "--cycles", "3,2,5", "--lambda", "2"], "--p"),
    (["fiber-count", "--p", "7", "--cycles", "3,2,5", "--lambda", "2", "--ext", "{}"], "--ext"),
    (["additive-twist", "--p", "{}", "--cycles", "3,2", "--c", "1"], "--p"),
    (["verify", "--suite", "roundtrip", "--p", "{}"], "--p"),
    (["verify", "--suite", "formulas", "--p_max", "{}"], "--p_max"),
    (["verify", "--suite", "oracle", "--d_max", "{}"], "--d_max"),
]


@pytest.mark.parametrize("token", ["٧", "²", " 7", "7 ", "+7", "07", "1_3", "-1"])
@pytest.mark.parametrize(
    "argv, flag", INTEGER_OPTIONS,
    ids=[f"{argv[0]}{flag}-{argv.index(next(a for a in argv if '{}' in a))}"
         for argv, flag in INTEGER_OPTIONS],
)
def test_integer_token_not_in_printed_form_is_a_usage_error(tmp_path, argv, flag, token):
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{}", token) for a in argv]
    code, out, err = invoke(argv)
    assert (code, out) == (1, "") and err.startswith("usage error:") and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["three-point", "--p", "٧", "--cycles", "٣,2,2"],
        ["hurwitz-char0", "--d", "5", "--cycles", " 3,2,3,+4"],
        ["hurwitz-char0", "--d", "05", "--cycles", "3,2,3,4"],
        ["hurwitz-p", "--p", "1_3", "--cycles", "3,2,3"],
        ["bad-degree", "--sweep", "p=+5..0_7", "--cycles", "2,3,3"],
        ["verify", "--suite", "roundtrip", "--p", " 5"],
    ],
    ids=lambda argv: argv[0],
)
def test_integers_that_int_reads_are_usage_errors(argv):
    # int() accepts each of these tokens; the printed-form reader does not
    code, out, err = invoke(argv)
    assert (code, out) == (1, "") and err.startswith("usage error: bad --")


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


@pytest.mark.parametrize("spec", ["p=5..3", "p=24..28"])
def test_sweep_that_holds_no_prime_is_a_usage_error(spec):
    code, out, err = invoke(["hurwitz-p", "--sweep", spec, "--cycles", "2,2,2"])
    assert (code, out) == (1, "") and err == f"usage error: --sweep {spec!r} holds no prime\n"


@pytest.mark.parametrize("d, cycles, count", [("21", "10,10,11,12", 0), ("10", "10,10,1", 1)])
def test_hurwitz_char0_answers_past_every_cap_without_counting(d, cycles, count):
    # an odd sum(e_i - 1) admits no tuple; genus-0 (d; d, d, 1) is y^d
    code, out, _err = invoke(["hurwitz-char0", "--d", d, "--cycles", cycles])
    assert (code, out) == (0, f'{{"count": {count}}}\n')


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

    def off_by_one(t):
        n = real(t)
        return n + 1 if t.p == 5 and sorted((t.e1, t.e2, t.e3)) == [2, 3, 3] else n

    monkeypatch.setattr(multconst, "p_hurwitz_4pt", off_by_one)
    doc = run_suite("formulas", p_max=5)
    assert doc["all_pass"] is False
    failed = {c["name"]: c["got"] for c in doc["checks"] if not c["pass"]}
    assert failed == {"degree-identity-p5-8-types": [[2, 3, 3], [3, 2, 3], [3, 3, 2]],
                      "bad-degree-identity-p5": [[2, 3, 3]]}

    code, out, _err = invoke(["verify", "--suite", "formulas", "--p_max", "5"])
    assert code == 2
    assert json.loads(out)["checks"] == doc["checks"]


def test_verify_oracle_above_the_degree_cap_fails_before_enumerating(monkeypatch):
    # the document is the one the enumeration raises at degree cap + 1
    cap = symhurwitz.DEGREE_CAP
    calls = 0
    real = symhurwitz.enumerate_char0

    def counting(d, cycles):
        nonlocal calls
        calls += 1
        return real(d, cycles)

    with pytest.raises(DegreeTooLarge) as info:
        real(cap + 1, (2, 2, cap + 1, cap + 1))
    monkeypatch.setattr(symhurwitz, "enumerate_char0", counting)
    code, out, _err = invoke(["verify", "--suite", "oracle", "--d_max", str(cap + 1)])
    assert (code, calls) == (2, 0)
    assert json.loads(out) == {"error": "DegreeTooLarge", "detail": info.value.detail}


@pytest.mark.parametrize("d_max", ["3", "6"])
def test_verify_oracle_passes_below_the_default_degree(d_max):
    # the type count is compared with an independent partition count, not
    # with a fixed floor that small degrees cannot reach
    doc = invoke_json(["verify", "--suite", "oracle", "--d_max", d_max])
    assert doc["all_pass"] is True


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--suite", "oracle", "--d_max", "2"], "--d_max"),
        (["verify", "--suite", "roundtrip", "--p", "3"], "--p"),
        (["verify", "--suite", "roundtrip", "--p", "6"], "--p"),
        (["verify", "--suite", "formulas", "--p_max", "3"], "--p_max"),
    ],
    ids=["oracle-d_max-2", "roundtrip-p3", "roundtrip-p6", "formulas-p_max-3"],
)
def test_verify_bounds_that_check_nothing_are_usage_errors(argv, flag):
    code, out, err = invoke(argv)
    assert (code, out) == (1, "") and err.startswith(f"usage error: {flag} must be at least")


FOREIGN_BOUNDS = [
    ("paper-examples", "--p_max"), ("paper-examples", "--d_max"),
    ("roundtrip", "--p_max"), ("roundtrip", "--d_max"),
    ("formulas", "--p"), ("formulas", "--d_max"),
    ("oracle", "--p"), ("oracle", "--p_max"),
]


@pytest.mark.parametrize("suite, flag", FOREIGN_BOUNDS, ids=[f"{s}{f}" for s, f in FOREIGN_BOUNDS])
def test_verify_bound_the_suite_does_not_read_is_a_usage_error(suite, flag):
    code, out, err = invoke(["verify", "--suite", suite, flag, "7"])
    assert (code, out) == (1, "") and err.startswith("usage error:") and flag in err
    with pytest.raises(UsageError):
        run_suite(suite, **{flag[2:]: 7})


@pytest.mark.parametrize("p", ["0", "3", "4", "6"])
def test_verify_paper_examples_at_a_p_that_is_not_a_prime_from_5_is_a_usage_error(p):
    # only an omitted --p defaults to 5
    code, out, err = invoke(["verify", "--suite", "paper-examples", "--p", p])
    assert (code, out) == (1, "") and err.startswith("usage error: --p must be a prime at least 5")


@pytest.mark.parametrize(
    "suite, flag",
    [("paper-examples", "--p"), ("roundtrip", "--p"), ("formulas", "--p_max")],
    ids=["paper-examples", "roundtrip", "formulas"],
)
@pytest.mark.parametrize("bound", ["5", "7"])
def test_verify_suites_pass_at_small_legal_bounds(suite, flag, bound):
    assert invoke_json(["verify", "--suite", suite, flag, bound])["all_pass"] is True


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
