"""Byte-exact CLI outputs against recorded golden documents.

Each case is a list of argv steps run in order through ``cli.run``.  The
token ``{tmp}`` in an argv is replaced by a per-case temporary directory,
and the cover a successful ``lift`` prints is saved as ``{tmp}/cover.json``
for the ``contract`` steps after it.  The expected stdout and exit code of
every step live in ``golden_cli.json``.  To record them again (only when an
output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

from tamecovers import cli, verify

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

CASES = {
    "hurwitz-char0": [["hurwitz-char0", "--d", "5", "--cycles", "3,2,3,4"]],
    "hurwitz-char0-bad-cycle": [["hurwitz-char0", "--d", "5", "--cycles", "3,2,3,9"]],
    "hurwitz-p": [["hurwitz-p", "--p", "5", "--cycles", "3,2,3"]],
    "hurwitz-p-sweep": [["hurwitz-p", "--sweep", "p=5..13", "--cycles", "3,2,3"]],
    "three-point-Q": [["three-point", "--p", "0", "--cycles", "3,2,2"]],
    "three-point-F5": [["three-point", "--p", "5", "--cycles", "3,3,3"]],
    "three-point-F11-pretty": [["three-point", "--p", "11", "--cycles", "5,4,6", "--pretty"]],
    "three-point-no-cover": [["three-point", "--p", "5", "--cycles", "5,3,3"]],
    "three-point-parity": [["three-point", "--p", "0", "--cycles", "2,2,2"]],
    "lambda-map": [["lambda-map", "--p", "7", "--cycles", "3,2,5"]],
    "lambda-map-sweep": [["lambda-map", "--sweep", "p=5..13", "--cycles", "3,2,3", "--ext", "2"]],
    "lift-contract-F7": [
        ["lift", "--p", "7", "--cycles", "3,2,5", "--mu", "4"],
        ["contract", "--p", "7", "--cover", "{tmp}/cover.json", "--lambda", "2", "--mu", "4"],
        ["contract", "--p", "7", "--cover", "{tmp}/cover.json", "--lambda", "3", "--mu", "4"],
    ],
    "lift-contract-F25": [
        ["lift", "--p", "5", "--cycles", "3,2,3", "--mu", "1*t+1"],
        ["contract", "--p", "5", "--cover", "{tmp}/cover.json", "--lambda", "2*t+2",
         "--mu", "1*t+1"],
    ],
    "lift-invalid-mu": [["lift", "--p", "7", "--cycles", "3,2,5", "--mu", "1"]],
    "fiber-count": [["fiber-count", "--p", "5", "--cycles", "3,2,3", "--lambda", "2"]],
    "fiber-count-F25": [["fiber-count", "--p", "5", "--cycles", "3,2,3", "--lambda", "1*t+2"]],
    "fiber-count-excluded": [["fiber-count", "--p", "5", "--cycles", "3,2,3", "--lambda", "0"]],
    "bad-degree": [["bad-degree", "--p", "5", "--cycles", "2,3,3", "--out", "{tmp}/out.json"]],
    "bad-degree-not-min-first": [["bad-degree", "--p", "5", "--cycles", "3,2,3"]],
    "bad-degree-sweep": [["bad-degree", "--sweep", "p=5..13", "--cycles", "2,3,3"]],
    "additive-family": [["additive-family", "--p", "7", "--cycles", "3,5"]],
    "additive-family-sweep": [["additive-family", "--sweep", "p=5..13", "--cycles", "2,4"]],
    "additive-twist": [["additive-twist", "--p", "5", "--cycles", "2,4", "--c", "2"]],
    "additive-twist-conjugate": [["additive-twist", "--p", "7", "--cycles", "3,5", "--c", "2"]],
    "additive-twist-excluded": [["additive-twist", "--p", "5", "--cycles", "2,4", "--c", "0"]],
    "verify-paper-examples": [["verify", "--suite", "paper-examples", "--p", "7"]],
    "verify-formulas": [["verify", "--suite", "formulas", "--p_max", "7"]],
    "verify-roundtrip": [["verify", "--suite", "roundtrip", "--p", "5"]],
    "verify-oracle": [["verify", "--suite", "oracle", "--d_max", "5"]],
    "usage-error": [["lift", "--p", "7", "--cycles", "3,x,5", "--mu", "4"]],
}


def run_case(steps, tmp: str) -> list[dict]:
    out = []
    for argv in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run([a.replace("{tmp}", tmp) for a in argv])
        out.append({"exit": code, "stdout": buf.getvalue()})
        if argv[0] == "lift" and code == 0:
            cover = json.loads(buf.getvalue())["cover"]
            with open(os.path.join(tmp, "cover.json"), "w", encoding="utf-8") as fh:
                json.dump(cover, fh)
    return out


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    want = _golden()[name]
    got = run_case(CASES[name], str(tmp_path))
    assert [g["exit"] for g in got] == [w["exit"] for w in want]
    for g, w in zip(got, want):
        assert g["stdout"] == w["stdout"]


def test_every_case_is_recorded():
    assert sorted(_golden()) == sorted(CASES)


def test_verify_library_matches_cli_golden():
    # the library entry point prints nothing itself; the CLI adds the newline
    want = _golden()["verify-paper-examples"][0]["stdout"]
    assert json.dumps(verify.run_suite("paper-examples", p=7)) == want[:-1]


def record() -> None:
    doc = {}
    for name, steps in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            doc[name] = run_case(steps, tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
