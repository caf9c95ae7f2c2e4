"""The README's examples run as printed: the Library code block, and each
`$ tamecovers ...` quickstart line whose document is not elided with `...`,
compared byte for byte with the stdout of ``cli.run``."""

import contextlib
import io
import os
import re
import shlex

import pytest

from tamecovers import cli

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _blocks(lang: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def _quickstart() -> list[tuple[str, str]]:
    cases = []
    for block in _blocks("sh"):
        for chunk in block.split("\n\n"):
            if not chunk.startswith("$ tamecovers "):
                continue
            command, printed = chunk.rstrip("\n").split("\n", 1)
            if "..." not in printed:
                cases.append((command[len("$ tamecovers "):], printed + "\n"))
    return cases


def test_readme_library_block_runs():
    (block,) = [b for b in _blocks("python") if "from tamecovers import" in b]
    exec(compile(block, README, "exec"), {})


QUICKSTART = _quickstart()


@pytest.mark.parametrize("command, printed", QUICKSTART, ids=[c.split()[0] for c, _ in QUICKSTART])
def test_readme_quickstart_prints_the_quoted_document(command, printed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(shlex.split(command))
    assert (code, out.getvalue()) == (0, printed)


def test_readme_quickstart_finds_every_unelided_line():
    assert len(QUICKSTART) == 4
