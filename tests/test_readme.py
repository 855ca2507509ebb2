"""README's quick starts run as written and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

from acpolys import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after ``heading``."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_comments():
    code = _block("## Quick start (library)", "python")
    # Each printed line is its comment up to the first double space, which
    # starts an explanation.
    expected = [line.split("# ", 1)[1].split("  ")[0]
                for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 6
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_cli_quick_start_prints_its_comments():
    # A command followed by exactly one comment line shows its whole output;
    # the integrals example's "# ..." marks output cut short.
    examples = re.findall(r"^acpolys (.+)\n# (.+)\n\n",
                          _block("## Quick start (CLI)", "sh"), re.M)
    assert [args for args, _ in examples] == [
        "poly --family c --n 3 --route recurrence --format latex",
        "poly --family a --n 2 --format json",
        "coeffs uv --max-n 1 --format csv",
    ]
    for args, comment in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(args.split()) == 0
        assert out.getvalue() == comment + "\n", args
