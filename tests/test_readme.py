"""The README's library example, run as written.

It is the documented use of the package root: the names it imports are the
ones ``genpuiseux/__init__.py`` keeps.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    series, *report = out.getvalue().splitlines()
    # the Artin-Schreier root sum of t^(1 - 1/2^k): eight terms, then the bound
    assert series == " + ".join(f"t^({2 ** k - 1}/{2 ** k})" for k in range(1, 9)) \
        + " + O(t^(511/512))"
    assert [line.split(":")[0] for line in report] == [str(i) for i in range(1, 10)]
