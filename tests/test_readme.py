"""README's library quick start runs as printed."""

import contextlib
import io
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first Python block after the "## Library quick start" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_start_prints_what_it_shows():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 9
    assert math.isclose(float(lines[0]), math.sqrt(13.0), abs_tol=1e-12)
    assert math.isclose(float(lines[1]), 3.0, abs_tol=1e-12)
    assert lines[2:4] == ["3.0 True", "2.0 True"]
    for line in lines[4:8]:
        tau, ordered = line.split()
        assert math.isclose(float(tau), 6.0 / math.sqrt(13.0), abs_tol=1e-12) and ordered == "False"
    assert lines[8] == "Complete [3.0, 2.0]"
    # Each figure the block shows in a comment is what it prints.
    shown = re.findall(r"# (1\.\d+) False", quick_start())
    assert shown == [lines[4].split()[0]]
