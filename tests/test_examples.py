"""The demos and the README's Python blocks run against this package."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)
EXAMPLES = [pytest.param(path, id=path.name) for path in sorted((ROOT / "demos").glob("*.py"))]
EXAMPLES += [pytest.param(block, id=f"README-{i}") for i, block in enumerate(README_BLOCKS, 1)]


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if isinstance(example, Path):
        runpy.run_path(str(example), run_name="__main__")
    else:
        exec(compile(example, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
