"""The README's python examples run as written: each ```python block of README.md runs in
a fresh namespace, so a block that stops working with the library fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)


def test_the_readme_has_its_python_examples():
    # the library tour, the compiled listing, the generated RK4 loop and a profile written as a formula
    assert len(BLOCKS) == 4
    assert any("ScalarField(" in block for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
