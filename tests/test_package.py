"""The package surface: its exports and the README's library quickstart."""
import re
from pathlib import Path

import fairrec

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    assert all(hasattr(fairrec, name) for name in fairrec.__all__)
    namespace = {}
    exec("from fairrec import *", namespace)
    assert set(fairrec.__all__) <= set(namespace)


def test_readme_quickstart_runs():
    # The ```python blocks under "## Library quickstart", in order, in one namespace.
    section = README.read_text().split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
