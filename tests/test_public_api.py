"""Every name the demos and the README quick start import from absorblab exists.

The sources are parsed, not executed, so this guard stays fast: an API
deletion that would break a demo or the quick start fails here.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "demos").glob("*.py"))}
SOURCES["README quick start"] = quick_start()


def absorblab_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for each `from absorblab... import name` in the source."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "absorblab"
        for alias in node.names
    ]


def test_demos_are_found():
    assert any(source.endswith(".py") for source in SOURCES)


@pytest.mark.parametrize("source", SOURCES)
def test_imported_names_exist(source):
    imports = absorblab_imports(SOURCES[source])
    assert imports, f"{source} imports nothing from absorblab"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
