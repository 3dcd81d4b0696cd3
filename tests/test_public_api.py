"""The demos and the README quick start run against the current API.

The fast demos and the quick start are executed in-process. Every demo and
the quick start are also parsed, and every name they import from absorblab
must exist, so the slower demos, which are not run here, still fail on an
API deletion.
"""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each runs in under a second; 06 and 07 take seconds and are only parsed
FAST_DEMOS = [
    "01_closed_forms_tour.py",
    "02_flat_solution_tracking.py",
    "03_convergence_orders.py",
    "04_backward_estimate_saturation.py",
    "05_blowup_exponent_fit.py",
    "08_subsolution_and_mean_value.py",
]


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
    assert set(FAST_DEMOS) <= SOURCES.keys()


@pytest.mark.parametrize("source", SOURCES)
def test_imported_names_exist(source):
    imports = absorblab_imports(SOURCES[source])
    assert imports, f"{source} imports nothing from absorblab"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_fast_demo_runs(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out


def test_quick_start_runs(capsys):
    exec(compile(quick_start(), "README quick start", "exec"), {})
    # the printed fit recovers -(p+1)/(pq-1) = -0.6 for (p, q) = (2, 3)
    assert float(capsys.readouterr().out) == pytest.approx(-0.6, abs=0.01)
