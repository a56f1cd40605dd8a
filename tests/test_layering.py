"""The library's import graph points one way: homomesy and the CLI sit on
top of the combinatorial modules, which never import them back."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "promotab"
LOWER = ("shapes", "dynamics", "growth", "paths", "posets", "ktableaux")
UPPER = {"homomesy", "cli"}


def imported_modules(path: Path) -> set[str]:
    """Last components of every promotab module that the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names if a.name.startswith("promotab"))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("promotab"):
                continue
            module = node.module or ""
            if module in ("", "promotab"):
                names.update(a.name for a in node.names)
            else:
                names.add(module.rsplit(".", 1)[-1])
    return names


def import_graph() -> dict[str, set[str]]:
    return {path.stem: imported_modules(path) for path in SRC.glob("*.py")}


def test_every_module_is_covered():
    assert set(LOWER) | UPPER <= import_graph().keys()


@pytest.mark.parametrize("module", LOWER)
def test_lower_modules_do_not_import_upward(module):
    assert not import_graph()[module] & UPPER


def test_guard_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .homomesy import verdict\n"
        "from . import cli\n"
        "def f():\n"
        "    import promotab.homomesy\n"
        "    from promotab import shapes\n"
    )
    assert imported_modules(probe) == {"homomesy", "cli", "shapes"}
