"""Structural checks on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "irsbeam"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _cross_module_private_uses(path: Path) -> list[str]:
    """`from .x import _y` and `x._y` for a sibling module x, as readable strings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, module_names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            own = node.level > 0 or (node.module or "").split(".")[0] == "irsbeam"
            if not own:
                continue
            for alias in node.names:
                if alias.name in MODULES:
                    module_names.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: from {node.module} import "
                                 f"{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "irsbeam" and len(parts) == 2 and alias.asname:
                    module_names.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in module_names):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = [use for path in sorted(PACKAGE.glob("*.py"))
             for use in _cross_module_private_uses(path)]
    assert not found, "private names used across modules:\n" + "\n".join(found)


def test_guard_sees_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .vamp import _hidden, run_vamp\nfrom . import altopt as ao\n"
                   "from . import __version__\nx = ao._inner(1)\ny = self._own\n")
    assert [u.split(": ", 1)[1] for u in _cross_module_private_uses(bad)] == [
        "from vamp import _hidden", "ao._inner"]
