"""Structural checks on the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irsbeam"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}

# Public names kept without a caller in src/, demos/ or bench/, one reason each.
UNREFERENCED_OK = {
    "irs_response": "the documented single-angle reflector response",
    "ula_response": "the documented single-angle station response, irs_response's twin",
    "sum_mse_reference": "a test oracle",
}


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


def _public_definitions(path: Path) -> list[tuple[str, int, int]]:
    """(qualified name, first line, last line) of each public top-level
    function and class of a module, and of each public method of its classes."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{item.name}", item.lineno, item.end_lineno)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def _references(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute and identifier-like string
    constant (the benchmark looks some functions up by name) in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((node.value, node.lineno))
    return found


def _unreferenced(modules: list[Path], users: list[Path]) -> list[str]:
    """Public definitions of `modules` that no file of `users` references
    outside the definition itself. Matching is by bare name, so a method
    counts as used when any attribute of that name is read."""
    refs = {path: _references(path) for path in users}
    missing = []
    for module in modules:
        for qualname, first, last in _public_definitions(module):
            name = qualname.rsplit(".", 1)[-1]
            if not any(ident == name and not (path == module and first <= line <= last)
                       for path, found in refs.items() for ident, line in found):
                missing.append(f"{module.stem}.{qualname}")
    return missing


def test_every_public_definition_has_a_caller():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    # the benchmark's frozen copy of the package is not a user of this one
    users = modules + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    missing = [name for name in _unreferenced(modules, users)
               if name.rsplit(".", 1)[-1] not in UNREFERENCED_OK]
    assert not missing, "public definitions nothing references:\n" + "\n".join(missing)


def test_caller_guard_ignores_own_body_and_sees_methods(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def lonely(n):\n    return lonely(n - 1)\n\n"
                   "def used():\n    return 1\n\n"
                   "class Box:\n    def open(self):\n        return used()\n\n"
                   "    def shut(self):\n        return self.open()\n\n"
                   "    def _hidden(self):\n        return 0\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import Box\nBox().shut\n")
    assert _unreferenced([mod], [mod, user]) == ["mod.lonely"]
