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


def _unused_imports(path: Path) -> list[str]:
    """Names a module's imports bind and no other line of it reads, as
    readable strings. `import a.b` binds a; __future__ imports bind nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ is left out: its imports are the package's exports
    found = [use for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
             for use in _unused_imports(path)]
    assert not found, "imported names never used:\n" + "\n".join(found)


def test_import_guard_sees_plain_dotted_and_aliased_imports(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\nimport os\nimport os.path\n"
                   "import numpy as np\nfrom . import vamp\n"
                   "from .linalg import EconomySVD, KhatriRaoSVD as Product, economy_svd\n\n"
                   "def f(x: EconomySVD) -> None:\n"
                   "    return np.asarray(vamp.run(economy_svd(x)))\n")
    assert [u.split(": ", 1)[1] for u in _unused_imports(mod)] == ["os", "os", "Product"]


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


def _modules_and_users() -> tuple[list[Path], list[Path]]:
    """The package's modules, and the files whose uses count: those modules,
    the demos and the benchmark (not its frozen copy of the package, which
    is no user of this one)."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    return modules, modules + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py"))


def test_every_public_definition_has_a_caller():
    modules, users = _modules_and_users()
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


# Defaulted parameters kept although no call outside their function passes
# them, one reason each; keyed "module.function(parameter)".
UNPASSED_OK = {
    "cli.main(argv)": "the console entry point, which reads sys.argv when argv is None",
    "oracles.grid_phase_search(points_per_phase)": "the oracle's resolution, which its own "
                                                   "tests vary",
    "channel.ula_response(spacing_ratio)": "the documented single-angle station response",
    "channel.irs_response(spacing_ratio)": "the documented single-angle reflector response",
}


def _defaulted_parameters(path: Path) -> list[tuple[str, str, int, int, int | None]]:
    """(function name, parameter, first line, last line, position) of each
    defaulted parameter of a public top-level function or public method;
    position counts the arguments a call passes positionally (self and cls
    excluded), None for a keyword-only parameter."""
    found = []

    def visit(fn, method):
        args = fn.args
        positional = args.posonlyargs + args.args
        if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in fn.decorator_list):
            positional = positional[1:]
        for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                start=len(positional) - len(args.defaults)):
            found.append((fn.name, arg.arg, fn.lineno, fn.end_lineno, i))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((fn.name, arg.arg, fn.lineno, fn.end_lineno, None))

    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            visit(node, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    visit(item, True)
    return found


def _calls(path: Path) -> list[tuple[str, int, int, set[str], bool]]:
    """(called name, line, positional count, keyword names, has **) of every
    call in a file; a *args counts as passing every position."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        found.append((name, node.lineno, 1 << 30 if starred else len(node.args), keywords,
                      any(k.arg is None for k in node.keywords)))
    return found


def _unpassed(modules: list[Path], users: list[Path]) -> list[str]:
    """Defaulted parameters of `modules` that no call in `users` outside the
    function's own body passes, by position or keyword. Calls match by bare
    name, as in _unreferenced."""
    calls = {path: _calls(path) for path in users}
    missing = []
    for module in modules:
        for name, param, first, last, position in _defaulted_parameters(module):
            if not any(called == name and not (path == module and first <= line <= last)
                       and (param in keywords or spread
                            or (position is not None and count > position))
                       for path, found in calls.items()
                       for called, line, count, keywords, spread in found):
                missing.append(f"{module.stem}.{name}({param})")
    return missing


def test_every_defaulted_parameter_is_passed_somewhere():
    missing = [knob for knob in _unpassed(*_modules_and_users()) if knob not in UNPASSED_OK]
    assert not missing, "defaulted parameters no call sets:\n" + "\n".join(missing)


def test_knob_guard_sees_position_keyword_and_own_body(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, 0, 0, d=0, e=0)\n\n"
                   "class Box:\n    def put(self, x=0, y=0):\n        return x\n\n"
                   "    def _own(self, z=0):\n        return z\n\n"
                   "def _hidden(w=0):\n    return w\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import Box, f\nf(1, 2, d=3)\nBox().put(5)\n")
    assert _unpassed([mod], [mod, user]) == ["mod.f(c)", "mod.f(e)", "mod.put(y)"]
    user.write_text("from mod import Box, f\nf(*xs, **kw)\nBox().put(y=1, x=2)\n")
    assert _unpassed([mod], [mod, user]) == []


def _dataclass_fields(path: Path, cls: str) -> list[str]:
    """Names of the annotated fields of class `cls` in a module, in order."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return [item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    raise LookupError(f"{path.name} defines no class {cls}")


def _unset_fields(module: Path, cls: str, users: list[Path],
                  mirror: tuple[Path, int, int]) -> list[str]:
    """Fields of the settings class `cls` of `module` that no call of `cls` in
    `users` passes by keyword (or through **). Calls on the lines of `mirror`,
    (path, first line, last line), do not count: they copy another object's
    fields and set nothing themselves."""
    where, first, last = mirror
    passed = [(keywords, spread) for path in users
              for called, line, _, keywords, spread in _calls(path)
              if called == cls and not (path == where and first <= line <= last)]
    return [name for name in _dataclass_fields(module, cls)
            if not any(name in keywords or spread for keywords, spread in passed)]


def test_every_setting_is_passed_somewhere():
    # a setting of OptimizerConfig that only the spec's mirror passes is a
    # knob nothing sets
    _, users = _modules_and_users()
    harness = PACKAGE / "harness.py"
    first, last = next((first, last) for name, first, last in _public_definitions(harness)
                       if name == "ExperimentSpec.optimizer_config")
    missing = _unset_fields(PACKAGE / "altopt.py", "OptimizerConfig", users,
                            (harness, first, last))
    assert not missing, "settings no call passes:\n" + "\n".join(missing)


def test_settings_guard_sees_keywords_and_skips_the_mirror(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("class Cfg:\n    a: int = 1\n    b: int = 2\n    c: int = 3\n\n"
                   "def mirror(spec):\n    return Cfg(a=spec.a, b=spec.b,\n"
                   "               c=spec.c)\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import Cfg\nCfg(a=0)\nCfg(5, 6)\n")
    assert _unset_fields(mod, "Cfg", [mod, user], (mod, 6, 8)) == ["b", "c"]
    user.write_text("from mod import Cfg\nCfg(**kw)\n")
    assert _unset_fields(mod, "Cfg", [mod, user], (mod, 6, 8)) == []
