"""Every public name has a caller outside the tests, and the library has
few public names, few settable values and few lines.

A name in a keldrot module's `__all__` is live when code outside `tests/`
reads it: a script, the benchmark harness, module-level code of the
package, or the body of a top-level function or class that is itself
live.  Liveness is closed transitively, so a constant that only a
test-only function reads is not live either.

A bare name read is matched by identifier, not resolved to its module.
An attribute read `base.attr` counts only when `base` denotes a keldrot
module: an import alias (`ser.kernel_to_csv`), a name assigned from a
module (`D = lib.diracsea`), an attribute or string subscript spelled as
a module (`lib.cli.main`, `mods["acceptance"]`) or `keldrot.<module>`.
So `grid.lags` or `Signal.zero` never keeps a public `lags` or `zero`
alive.

A settable value is a parameter with a default of a public function or
method, or a dataclass field with a default, counted by AST over the
package's modules.  Public means a module-level function, or a method of a
module-level class, whose name and whose class's name do not start with
an underscore.  A field has a default when it is assigned a value other
than a `field(...)` call, or a `field(...)` call with `default` or
`default_factory`.  A default that no caller outside the tests sets is an
option nobody uses: make it a constant instead.  A default that every
caller outside the tests overrides is a configuration nobody runs: remove
it, and the parameter becomes required.

A finiteness check is written once, in `grids` (`_require_finite`,
`_require_positive`); elsewhere only the checks that test more than
finiteness and sign call `isfinite` themselves (FINITENESS_SPECIAL_CASES).
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "keldrot"
MAX_SETTABLE_VALUES = 23
MAX_PUBLIC_NAMES = 100  # the entries of every module's `__all__`, the package's own included
MAX_SOURCE_LINES = 3943  # `wc -l src/keldrot/*.py`
# the read half of a CLI output format: `kernel_from_csv` reads the kernel
# CSV that `kernel_to_csv` writes for the oscillator, mc and kernels verbs
READERS_OF_CLI_OUTPUT = {"kernel_from_csv"}
# (module, top-level function or class) that may call isfinite outside
# `grids`: a bound besides the sign, a complex value or a list of masses
FINITENESS_SPECIAL_CASES = {
    ("medium", "one_mode_toy"),  # the coupling must keep omega'^2 > 0
    ("medium", "noise_map"),  # the scale of a matrix, and a white level
    ("oscillator", "GaussianState"),  # the complex squeezing m
    ("pvreg", "geometric_masses"),  # the ratio must exceed 1
    ("pvreg", "_checked_masses"),  # every mass of a list
}


MODULES = {path.stem for path in PACKAGE.glob("*.py")} | {"keldrot"}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names that a file binds to a keldrot module, by import or by
    assignment from a module expression."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "keldrot"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "keldrot"):
            aliases |= {a.asname or a.name for a in node.names if a.name in MODULES}
    for _ in range(2):  # an alias may be assigned from another alias
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    aliases |= {t.id for t, v in pairs
                                if isinstance(t, ast.Name) and _is_module(v, aliases)}
    return aliases


def _is_module(node: ast.AST, aliases: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.Attribute):
        return node.attr in MODULES
    if isinstance(node, ast.Subscript):
        key = node.slice
        return isinstance(key, ast.Constant) and key.value in MODULES
    return False


def _reads(node: ast.AST, aliases: set[str]) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and _is_module(sub.value, aliases):
            out.add(sub.attr)
    return out


def _live_names() -> set[str]:
    roots, units = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                units.setdefault(node.name, set()).update(_reads(node, aliases))
            else:
                roots |= _reads(node, aliases)
    for folder in ("perfbench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            roots |= _reads(tree, _module_aliases(tree))
    live, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(units.get(name, ()))
    return live


def test_every_public_name_has_a_non_test_caller():
    live = _live_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        mod = importlib.import_module(f"keldrot.{path.stem}")
        unused += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", [])
                   if name not in live and name not in READERS_OF_CLI_OUTPUT]
    assert not unused, f"public names with no caller outside tests/: {unused}"


def test_few_public_names():
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "keldrot" if path.stem == "__init__" else f"keldrot.{path.stem}"
        names += [f"{module}.{name}"
                  for name in getattr(importlib.import_module(module), "__all__", [])]
    assert len(names) <= MAX_PUBLIC_NAMES, (
        f"{len(names)} public names, at most {MAX_PUBLIC_NAMES}: {names}")


def _defaulted_parameters(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _has_default(field: ast.AnnAssign) -> bool:
    value = field.value
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _settable_values() -> list[str]:
    """One entry per settable value, named by its function or field."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            where = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                found += [where] * _defaulted_parameters(node)
                continue
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    found += [f"{where}.{sub.name}"] * _defaulted_parameters(sub)
                elif (_is_dataclass(node) and isinstance(sub, ast.AnnAssign)
                      and isinstance(sub.target, ast.Name) and _has_default(sub)):
                    found.append(f"{where}.{sub.target.id}")
    return found


def test_source_lines_within_budget():
    lines = sum(path.read_text().count("\n") for path in PACKAGE.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"{lines} lines in src/keldrot, at most {MAX_SOURCE_LINES}"


def test_few_settable_values():
    found = _settable_values()
    assert len(found) <= MAX_SETTABLE_VALUES, (
        f"{len(found)} settable values, at most {MAX_SETTABLE_VALUES}: {found}")


def test_finiteness_checked_in_grids():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "grids":
            continue
        for unit in ast.parse(path.read_text()).body:
            for sub in ast.walk(unit):
                if (isinstance(sub, ast.Call)
                        and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == "isfinite"
                        and (path.stem, getattr(unit, "name", None)) not in FINITENESS_SPECIAL_CASES):
                    found.append(f"{path.stem}.py:{sub.lineno}")
    assert not found, f"hand-written finiteness checks outside grids: {found}"
