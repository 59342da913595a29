"""Every public function, method, property and dataclass field of the package
has a user.

A public name is covered by one of: a reference in src/ outside its own
definition, a use in pipebench/ (as a name or as the string the tracer
patches by), or an entry of ALLOWED with its reason. A function is
referenced by its bare name or as an attribute (module.name); a method or
property only as an attribute (x.name), so that a local variable of the same
name does not cover it. An export from mortboost/__init__.py is not a use: a
name that only tests and the export list reach is library surface that no
command or workload runs. References are matched by name, so two
definitions of one name are covered together.

A public field of a public dataclass is covered by an attribute read of its
name (x.name) in src/ or pipebench/, by a string constant in src/ that names
it (the model kinds are read by getattr), or by an entry of ALLOWED.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mortboost"

ALLOWED = {
    "grids.MortalityTable.total_deaths": "acceptance criterion 9 checks a parsed HMD table by it",
    "grids.AgeBucketing.single_ages": "the trivial partition, the identity case of acceptance criterion 8",
    "tree.PoissonTree.leaves": "acceptance criterion 2 checks the calibration of every leaf over it",
    "backtest.BacktestResult.mu_hat": "acceptance criteria 5, 6, 9 and 10 read the fitted tree factors",
    "tree.Node.reduction": "tests/oracle.py compares each split's reduction (criterion 1)",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions() -> dict[str, tuple[Path, str, int, int]]:
    """Qualified name -> (file, bare name, first line, last line) of every
    public module-level function and every public method of a module-level
    class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                found[f"{module}.{node.name}"] = (path, node.name, node.lineno, node.end_lineno)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        qualified = f"{module}.{node.name}.{item.name}"
                        found[qualified] = (path, item.name, item.lineno, item.end_lineno)
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def fields() -> dict[str, str]:
    """Qualified name -> bare name of every public field of a public
    module-level dataclass: an annotated name of its body that is not a
    ClassVar."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _public(node.name) and _is_dataclass(node):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                            and _public(item.target.id) and "ClassVar" not in ast.unparse(item.annotation)):
                        found[f"{path.stem}.{node.name}.{item.target.id}"] = item.target.id
    return found


def references(paths, strings: bool = False) -> dict[str, list[tuple[Path, int, bool]]]:
    """Bare name -> (file, line, is attribute) of every name or attribute
    read in paths, and of every string constant when strings is set."""
    found: dict[str, list[tuple[Path, int, bool]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name, attribute = node.id, False
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name, attribute = node.attr, True
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name, attribute = node.value, False
            else:
                continue
            found.setdefault(name, []).append((path, node.lineno, attribute))
    return found


def uncovered() -> list[str]:
    in_src = references(sorted(PACKAGE.glob("*.py")))
    in_bench = references(sorted((ROOT / "pipebench").glob("*.py")), strings=True)
    dead = []
    for qualified, (path, name, first, last) in definitions().items():
        method = qualified.count(".") == 2
        used = any((p != path or not first <= line <= last) and (attribute or not method)
                   for p, line, attribute in in_src.get(name, ()))
        if not (used or name in in_bench or qualified in ALLOWED):
            dead.append(qualified)
    return dead


def uncovered_fields() -> list[str]:
    src = sorted(PACKAGE.glob("*.py"))
    read = references(src + sorted((ROOT / "pipebench").glob("*.py")))
    strings = {node.value for path in src for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    dead = []
    for qualified, name in fields().items():
        attribute_read = any(attribute for _, _, attribute in read.get(name, ()))
        if not (attribute_read or name in strings or qualified in ALLOWED):
            dead.append(qualified)
    return dead


def test_every_public_name_has_a_user():
    dead = uncovered()
    assert not dead, f"no command or workload uses {dead}: delete them, or allow them with a reason"


def test_every_dataclass_field_has_a_reader():
    dead = uncovered_fields()
    assert not dead, f"nothing reads the fields {dead}: delete them, or allow them with a reason"


def test_every_allowed_name_still_exists():
    assert set(ALLOWED) <= set(definitions()) | set(fields())
