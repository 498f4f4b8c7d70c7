"""Static layering rules of the package, checked on its source with ``ast``.

Modules use each other only through public names, so every concept has
one implementation that other modules call instead of reaching into
its helpers; every name a module exports in ``__all__`` exists; and
size caps are module constants, not parameters or config fields.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mrsk"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imports_from_package(tree: ast.Module):
    """(module, name) for every ``from .x import name`` / ``from mrsk.x import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 0 or module == "mrsk" or module.startswith("mrsk."):
                for alias in node.names:
                    yield module, alias.name


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def declared_all(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_sources_found():
    assert {p.stem for p in MODULES} >= {"channel", "modem", "analysis", "simulate", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_imports_across_modules(path):
    private = [
        f"{module}.{name}"
        for module, name in imports_from_package(parse(path))
        if name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_exists(path):
    tree = parse(path)
    exported = declared_all(tree)
    if exported is None:
        return
    missing = sorted(set(exported) - top_level_names(tree))
    assert not missing, f"{path.name} exports undefined names {missing}"
    assert len(exported) == len(set(exported)), f"{path.name} lists a name twice in __all__"


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_caps_are_module_constants(path):
    # a size cap is a module constant, never a parameter or a config field
    names = []
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None:
                    names.append(arg.arg)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            names += [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    capped = sorted(name for name in names if name.endswith("_cap"))
    assert not capped, f"{path.name} takes caps as parameters or fields: {capped}"
