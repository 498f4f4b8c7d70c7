"""Static layering rules of the package, checked on its source with ``ast``.

Modules use each other only through public names, so every concept has
one implementation that other modules call instead of reaching into
its helpers; every name a module exports in ``__all__`` exists and has
a caller in the package or a listed entry point, so helpers whose only
callers are tests live in ``tests/``; size caps are module constants,
not parameters or config fields; and only ``cli`` names the bit time
``t_b``, which its experiment spec turns into the symbol interval every
other module reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mrsk"
MODULES = sorted(SRC.glob("*.py"))
# exported names no package module calls, each with its caller outside the package
ENTRY_POINTS = {
    "cli.main": "the console script of pyproject.toml",
    "cli.replay_csv": "the README's replay API",
    "ratio_stats.solid_ratio_cdf": "the paper's closed-form CDF, checked against quadrature",
    "simulate.particle_hit_fraction": "perfbench's hit-fraction experiments",
}


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


def package_source(node: ast.ImportFrom):
    """The package module a ``from`` import reads ("" for the package), or None outside it."""
    module = node.module or ""
    if node.level > 0:
        return module
    if module == "mrsk" or module.startswith("mrsk."):
        return module[len("mrsk.") :]
    return None


def package_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every package name the module reads.

    ``from .x import f`` counts where the module reads f, and
    ``from . import x`` where it reads ``x.f``.
    """
    bound = {}  # local name -> (module, name), or (module, None) for a module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_source(node) is not None:
            source = package_source(node)
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = (source, alias.name) if source else (alias.name, None)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and bound.get(node.id, (None, None))[1] is not None:
            reads.add(bound[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, name = bound.get(node.value.id, (None, ""))
            if name is None:
                reads.add((module, node.attr))
    return reads


def own_reads(tree: ast.Module) -> set[str]:
    """Names read by a top-level statement of the module other than their definition."""
    reads = set()
    for stmt in tree.body:
        defined = set()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
        reads.update(
            node.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in defined
        )
    return reads


def idle_exports(modules, entry_points) -> list[str]:
    """``module.name`` of every export with no caller in the package and not in ``entry_points``.

    A caller is another module reading the name, or its own module reading
    it outside its definition; ``__init__`` only re-exports, so it is neither.
    """
    trees = {path.stem: parse(path) for path in modules}
    called = {
        (module, name)
        for stem, tree in trees.items()
        if stem != "__init__"
        for module, name in package_reads(tree)
        if module != stem
    }
    idle = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        own = own_reads(tree)
        for name in declared_all(tree) or ():
            if (stem, name) not in called and name not in own and f"{stem}.{name}" not in entry_points:
                idle.append(f"{stem}.{name}")
    return idle


def test_every_export_has_a_caller():
    idle = idle_exports(MODULES, ENTRY_POINTS)
    assert not idle, f"exported with callers only outside the package (move them to tests/): {idle}"


def test_callers_are_resolved_not_grepped(tmp_path):
    # f reads only itself and is named in a docstring; g is read under an
    # alias and h as a module attribute
    (tmp_path / "a.py").write_text(
        '__all__ = ["f", "g", "h"]\n\n\ndef f():\n    return f\n\n\n'
        'def g():\n    """Unlike f."""\n\n\ndef h():\n    pass\n'
    )
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import g as run\n\nrun()\na.h()\n")
    assert idle_exports([tmp_path / "a.py", tmp_path / "b.py"], {}) == ["a.f"]


def test_entry_points_are_exported_and_uncalled():
    # an entry that a module calls, or that no module exports, is stale
    exported = {
        f"{path.stem}.{name}" for path in MODULES for name in declared_all(parse(path)) or ()
    }
    assert set(ENTRY_POINTS) <= exported
    assert sorted(idle_exports(MODULES, {})) == sorted(ENTRY_POINTS)


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


def bit_time_names(tree: ast.Module) -> list[str]:
    """``kind:line`` of every parameter, keyword, name or attribute spelled ``t_b``."""
    found = []
    for node in ast.walk(tree):
        for kind, cls, attr in (
            ("parameter", ast.arg, "arg"),
            ("keyword", ast.keyword, "arg"),
            ("name", ast.Name, "id"),
            ("attribute", ast.Attribute, "attr"),
        ):
            if isinstance(node, cls) and getattr(node, attr) == "t_b":
                found.append(f"{kind}:{node.lineno}")
    return sorted(found)


def test_bit_time_names_found_in_every_form():
    tree = ast.parse('def f(t_b):\n    """t_b in a docstring."""\n    return g(t_b=spec.t_b)\n')
    assert bit_time_names(tree) == ["attribute:3", "keyword:3", "parameter:1"]
    assert bit_time_names(ast.parse("x = t_b * 2\n")) == ["name:1"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "cli"], ids=lambda p: p.stem)
def test_only_cli_names_the_bit_time(path):
    # the bit time has one home: ExperimentSpec.channel turns it into Ts = M (N - 1) t_b,
    # and every other module reads the symbol interval of the channel it is given
    found = bit_time_names(parse(path))
    assert not found, f"{path.name} names t_b at {found}; take the interval from channel.Ts"
