"""Static checks over the package source: every module imports only what it
uses, only fieldio splits ``key = value`` lines, only sensitivity forms
tangent-pair Jacobians, only grid words a range rule, the CLI reads only the
config keys that config's key table declares, and every checked dataclass is
frozen."""

import ast
import re
from pathlib import Path

import pytest

from sgf2d.config import _PROBLEM_KEYS, _RUN_KEYS

SRC = Path(__file__).resolve().parents[1] / "src" / "sgf2d"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no Name node of the module reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def equals_splits(tree: ast.Module) -> list[int]:
    """Line numbers of every ``.partition("=")`` or ``.split("=")`` style call."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("partition", "rpartition", "split", "rsplit")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "="
    )


def test_fieldio_splits_pairs():
    assert equals_splits(ast.parse((SRC / "fieldio.py").read_text()))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "fieldio.py"], ids=lambda p: p.name
)
def test_only_fieldio_splits_pairs(path):
    # every key = value reader goes through fieldio.read_pairs
    assert equals_splits(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_sensitivity_forms_tangent_pair_jacobians(path):
    # TangentState.cross and cross_with own every J(dq_i, dpsi_j) stack
    calls = path.read_text().count("stack_pairs(arakawa")
    assert calls == 0 or (path.name == "sensitivity.py" and calls <= 2)


RULE_FRAGMENTS = ("and finite", "must be >=")


def rule_wordings(tree: ast.Module) -> list[int]:
    """Line numbers of every string constant, f-string parts included, that
    holds the wording of a range rule."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(f in node.value for f in RULE_FRAGMENTS)
    )


def test_grid_words_the_rules():
    assert rule_wordings(ast.parse((SRC / "grid.py").read_text()))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name
)
def test_only_grid_words_the_rules(path):
    # every range check goes through grid._check_count or grid._check_real
    assert rule_wordings(ast.parse(path.read_text())) == []


def config_keys_read(tree: ast.Module) -> set[str]:
    """Every constant key of an ``rc["…"]`` or ``config["…"]`` subscript."""
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("rc", "config")
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    }


def checked_dataclasses(tree: ast.Module) -> dict[str, bool]:
    """name: whether declared frozen=True, of every @dataclass class that
    defines __post_init__."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
            isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for f in node.body
        ):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            name = call.func if call else deco
            if isinstance(name, ast.Name) and name.id == "dataclass":
                out[node.name] = call is not None and any(
                    k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                    for k in call.keywords
                )
    return out


def test_checked_dataclasses_are_frozen():
    # __post_init__ checks the fields once; an assignment afterwards would skip
    # the checks, so a changed value is built with dataclasses.replace
    found = {}
    for path in MODULES:
        found.update(checked_dataclasses(ast.parse(path.read_text())))
    assert {"ProblemData", "OptimizeOptions", "DomainConstants", "Trajectory"} <= set(found)
    assert [name for name, frozen in found.items() if not frozen] == []


def test_cli_reads_only_declared_config_keys():
    # the key table in config is the only declaration of a config key
    read = config_keys_read(ast.parse((SRC / "cli.py").read_text()))
    assert {"seed", "snapshot_every", "kinds", "n_starts"} <= read
    assert read - set(_PROBLEM_KEYS) - set(_RUN_KEYS) == set()


ROOT = SRC.parents[1]


def top_level_names(tree: ast.Module) -> set[str]:
    """Every function and class defined at the top level of a module."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def unreached_definitions(src: Path, users: list[Path]) -> list[str]:
    """module.name of each top-level function or class of src that is not in
    the package's __all__ and that no module of src or users names."""
    exported = set()
    for node in ast.walk(ast.parse((src / "__init__.py").read_text())):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = set()
    for path in sorted(src.glob("*.py")) + users:
        read |= names_read(ast.parse(path.read_text()))
    return sorted(
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in top_level_names(ast.parse(path.read_text()))
        if name not in exported and name not in read
    )


def test_every_definition_is_exported_or_used():
    # an evaluator that only tests call lives in tests/helpers.py, not in src
    users = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    assert len(users) >= 7
    assert unreached_definitions(SRC, users) == []


def class_members(tree: ast.Module):
    """(name, first line, last line) of every non-dunder method or property
    defined in a class body."""
    return [
        (item.name, item.lineno, item.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def attribute_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every ``.name`` in a module."""
    return [(node.attr, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def unnamed_members(src: Path, users: list[Path], texts: list[str]) -> list[str]:
    """module.member of each class member of src that no ``.member`` names
    outside its own definition, in src, in users or in texts."""
    reads = {
        path: attribute_reads(ast.parse(path.read_text()))
        for path in sorted(src.glob("*.py")) + users
    }
    found = []
    for path in sorted(src.glob("*.py")):
        for name, first, last in class_members(ast.parse(path.read_text())):
            named = any(
                attr == name and not (other == path and first <= line <= last)
                for other, pairs in reads.items()
                for attr, line in pairs
            ) or any(re.search(rf"\.{name}\b", text) for text in texts)
            if not named:
                found.append(f"{path.stem}.{name}")
    return found


def test_every_class_member_is_named():
    # a method or property that nothing reads is dead weight on its class
    users = (
        sorted((ROOT / "tests").glob("*.py"))
        + sorted((ROOT / "demos").glob("*.py"))
        + sorted((ROOT / "perfbench").rglob("*.py"))
    )
    assert unnamed_members(SRC, users, [(ROOT / "README.md").read_text()]) == []
