"""Static checks over the package source: every module imports only what it
uses, only fieldio splits ``key = value`` lines, the CLI reads only the
config keys that config's key table declares, and every checked dataclass
is frozen."""

import ast
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
