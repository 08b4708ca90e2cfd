"""Import structure of the package: each module keeps its internals."""

import ast
from pathlib import Path

import horocount
import horocount.latcount
import horocount.moebius

PACKAGE = Path(horocount.__file__).parent


def trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def package_imports(tree):
    """(module name, imported names, node) of each import of a horocount module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level >= 1:
                names = [a.name for a in node.names]
                if node.module is None:  # from . import x, y
                    for name in names:
                        yield name, [], node
                else:
                    yield node.module.split(".")[0], names, node
            elif node.module and node.module.split(".")[0] == "horocount":
                parts = node.module.split(".")
                yield (parts[1] if len(parts) > 1 else "horocount"), [a.name for a in node.names], node
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "horocount" and len(parts) > 1:
                    yield parts[1], [], node


def test_no_private_names_across_modules():
    bad = [(mod, src, name) for mod, tree in trees().items()
           for src, names, _ in package_imports(tree)
           for name in names if name.startswith("_")]
    assert bad == []


def test_latcount_imports_only_quadform_at_top_level():
    tree = trees()["latcount"]
    imported = {src for src, _, _ in package_imports(tree)}
    assert imported == {"quadform"}
    top = set(map(id, tree.body))
    assert all(id(node) in top for _, _, node in package_imports(tree))


def test_one_moebius_table():
    assert horocount.moebius.sieve is horocount.latcount.sieve


def test_no_call_time_imports():
    late = [(mod, node.lineno) for mod, tree in trees().items()
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for _, _, node in package_imports(fn)]
    assert late == []


def test_counting_mode_is_set_in_latcount_only():
    # the consumers of latcount's counts take no counting mode of their own
    with_mode = [(mod, fn.name) for mod, tree in trees().items()
                 if mod in ("orbits", "moebius", "randlat", "equidist")
                 for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                 if arg.arg == "mode"]
    assert with_mode == []
