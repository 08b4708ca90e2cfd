"""Import structure of the package: each module keeps its internals."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import horocount
import horocount.latcount
import horocount.moebius
from horocount.acceptance import random_form
from horocount.equidist import EquidistError
from horocount.latcount import CountingError, EnumerationBudgetError
from horocount.quadform import GeometryError, HorocountError
from horocount.randlat import sample_walk

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


def scipy_imports(node, scope="<module>"):
    """Enclosing function name ("<module>" outside any) of each import of scipy."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [a.name for a in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            yield scope
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from scipy_imports(child, inner)


def run_fresh(code):
    """Last stdout line of code run in a new interpreter, read as JSON."""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


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


def test_d2_estimates_take_no_dimension():
    # the norm, Lipschitz, integrated-bound and pointwise-bound estimates run at d = 2 only
    with_dim = [fn.name for fn in ast.walk(trees()["equidist"])
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name in ("estimate_f_norm", "estimate_lipschitz", "integrated_error_bound",
                                "check_thm12_bound")
                for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                if arg.arg == "d"]
    assert with_dim == []


def test_scipy_imported_only_where_called():
    # expm is the one scipy function in the package; only the walk and the
    # acceptance forms call it, so no other process should load scipy
    found = sorted((mod, fn) for mod, tree in trees().items() for fn in scipy_imports(tree))
    assert found == [("acceptance", "random_form"), ("randlat", "sample_walk")]


def test_cli_cold_start_loads_no_scipy():
    loaded = run_fresh(
        "import json, sys\n"
        "import horocount, horocount.cli\n"
        "horocount.cli.main(['constants', '--dim', '3'])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    assert loaded == []


def test_invalid_walk_loads_no_scipy():
    # sample_walk checks its arguments before it imports expm
    out = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from horocount.cli import main\n"
        "from horocount.latcount import CountingError\n"
        "from horocount.randlat import sample_walk\n"
        "try:\n"
        "    sample_walk(np.random.default_rng(0), 1)\n"
        "    raised = False\n"
        "except CountingError:\n"
        "    raised = True\n"
        "code = main(['meansq', '--dim', '3', '--radius', '5', '--samples', '0',\n"
        "             '--sampler', 'walk'])\n"
        "print(json.dumps([raised, code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n")
    assert out == [True, 2, []]


def test_call_time_expm_gives_the_same_numbers():
    # other test modules import scipy, so in-process calls find it loaded; a
    # new interpreter meets the call-time import cold and must draw the same bits
    child = run_fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from horocount.acceptance import random_form\n"
        "from horocount.randlat import sample_walk\n"
        "before = 'scipy' in sys.modules\n"
        "walk = sample_walk(np.random.default_rng(3), 3, n=5, burn_in=100, thin=1)\n"
        "after = 'scipy.linalg' in sys.modules\n"
        "gram = random_form(np.random.default_rng(3), 3).gram\n"
        "print(json.dumps([before, after, [s.basis.mat.tobytes().hex() for s in walk],"
        " gram.tobytes().hex()]))\n")
    walk = sample_walk(np.random.default_rng(3), 3, n=5, burn_in=100, thin=1)
    gram = random_form(np.random.default_rng(3), 3).gram
    assert child == [False, True, [s.basis.mat.tobytes().hex() for s in walk], gram.tobytes().hex()]


def test_every_refusal_is_a_horocount_error():
    # the CLI turns exactly these into usage errors (exit 2)
    for cls in (GeometryError, CountingError, EnumerationBudgetError, EquidistError):
        assert issubclass(cls, HorocountError)
    assert issubclass(HorocountError, ValueError)
