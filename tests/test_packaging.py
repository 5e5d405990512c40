"""What the package declares and what it loads: dependencies and start-up imports."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
TEST_ONLY = {"hypothesis", "pytest"}


def _third_party_imports(files, local=()) -> dict[str, str]:
    """Top-level imported module -> first file importing it, stdlib and local modules left out."""
    found = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.name)
    return found


def _requirement_names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_package_imports_are_declared_dependencies():
    project = _project()
    declared = _requirement_names(project["dependencies"])
    imported = _third_party_imports(sorted((SRC / "qwavesim").glob("*.py")), local={"qwavesim"})
    undeclared = {name: where for name, where in imported.items() if name not in declared}
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"
    assert not declared & TEST_ONLY, "test tools belong in the test extra"


def test_test_imports_are_declared_in_the_test_extra():
    project = _project()
    declared = _requirement_names(project["dependencies"])
    test_extra = _requirement_names(project["optional-dependencies"]["test"])
    assert test_extra == TEST_ONLY
    local = {"qwavesim", *(p.stem for p in TESTS.glob("*.py"))}
    imported = _third_party_imports(sorted(TESTS.glob("*.py")), local=local)
    undeclared = {n: where for n, where in imported.items() if n not in declared | test_extra}
    assert not undeclared, f"imported by the tests but declared nowhere: {undeclared}"


def _modules_after(statement: str, package: str = "scipy") -> set[str]:
    """The modules of package in sys.modules after running statement in a fresh interpreter."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"import sys; {statement}; print(*(m for m in sys.modules if m.startswith({package!r})))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.splitlines()[-1].split())  # a command prints its own lines first


def test_package_import_loads_no_scipy_module():
    # every scipy module is imported where it is first used, so a command
    # pays only for what it runs
    for statement in ("import qwavesim", "import qwavesim.cli"):
        loaded = _modules_after(statement)
        assert not loaded, f"{statement} loads {sorted(loaded)}"


def test_package_import_loads_no_numpy_polynomial():
    # the forced solve's Gauss-Legendre rule is computed at its first use
    loaded = _modules_after("import qwavesim.cli", "numpy.polynomial")
    assert not loaded, f"import qwavesim.cli loads {sorted(loaded)}"


# scipy.sparse's generic constructors: the stencils, A and K are written
# straight into their CSR arrays, and these would be a second way to build them
SPARSE_BUILDERS = {"kron", "bmat", "diags"}


def test_no_operator_is_built_through_scipy_sparse_algebra():
    calls = []
    for path in sorted((SRC / "qwavesim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sparse = {"scipy.sparse"}  # the names scipy.sparse is reached by in this module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                sparse |= {a.asname for a in node.names if a.name == "scipy.sparse" and a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.sparse"):
                calls += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names
                          if a.name in SPARSE_BUILDERS]
            elif (isinstance(node, ast.Attribute) and node.attr in SPARSE_BUILDERS
                  and ast.unparse(node.value) in sparse):
                calls.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not calls, f"operators built through scipy.sparse constructors: {calls}"


DEFERRED = {"scipy.special", "scipy.interpolate", "scipy.sparse.linalg", "scipy.fft"}


def _run_command(command: str, scenario: str, out, *extra) -> set[str]:
    """The scipy modules a fresh interpreter holds after one successful command."""
    args = [command, "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
            "--out", str(out), *map(str, extra)]
    return _modules_after(f"from qwavesim import cli; assert cli.main({args!r}) == 0")


@pytest.mark.parametrize(
    "command, scenario, needs",
    [
        ("simulate", "acoustic_demo", {"scipy.sparse"}),
        ("simulate", "driven_boundary_demo", {"scipy.sparse"}),
        # its windowed slices (expit) are solved in the box basis (DCTs)
        ("presim", "acoustic_demo", {"scipy.sparse", "scipy.fft", "scipy.special"}),
        ("initcircuit", "initcircuit_demo", set()),
    ],
)
def test_a_command_loads_the_scipy_modules_the_readme_names(tmp_path, command, scenario, needs):
    # README "Start-up": simulating or slicing assembles an operator, which
    # imports scipy.sparse; the other four load only where they are used
    loaded = _run_command(command, scenario, tmp_path / "out")
    assert loaded & (DEFERRED | {"scipy.sparse"}) == needs
    assert needs or not loaded, f"{command} loads {sorted(loaded)}"


@pytest.mark.parametrize("scenario", ["acoustic_demo", "driven_boundary_demo"])
def test_measure_loads_no_scipy(tmp_path, scenario):
    # measure assembles no operator: a scenario's pair and system are built
    # at their first use, and measure reads only the unknown count and masks
    _run_command("simulate", scenario, tmp_path / "sim")
    state = tmp_path / "sim" / "state.csv"
    for extra in ((), ("--shots", 1000, "--seed", 3)):
        loaded = _run_command("measure", scenario, tmp_path / "measure", "--state", state, *extra)
        assert not loaded, f"measure on {scenario} {extra} loads {sorted(loaded)}"


def test_no_module_imports_a_private_name_from_a_sibling():
    # what two modules share is public; a private helper stays in its module
    private = []
    for path in sorted((SRC / "qwavesim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "qwavesim"
            ):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not private, f"private names imported from a sibling module: {private}"


SETTERS = ("setattr", "object.__setattr__")


def test_no_module_reads_a_private_attribute_of_another():
    # a private attribute is read only where it is defined: in the module that
    # assigns it (self._x = ..., setattr(self, "_x", ...), a _x field or
    # method). Reads through a module bound by a plain import, such as
    # os._exit, are that module's own business.
    foreign = []
    for path in sorted((SRC / "qwavesim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, defined = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in SETTERS:
                defined |= {a.value for a in node.args[1:2] if isinstance(a, ast.Constant)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.attr
            on_module = isinstance(node.value, ast.Name) and node.value.id in modules
            if name.startswith("_") and not name.startswith("__") and name not in defined:
                if not on_module:
                    foreign.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not foreign, f"private attributes read outside the module defining them: {foreign}"


# the only functions that may hold complex values: the phases e^{-i s t} of
# the propagator and of the Duhamel integral; every register amplitude is real
COMPLEX_SCOPES = {"Hamiltonian.propagate", "spectral_forced_solution", "_duhamel_integrals"}
COMPLEX_NAMES = {"complex", "complex128"}


def _complex_uses(node, scope="") -> list[tuple[str, int]]:
    """(enclosing function, line) of every imaginary literal and complex dtype name under node.

    A name counts as a bare name, an attribute such as np.complex128 or a
    string such as dtype="complex"; docstrings and comments never equal one.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    value = node.value if isinstance(node, ast.Constant) else None
    if (
        isinstance(value, complex)
        or isinstance(value, str) and value in COMPLEX_NAMES
        or isinstance(node, ast.Name) and node.id in COMPLEX_NAMES
        or isinstance(node, ast.Attribute) and node.attr in COMPLEX_NAMES
    ):
        uses = [(scope, node.lineno)]
    else:
        uses = []
    for child in ast.iter_child_nodes(node):
        uses += _complex_uses(child, scope)
    return uses


def test_complex_values_live_only_in_the_propagator_phases():
    scopes = {}
    for path in sorted((SRC / "qwavesim").glob("*.py")):
        for scope, line in _complex_uses(ast.parse(path.read_text(), filename=str(path))):
            scopes.setdefault(scope or "<module>", []).append(f"{path.name}:{line}")
    outside = {scope: where for scope, where in scopes.items() if scope not in COMPLEX_SCOPES}
    assert not outside, f"complex literals or dtypes outside {sorted(COMPLEX_SCOPES)}: {outside}"
    assert set(scopes) == COMPLEX_SCOPES  # the scan finds the phases it allows
