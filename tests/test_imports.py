"""The package boundary: what importing circtrees loads, and what it exports.

The package has no runtime dependency: no module under ``src/circtrees``
imports mpmath, which the tests keep as a reference only, and every
command and every exported name works with mpmath refused.  The package
resolves the names of ``chebyshev`` and ``mahler`` on first use, and no
command loads a standard-library module it does not run (``dataclasses``
and ``inspect``, ``logging`` but for an escalation, ``csv`` but for
``--format csv``).  The import checks run in fresh interpreters, since this
test process has long since loaded everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circtrees
from circtrees import algebra, chebyshev, exact, mahler

ALL = [
    "CertificationError", "CertifiedRoots", "CirculantSpec", "CirctreesError",
    "Decomposition", "DisconnectedGraphError", "IntPolynomial",
    "InternalConsistencyError", "LaurentSpectrum", "MahlerEstimate",
    "NotAttemptedError", "QuadratureError", "RootRefinementError",
    "SpecError", "SpecParseError", "ThermoSeries", "associated_laurent",
    "asymptotic_ratio", "bareiss_determinant", "build_even_char",
    "build_odd_char", "canonicalize", "cheb_t", "cheb_u",
    "component_count", "decompose", "eigenvalue", "expected_coefficient",
    "family_spec", "find_roots", "is_connected", "laplacian",
    "mahler_quadrature", "mahler_root_product", "multiplier_conjugate",
    "parse_spec", "sequence_a", "square_free_part", "tau_closed_form",
    "tau_even", "tau_odd", "tau_oracle", "thermo_limit",
]

# the subcommands other than verify; ``mahler 2,4`` takes the reduce path
EXACT_COMMANDS = [
    ["tau", "C97(2,3;d)", "--method", "both"],
    ["decompose", "C149(3,4)"],
    ["sequence", "2,3", "--n", "4..20", "--check-recursion", "1,1,1,-1"],
    ["mahler", "1,2,3", "--family", "diagonal", "--method", "both"],
    ["mahler", "2,4", "--method", "both"],
    ["asymptote", "2,4", "--n", "9..15"],
]

VERIFY_COMMANDS = [
    ["verify", "C*(1,3)", "--n-max", "36"],
    ["verify", "C*(2,3;d)", "--n-max", "16"],
]

REFUSE_MPMATH = """
import sys

class RefuseMpmath:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "mpmath":
            raise ImportError(f"{name} refused")
        return None
"""

RUN_SCRIPT = REFUSE_MPMATH + """
import contextlib, io, json

if sys.argv[1] == "block":
    sys.meta_path.insert(0, RefuseMpmath())
from circtrees.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "mpmath": "mpmath" in sys.modules}))
"""


def run_python(*args):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc


def python(*args):
    return run_python(*args).stdout


def imported_modules(*args):
    """The modules a fresh interpreter imports running ``args``, as
    ``-X importtime`` lists them."""
    return {line.rsplit("|", 1)[1].strip()
            for line in run_python("-X", "importtime", *args).stderr
            .splitlines() if line.startswith("import time:")}


def foreign_private_names(source, modules):
    """(module, name) for each underscore name of another package module
    that ``source`` imports or reads as an attribute, ``dyadic``'s aside.

    ``modules`` holds the package's module names; ``from .x import _y``,
    ``from circtrees.x import _y`` and ``x._y`` after ``from . import x``
    count, dunder names do not.
    """
    def private(module, name):
        return (module in modules and module != "dyadic"
                and name.startswith("_") and not name.startswith("__"))

    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.startswith("circtrees"):
            module = module[len("circtrees"):].lstrip(".")
        elif node.level != 1:
            continue
        for alias in node.names:
            if module:
                if private(module, alias.name):
                    found.append((module, alias.name))
            elif alias.name in modules:
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and private(aliases.get(node.value.id), node.attr)):
            found.append((aliases[node.value.id], node.attr))
    return found


# standard-library modules no command below runs; the interpreter's own
# start-up may load some of them, so only those the package adds count
UNUSED_AT_START = {"dataclasses", "inspect", "logging", "csv"}


def assert_same_with_mpmath_refused(commands):
    """Each command exits 0 with mpmath refused, prints what it prints with
    mpmath free, and neither run loads mpmath."""
    argv = json.dumps(commands)
    blocked = json.loads(python("-c", RUN_SCRIPT, "block", argv))
    free = json.loads(python("-c", RUN_SCRIPT, "free", argv))
    assert [code for code, _ in blocked["runs"]] == [0] * len(commands)
    assert blocked["runs"] == free["runs"]
    assert not blocked["mpmath"] and not free["mpmath"]


class TestImportBoundary:
    @pytest.mark.parametrize("module", ["circtrees", "circtrees.cli"])
    def test_import_leaves_mpmath_unloaded(self, module):
        out = python("-c", f"import sys, {module}; "
                           "print('mpmath' in sys.modules)")
        assert out.strip() == "False"

    def test_exact_commands_run_with_mpmath_refused(self):
        assert_same_with_mpmath_refused(EXACT_COMMANDS)

    def test_certified_products_leave_mpmath_unloaded(self):
        out = python("-c", "import sys\n"
                           "from circtrees import (parse_spec, tau_closed_form,"
                           " tau_even, tau_odd)\n"
                           "even = parse_spec('C40(1,2,5)')\n"
                           "odd = parse_spec('C20(1,3,4;d)')\n"
                           "print(tau_even(even) == tau_closed_form(even),"
                           " tau_odd(odd) == tau_closed_form(odd),"
                           " 'mpmath' in sys.modules)")
        assert out.split() == ["True", "True", "False"]

    def test_verify_runs_with_mpmath_refused(self):
        assert_same_with_mpmath_refused(VERIFY_COMMANDS)

    def test_every_export_resolves_with_mpmath_refused(self):
        out = python("-c", REFUSE_MPMATH + """
sys.meta_path.insert(0, RefuseMpmath())
import circtrees
for name in circtrees.__all__:
    getattr(circtrees, name)
print(len(circtrees.__all__), 'mpmath' in sys.modules)
""")
        assert out.split() == [str(len(ALL)), "False"]

    def test_no_module_imports_mpmath(self):
        package = Path(circtrees.__file__).parent
        files = sorted(package.rglob("*.py"))
        assert len(files) >= 10
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "mpmath"
                               for name in names), path.name

    def test_no_module_reads_another_modules_private_names(self):
        # a name with a leading underscore belongs to its module; only the
        # mantissa arithmetic of ``dyadic`` is shared under such names
        package = Path(circtrees.__file__).parent
        modules = {path.stem for path in package.glob("*.py")}
        assert {"dyadic", "chebyshev", "mahler"} <= modules
        for path in sorted(package.glob("*.py")):
            assert foreign_private_names(path.read_text(), modules) == [], \
                path.name

    def test_private_name_check_sees_imports_and_reads(self):
        modules = {"algebra", "chebyshev", "dyadic", "mahler"}
        source = ("from .chebyshev import _roots_at, tau_even\n"
                  "from circtrees.algebra import _ordinary_image\n"
                  "from .dyadic import _trim\n"
                  "from . import mahler as m, dyadic\n"
                  "m._growth_ratio(1, 2, 3), m.__name__, dyadic._add\n"
                  "def f(self):\n"
                  "    return self._x, _local\n")
        assert foreign_private_names(source, modules) == [
            ("chebyshev", "_roots_at"), ("algebra", "_ordinary_image"),
            ("mahler", "_growth_ratio")]

    def test_exact_route_shares_no_code_with_the_oracle(self):
        # the method of record is checked against the determinant oracle,
        # so it binds nothing from the oracle's module
        for name, value in vars(algebra).items():
            assert value is not exact, name
            assert getattr(value, "__module__", None) != exact.__name__, name


class TestStartUp:
    @pytest.mark.parametrize("args", [
        ["-c", "import circtrees.cli"],
        ["-m", "circtrees", "tau", "C12(1,3)", "--method", "both"],
        ["-m", "circtrees", "verify", "C*(1,3)", "--n-max", "12"],
    ])
    def test_no_unused_stdlib_module_is_imported(self, args):
        # verify runs the certified products, which escalate nowhere here
        bare = imported_modules("-c", "pass")
        added = imported_modules(*args) - bare
        assert "circtrees" in added
        assert not added & UNUSED_AT_START


class TestExports:
    def test_all_is_pinned_and_resolves(self):
        assert circtrees.__all__ == ALL
        for name in ALL:
            assert getattr(circtrees, name) is not None

    def test_dir_lists_every_export(self):
        assert set(circtrees.__all__) <= set(dir(circtrees))

    def test_lazy_names_are_the_module_objects(self):
        assert circtrees.tau_even is chebyshev.tau_even
        assert circtrees.thermo_limit is mahler.thermo_limit

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            circtrees.no_such_name

    def test_star_import(self):
        out = python("-c", "from circtrees import *; import circtrees; "
                           "print(sorted(set(circtrees.__all__) - set(dir())))")
        assert out.strip() == "[]"
