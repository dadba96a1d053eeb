"""Source hygiene of the package, checked with ``ast`` in place of a linter.

Every name a ``pxlaplace`` module imports is used in it or re-exported
through its ``__all__``, and every ``__all__`` entry is defined.  Every
module-level UPPER_CASE constant is read somewhere in the package or
exported, every module-level function or class whose name starts with
``_`` is read somewhere in the package, and every field of a dataclass is
read as an attribute somewhere in the package.  So a deletion that leaves
an import, an export, a replaced constant, a helper that only the tests
call or a field that only the tests set behind fails here by name.  Every
linear solver class of the sweep loop states its policy in its own class
body.  No module calls a builtin that runs text as code, and no module
but ``diffops`` subtracts two sliced views of one array: every difference
formula lives there, on the grid's flat range.  No module reaches into an
object's ``__dict__`` or calls ``object.__setattr__`` outside a
``__post_init__``: data derived from a field lives in its one store.  An
expression is sampled on the grid only where a problem is built, by the
config and by ``build_problem``.  No module imports scipy when it is
loaded.  The command line module loads no heavy scipy subpackage it does
not need, and not sympy.  A run loads no scipy module at all unless it
builds an LU factor or a GMRES solver, which loads ``scipy.sparse``, or
solves on a grid with an interior axis past the dense sine products'
crossover, which loads ``scipy.fft``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pxlaplace"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree):
    """The string entries of the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def imported(tree):
    """Each name an import statement binds, anywhere in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def defined(tree):
    """The names bound at module level."""
    names = set(imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
    return names


def unused_imports(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported(tree) if name not in used | set(exported(tree))]


def undefined_exports(tree, submodules=()):
    names = defined(tree) | set(submodules)
    return [name for name in exported(tree) if name not in names]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    unused = unused_imports(parse(path))
    assert unused == [], f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_export_is_defined(path):
    # the package's own ``__all__`` lists its submodules
    submodules = [module.stem for module in MODULES] if path.name == "__init__.py" else []
    missing = undefined_exports(parse(path), submodules)
    assert missing == [], f"{path.name} lists {missing} in __all__ but defines none of them"


def constants(tree):
    """The UPPER_CASE names bound at module level, sorted."""
    return sorted(name for name in defined(tree) if re.fullmatch(r"[A-Z][A-Z0-9_]*", name))


def read_names(tree):
    """Every name the module reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }


def unread_constants(tree, read):
    return [name for name in constants(tree) if name not in read | set(exported(tree))]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_constant_is_read_or_exported(path):
    read = set().union(*(read_names(parse(module)) for module in MODULES))
    unread = unread_constants(parse(path), read)
    assert unread == [], f"{path.name} defines {unread}, which no module reads or exports"


def test_check_catches_an_unread_constant():
    tree = ast.parse("LIMIT = 3\nSTALE = 1e-11\nSHOWN = 2\n__all__ = ['SHOWN']\nprint(mod.LIMIT)\n")
    assert unread_constants(tree, read_names(tree)) == ["STALE"]


def private_definitions(tree):
    """The module-level functions and classes whose names start with ``_``."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]


def unread_private(tree, read):
    return [name for name in private_definitions(tree) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_private_helper_is_read_by_the_package(path):
    # a private helper that only the tests read is a test-only wrapper
    read = set().union(*(read_names(parse(module)) for module in MODULES))
    unread = unread_private(parse(path), read)
    assert unread == [], f"{path.name} defines {unread}, which no module of the package reads"


def test_check_catches_a_helper_only_the_tests_read():
    tree = ast.parse(
        "def _used():\n    pass\n\ndef _stale():\n    pass\n\nclass _Kept:\n    pass\n\n"
        "def shown():\n    pass\n\nprint(_used(), mod._Kept)\n"
    )
    assert unread_private(tree, read_names(tree)) == ["_stale"]


def dataclass_fields(tree):
    """The ``(class, field)`` names of each annotated field of a module-level
    class decorated with ``dataclass``, bare or called."""
    fields = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            fields += [
                (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def loaded_attributes(tree):
    """Every attribute name the module reads (not one it only assigns)."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(tree, read):
    return [f"{cls}.{name}" for cls, name in dataclass_fields(tree) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_dataclass_field_is_read_by_the_package(path):
    # a field that no module reads is a knob only the tests turn, or dead
    read = set().union(*(loaded_attributes(parse(module)) for module in MODULES))
    unread = unread_fields(parse(path), read)
    assert unread == [], f"{path.name} defines {unread}, which no module of the package reads"


def test_check_catches_a_field_no_module_reads():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Spec:\n    grid: int\n    radius: float = 0.0\n\n"
        "@dataclass\nclass Result:\n    value: float\n\nclass Plain:\n    ignored: int\n\n"
        "def use(spec, result):\n    spec.radius = 1.0\n    return spec.grid + result.value\n"
    )
    assert unread_fields(tree, loaded_attributes(tree)) == ["Spec.radius"]


#: The policy every linear solver of the sweep loop states for itself: the
#: contraction under which the loop keeps it, and whether its Newton steps
#: are inexact.
SOLVER_POLICY = ("keep_ratio", "inexact")


def solver_policies(tree, base="_CheckedSolver"):
    """Each class of the module derived from ``base``, directly or through
    another such class, with the names its own class body assigns."""
    policies = {}
    for node in tree.body:  # a class is defined before its subclasses
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
        if bases & ({base} | set(policies)):
            policies[node.name] = {
                target.id
                for stmt in node.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                if isinstance(target, ast.Name)
            }
    return policies


def policy_gaps(tree):
    """``class.name`` for each :data:`SOLVER_POLICY` name a solver class
    leaves to its base."""
    return [
        f"{cls}.{name}"
        for cls, assigned in solver_policies(tree).items()
        for name in SOLVER_POLICY
        if name not in assigned
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_solver_class_states_its_policy(path):
    gaps = policy_gaps(parse(path))
    assert gaps == [], f"{path.name}: {gaps} are inherited, not stated in the class body"


def test_solver_module_has_solver_classes():
    # the check above reads nothing if the base class is renamed
    assert len(solver_policies(parse(PACKAGE / "solver.py"))) >= 3


def test_check_catches_a_solver_that_inherits_its_policy():
    tree = ast.parse(
        "class _CheckedSolver:\n    inexact = False\n\n"
        "class Stated(_CheckedSolver):\n    keep_ratio = 0.5\n    inexact = False\n\n"
        "class Inherits(Stated):\n    keep_ratio = 0.0\n\n"
        "class InInit(_CheckedSolver):\n    inexact = True\n\n"
        "    def __init__(self):\n        self.keep_ratio = 0.2\n\n"
        "class Other:\n    pass\n"
    )
    assert sorted(solver_policies(tree)) == ["InInit", "Inherits", "Stated"]
    assert policy_gaps(tree) == ["Inherits.inexact", "InInit.keep_ratio"]


#: Builtins that run text as code.  User expressions are parsed through
#: ``ast`` and evaluated by walking the tree: they must never be executed.
EXECUTING = ("eval", "exec", "compile", "__import__")


def executing_calls(tree):
    """The calls in the module to a builtin of :data:`EXECUTING`, by name."""
    return [
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in EXECUTING
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_runs_text_as_code(path):
    calls = executing_calls(parse(path))
    assert calls == [], f"{path.name} calls {calls}"


def test_check_catches_a_call_that_runs_text():
    # re.compile is a method, not the builtin
    assert executing_calls(ast.parse("eval(s)\nre.compile(s)\nexec(s)\n")) == ["eval", "exec"]


#: Every module but ``diffops``, the home of the difference formulas.
NON_DIFFERENCE_MODULES = [path for path in MODULES if path.stem != "diffops"]


def sliced_base(node):
    """The source of the array a subscript with a slice in its index reads;
    None for any other node."""
    if isinstance(node, ast.Subscript) and any(isinstance(part, ast.Slice) for part in ast.walk(node.slice)):
        return ast.unparse(node.value)
    return None


def sliced_differences(tree):
    """Each subtraction in the module of two sliced views of one array, by
    ``-``, ``-=`` or ``np.subtract``, as source, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            sides = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
            sides = [node.target, node.value]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.subtract", "numpy.subtract"):
            sides = node.args[:2]
        else:
            continue
        bases = {sliced_base(side) for side in sides}
        if len(sides) == 2 and len(bases) == 1 and None not in bases:
            found.append((node.lineno, ast.unparse(node)))
    return [source for _, source in sorted(found)]


@pytest.mark.parametrize("path", NON_DIFFERENCE_MODULES, ids=[path.stem for path in NON_DIFFERENCE_MODULES])
def test_no_module_but_diffops_forms_a_strided_difference(path):
    found = sliced_differences(parse(path))
    assert found == [], f"{path.name} differences views of one array: {found}"


def test_check_catches_a_strided_difference():
    # two views of different arrays, a sum and an element difference pass
    tree = ast.parse(
        "d = v[2:, 1:-1] - v[:-2, 1:-1]\n"
        "np.subtract(w[..., 1:], w[..., :-1], out=d)\n"
        "e[1:] -= e[:-1]\n"
        "ok = v[1:] - w[1:]\nok = v[1:] + v[:-1]\nok = v[0] - v[1]\n"
        "ok = table.shifted(v, {0: 1}) - table.shifted(v, {0: -1})\n"
    )
    assert sliced_differences(tree) == [
        "v[2:, 1:-1] - v[:-2, 1:-1]",
        "np.subtract(w[..., 1:], w[..., :-1], out=d)",
        "e[1:] -= e[:-1]",
    ]


def store_writes(tree):
    """Each read of an object's ``__dict__`` in the module, by attribute or
    by ``vars(obj)``, and each call of ``object.__setattr__`` outside a
    ``__post_init__``, as source, in line order.  Derived data belongs in a
    field's store (``ScalarField.derived``)."""
    found = []

    def visit(node, in_post_init):
        if isinstance(node, ast.FunctionDef):
            in_post_init = node.name == "__post_init__"
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and (
            (ast.unparse(node.func) == "vars" and node.args)
            or (ast.unparse(node.func) == "object.__setattr__" and not in_post_init)
        ):
            found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, in_post_init)

    visit(tree, False)
    return [source for _, source in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_writes_past_the_field_store(path):
    found = store_writes(parse(path))
    assert found == [], f"{path.name} keeps data on an object outside its fields: {found}"


def test_check_catches_a_write_past_the_store():
    # a frozen dataclass may normalize its own fields in __post_init__
    tree = ast.parse(
        "class Spec:\n"
        "    def __post_init__(self):\n        object.__setattr__(self, 'lo', 0.0)\n\n"
        "def keep(v, value):\n"
        "    v.__dict__['_cache'] = value\n"
        "    v.__dict__.setdefault('_fields', {})\n"
        "    object.__setattr__(v, '_gradient', value)\n"
        "    store = vars(v)\n"
        "    v.derived['gradient'] = value\n"
    )
    assert store_writes(tree) == [
        "v.__dict__",
        "v.__dict__",
        "object.__setattr__(v, '_gradient', value)",
        "vars(v)",
    ]


#: The two functions that sample an expression on the grid, as (module,
#: function): a run's config and a library caller's ``build_problem``.
#: Every later reader is handed the sampled fields.
SAMPLERS = [("config", "load_config"), ("solver", "build_problem")]


def sample_calls(tree, module):
    """Each call of ``fields.sample`` in the module, bare or qualified, as
    (module, enclosing function), in line order."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("sample", "fields.sample"):
            found.append((node.lineno, (module, function)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return [call for _, call in sorted(found)]


def test_expressions_sampled_only_where_a_problem_is_built():
    found = [call for path in MODULES for call in sample_calls(parse(path), path.stem)]
    assert sorted(set(found)) == SAMPLERS, f"sample is called in {found}"


def test_check_catches_a_third_sampler():
    # a method of another name and a nested helper are both found by name
    tree = ast.parse(
        "def cmd_audit(cfg):\n"
        "    if sample(cfg.problem.f_expr, cfg.problem.grid).values.any():\n"
        "        raise ConfigError('f')\n\n"
        "def pick(rng, grid, expr):\n"
        "    def inner():\n        return fields.sample(expr, grid)\n"
        "    return rng.sample(range(3), 2), inner()\n"
    )
    assert sample_calls(tree, "cli") == [("cli", "cmd_audit"), ("cli", "inner")]


def test_checks_catch_a_dead_import_and_a_stale_export():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau', 'gone']\nprint(pi)\n")
    assert unused_imports(tree) == ["os"]
    assert undefined_exports(tree) == ["gone"]


#: The tests that guard a static-typing-only import block, as written.
TYPE_CHECKING_TESTS = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def load_time_imports(statements):
    """Each import statement of ``statements`` that runs when the module is
    loaded: every one outside a function body and outside the body of an
    ``if TYPE_CHECKING:`` block.  Class bodies run at load time."""
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) in TYPE_CHECKING_TESTS:
            yield from load_time_imports(node.orelse)
        else:  # compound statements; an except handler holds a body too
            for field in ("body", "handlers", "orelse", "finalbody"):
                yield from load_time_imports(getattr(node, field, []))


def scipy_at_load(tree):
    """The scipy modules the module imports when it is loaded, in order."""
    modules = []
    for node in load_time_imports(tree.body):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = [alias.name for alias in node.names]
        modules += [name for name in names if name.split(".")[0] == "scipy"]
    return modules


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_imports_scipy_when_loaded(path):
    # every scipy subpackage is imported where it is first used, so a
    # command that needs none of them loads none
    loaded = scipy_at_load(parse(path))
    assert loaded == [], f"{path.name} imports {loaded} at module level"


def test_check_catches_a_module_level_scipy_import():
    tree = ast.parse(
        "import numpy, scipy.linalg\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from scipy.sparse import csr_matrix\n"
        "else:\n    from scipy import fft\n"
        "try:\n    from scipy.special import gamma\nexcept ImportError:\n    import scipy.stats\n"
        "def solve():\n    from scipy.sparse.linalg import splu\n\n"
        "class Holder:\n    import scipy.optimize\n\n"
        "    def method(self):\n        import scipy.ndimage\n"
    )
    expected = ["scipy.linalg", "scipy", "scipy.special", "scipy.stats", "scipy.optimize"]
    assert scipy_at_load(tree) == expected


#: scipy subpackages the lab does not use, each slow to import: scipy.signal
#: alone takes longer than the rest of ``import pxlaplace.cli``.  sympy is
#: the tests' oracle, never the lab's.
HEAVY_MODULES = ("scipy.ndimage", "scipy.signal", "sympy")

#: Loaded only when a run needs them: ``scipy.sparse`` when it builds an LU
#: factor (2-d) or a GMRES solver (3-d), and ``scipy.fft`` when it solves on
#: a grid with an interior axis longer than ``solver.SINE_PRODUCT_MAX``,
#: whose fast Poisson inverse takes scipy's DST-I.  The mollifier runs on
#: ``numpy.fft`` and the fast Poisson inverse of a shorter grid on dense
#: sine products, so a run that needs neither loads not even ``scipy``.
DEFERRED_MODULES = ("scipy", "scipy.fft", "scipy.sparse", "scipy.sparse.linalg")

#: An audit config for ``pxlaplace audit``: the fixture's boundary data
#: with exponent ``p`` on ``points`` nodes per axis.
AUDIT_CONFIG = """\
[problem]
dimension = {dimension}
points = {points}
p = "{p}"
boundary = "x1^2 - x2^2"
eps_schedule = {schedule}
[audit]
audits = pointwise quasiregularity
[output]
directory = {outdir}
"""

#: Run in a fresh interpreter: import the command line module, then run
#: each command line of the JSON list ``sys.argv[1]`` through ``cli.main``,
#: in order, with ``solver.splu`` counted.  Prints, as JSON on its last
#: line, the watched modules loaded after the import and, per command, its
#: exit code, the watched modules loaded after it and the factors built so
#: far.
PROBE = """\
import json, sys
import pxlaplace.cli as cli
from pxlaplace import solver

watched = {watched!r}
factors = []
original = solver.splu

def counting(*args, **options):
    factors.append(1)
    return original(*args, **options)

solver.splu = counting
record = [[m for m in watched if m in sys.modules]]
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    record.append([code, [m for m in watched if m in sys.modules], len(factors)])
print(json.dumps(record))
"""


def test_cli_import_loads_no_heavy_scipy_subpackage(tmp_path):
    # checked by name in a fresh interpreter, not by a timing.  The
    # constants and identities commands and a config error solve nothing.
    # The fixture runs in 2-d and 3-d keep their fast Poisson solve, on
    # dense sine products, and mollify on numpy.fft, so they load no scipy
    # module; p = 1.2 falls back to LU, which loads scipy.sparse and
    # factors, and a solve on 259 x 9 nodes, an interior axis past the
    # crossover, loads scipy.fft
    schedule = "0.1 0.03 0.01 0.003 0.001 0.0003 0.0001"
    runs = {
        "increasing": (2, "33 33", "2 + 0.5*sin(x1)", "0.01 0.1"),
        "fixture-33": (2, "33 33", "2 + 0.5*sin(x1)", schedule),
        "cube-9": (3, "9 9 9", "2 + 0.5*sin(x1)", "0.1 0.01 0.001"),
        "p1.2-33": (2, "33 33", "1.2", schedule),
    }
    commands = [
        ["constants", "--n", "2", "--tminus", "2", "--tplus", "2", "--beta", "0"],
        ["identities", "--count", "2"],
    ]
    for name, (dimension, points, p, eps) in runs.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(
            AUDIT_CONFIG.format(dimension=dimension, points=points, p=p, schedule=eps, outdir=tmp_path / name)
        )
        commands.append(["audit", "--config", str(path)])
    long_axis = tmp_path / "long-axis.cfg"
    long_axis.write_text(
        AUDIT_CONFIG.format(dimension=2, points="259 9", p="2", schedule="0.25", outdir=tmp_path / "long")
        .replace("[problem]\n", "[problem]\nhi = 32 1\n")
    )
    commands.append(["solve", "--config", str(long_axis)])
    probe = PROBE.format(watched=HEAVY_MODULES + DEFERRED_MODULES)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    after_import, after_constants, after_identities, after_error, fixture, cube, lu, long = json.loads(
        done.stdout.strip().splitlines()[-1]
    )
    assert after_import == [], after_import
    assert after_constants == [0, [], 0], after_constants
    assert after_identities == [0, [], 0], after_identities
    assert after_error == [2, [], 0], after_error
    assert fixture == [0, [], 0], fixture
    assert cube == [0, [], 0], cube
    assert lu[0] == 0 and lu[1] == ["scipy", "scipy.sparse", "scipy.sparse.linalg"] and lu[2] > 0, lu
    assert long[0] == 0 and long[1] == list(DEFERRED_MODULES), long
