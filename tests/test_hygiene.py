"""Static checks on the package and test source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cryomech"
TESTS = ROOT / "tests"


def _unused_imports(path: Path) -> list[str]:
    """Module-level imported names that nothing in the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return [name for name in imported if name not in read]


def test_module_imports_are_used():
    # the package's __init__.py only re-exports, so its imports are its public names
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    unused = {str(p.relative_to(ROOT)): names for p in paths + sorted(TESTS.glob("*.py"))
              if (names := _unused_imports(p))}
    assert not unused, f"unused module-level imports: {unused}"


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and constants other than dunders, by name."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update({n: node for n in names if not n.startswith("__")})
    return defs


def test_one_definition_per_name():
    # two modules defining one name drift apart: keep one and import it
    # (the package's __init__.py only re-exports)
    trees = _parse(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    owners = {}
    for path, tree in trees.items():
        for name in _definitions(tree):
            owners.setdefault(name, []).append(path.name)
    twice = {name: paths for name, paths in owners.items() if len(paths) > 1}
    assert not twice, f"names defined in more than one module: {twice}"


def _reads(node: ast.AST) -> set[str]:
    """Names a node reads: bare names, attributes and import-from names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _parse(paths) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def _unread(trees: dict[Path, ast.Module], readers: dict[Path, ast.Module],
            wanted) -> dict[str, list[str]]:
    """Definitions in ``trees`` whose name passes ``wanted`` and that no
    top-level statement of ``readers`` other than their own definition reads,
    so a recursive helper that lost its callers still counts as unread."""
    statements = [node for tree in readers.values() for node in tree.body]
    reads = {id(node): _reads(node) for node in statements}
    return {str(p.relative_to(ROOT)): names for p, tree in trees.items()
            if (names := [name for name, own in _definitions(tree).items()
                          if wanted(name) and not any(name in reads[id(node)]
                                                      for node in statements if node is not own)])}


def test_private_definitions_are_read():
    trees = _parse(sorted(SRC.glob("*.py")))
    unread = _unread(trees, trees, lambda name: name.startswith("_"))
    assert not unread, f"private module-level definitions that nothing reads: {unread}"


def test_public_definitions_are_exported_or_read():
    # public API is what the package exports; any other public definition
    # must serve the package, a demo or the benchmark, not only the tests
    init = SRC / "__init__.py"
    exported = {a.asname or a.name for node in _parse([init])[init].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    trees = _parse(p for p in sorted(SRC.glob("*.py")) if p != init)
    readers = _parse(sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
                     + sorted((ROOT / "perfbench").rglob("*.py")))
    unread = _unread(trees, readers,
                     lambda name: not name.startswith("_") and name not in exported)
    assert not unread, f"public module-level definitions that are neither exported nor read: {unread}"


#: NumPy's explicit-generator API; everything else under ``numpy.random`` is
#: the legacy global generator (``seed``, ``get_state``, ``set_state``,
#: ``rand``, ``normal``, ``RandomState``, ...).
_SEEDED_RANDOM = {"default_rng", "Generator"}


def _legacy_random_uses(tree: ast.Module) -> list[str]:
    """``np.random.<name>``/``numpy.random.<name>`` reads and
    ``from numpy.random import <name>`` outside the explicit-generator API."""
    out = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute)
                and n.value.attr == "random" and isinstance(n.value.value, ast.Name)
                and n.value.value.id in ("np", "numpy") and n.attr not in _SEEDED_RANDOM):
            out.append(f"np.random.{n.attr}")
        elif isinstance(n, ast.ImportFrom) and n.module == "numpy.random":
            out += [f"numpy.random.{a.name}" for a in n.names if a.name not in _SEEDED_RANDOM]
    return out


def test_no_legacy_global_generator():
    # identical (config, seed) must give identical reports, so the package
    # draws only from generators it seeds itself
    uses = {str(p.relative_to(ROOT)): names for p in sorted(SRC.glob("*.py"))
            if (names := _legacy_random_uses(ast.parse(p.read_text(), filename=str(p))))}
    assert not uses, f"calls into NumPy's legacy global generator: {uses}"


def _constructor_fields(cls: ast.ClassDef) -> list[tuple[str, ast.expr | None]]:
    """(name, default expression or None) of each field the constructor of a
    ``@dataclass`` takes, in order; nothing for another class.
    ``field(init=False)`` fields are not taken."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
        return []
    out = []
    for n in cls.body:
        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
            v = n.value
            if not (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                    and v.func.id == "field"
                    and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                            and k.value.value is False for k in v.keywords)):
                out.append((n.target.id, v))
    return out


def _parameters(tree: ast.Module) -> list[tuple[str, set[str], str, int | None,
                                                 ast.expr | None]]:
    """(function, names a call to it uses, parameter, positional index in such
    a call or None, default expression or None) for every parameter.  A
    method's call skips ``self`` or ``cls``; ``__init__`` is called by its
    class name, and so is a dataclass, whose fields count as its parameters."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                names = {child.name} | ({cls} if child.name == "__init__" else set())
                first = len(positional) - len(a.defaults)
                skip = cls is not None
                defaults = [None] * first + a.defaults
                out.extend((child.name, names, arg.arg, i - skip, defaults[i])
                           for i, arg in enumerate(positional) if i >= skip)
                out.extend((child.name, names, arg.arg, None, d)
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults))
            elif isinstance(child, ast.ClassDef):
                out.extend((child.name, {child.name}, name, i, default)
                           for i, (name, default) in enumerate(_constructor_fields(child)))
            visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(tree, None)
    return out


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in ``trees`` by callee name, a bare name or an attribute."""
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(name, []).append(n)
    return calls


def _argument(call: ast.Call, param: str, index: int | None) -> ast.expr | bool:
    """The expression ``call`` passes to ``param`` at ``index``: True where a
    ``*`` or ``**`` splat may pass it, False where nothing does."""
    if any(k.arg is None for k in call.keywords):
        return True
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if index is not None:
        if any(isinstance(x, ast.Starred) for x in call.args[:index + 1]):
            return True
        if index < len(call.args):
            return call.args[index]
    return False


def _package_calls() -> dict[str, list[ast.Call]]:
    """The calls of the package, the demos and the benchmark; a test is not a caller."""
    return _calls(_parse(sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
                         + sorted((ROOT / "perfbench").rglob("*.py"))))


#: Parameters that only tests set, each kept so that a test can pass a fake.
_TEST_SEAMS = {
    # a corrupted circuit must make the table check fail, or the check has no power
    "verify_teleportation(bell_circuit)",
    # another resource must derive another table, or no table is derived at all
    "verify_teleportation(resource)",
}


def test_optional_parameters_are_passed():
    # a default that no caller of the package, a demo or the benchmark
    # overrides is a constant, not an option: a call from a test does not
    # count, except for the fakes of _TEST_SEAMS
    trees = _parse(sorted(SRC.glob("*.py")))
    calls = _package_calls()
    unset = {f"{func}({param})": str(p.relative_to(ROOT)) for p, tree in trees.items()
             for func, callees, param, index, default in _parameters(tree)
             if default is not None and not any(_argument(call, param, index) is not False
                                      for callee in callees
                                      for call in calls.get(callee, []))}
    orphans = {name: path for name, path in unset.items() if name not in _TEST_SEAMS}
    assert not orphans, f"parameters whose default no call overrides: {orphans}"
    # a seam that is gone, or that the package now sets, leaves the list
    assert _TEST_SEAMS <= set(unset), f"stale test seams: {_TEST_SEAMS - set(unset)}"


_NOT_LITERAL = object()


def _literal(node: ast.expr):
    """The value ``ast.literal_eval`` reads from ``node``, or ``_NOT_LITERAL``."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _NOT_LITERAL


def _single_values(required: bool) -> dict[str, str]:
    """The required (or the defaulted) parameters to which some call of the
    package, a demo or the benchmark passes a value and every such call
    passes the same literal, a value ``ast.literal_eval`` reads; a defaulted
    parameter's default counts as the value of a call that passes nothing."""
    trees = _parse(sorted(SRC.glob("*.py")))
    calls = _package_calls()
    fixed = {}
    for p, tree in trees.items():
        for func, callees, param, index, default in _parameters(tree):
            if (default is None) != required:
                continue
            passed = [_argument(call, param, index) for callee in callees
                      for call in calls.get(callee, [])]
            if not any(isinstance(x, ast.expr) for x in passed) or any(x is True for x in passed):
                continue
            values = [_literal(default if x is False else x) for x in passed]
            if (all(v is not _NOT_LITERAL for v in values)
                    and len({repr(v) for v in values}) == 1):
                fixed[f"{func}({param})"] = f"{str(p.relative_to(ROOT))}: {values[0]!r}"
    return fixed


def test_required_parameters_take_more_than_one_literal():
    # a required parameter that every call of the package, a demo or the
    # benchmark passes the same literal is a constant, not a parameter
    fixed = _single_values(required=True)
    assert not fixed, f"required parameters that every call passes one literal: {fixed}"


def test_defaulted_parameters_take_more_than_one_literal():
    # so is a defaulted one that every call passes the same literal, or
    # leaves at a default equal to it
    fixed = _single_values(required=False)
    assert not fixed, f"defaulted parameters that every call sets to one literal: {fixed}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree: ast.Module, modules: set[str]) -> list[str]:
    """Private names a module imports from another, or reads as an attribute
    of a package module it binds (``from . import x`` and then ``x._y``)."""
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    bound = {a.asname or a.name for n in imports if n.module in (None, "cryomech")
             for a in n.names if a.name in modules}
    return ([a.name for n in imports for a in n.names if _private(a.name)]
            + [f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
               and n.value.id in bound and _private(n.attr)])


def test_no_private_names_imported_across_modules():
    # a private name is its module's own detail: a module that imports one
    # from another, or reads one off it, follows it silently when it changes
    trees = _parse(sorted(SRC.glob("*.py")))
    modules = {p.stem for p in trees}
    private = {str(p.relative_to(ROOT)): names for p, tree in trees.items()
               if (names := _private_reads(tree, modules))}
    assert not private, f"private names read from another module: {private}"


def test_adaptive_path_has_one_caller():
    # evolve's method = "adaptive" (DOP853) is the oracle batch's second engine
    # path, not a propagator that a scenario may pick: the one call of the
    # package, a demo or the benchmark that sets the method is verify_all's
    trees = _parse(sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
                   + sorted((ROOT / "perfbench").rglob("*.py")))
    setters = {f"{p.name}:{func.name}" for p, tree in trees.items() for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for call in _calls({p: func}).get("evolve", [])
               if _argument(call, "method", 4) is not False}
    assert setters == {"oracle.py:verify_all"}


def _imported(node: ast.AST) -> list[str]:
    """Dotted names an import statement binds: ``scipy.integrate.solve_ivp``
    for ``from scipy.integrate import solve_ivp``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [f"{node.module}.{a.name}" for a in node.names]
    return []


def test_scipy_signal_and_integrate_stay_out_of_module_imports():
    # scipy.signal loads scipy.stats, ndimage and interpolate, scipy.integrate
    # loads scipy.optimize: only the adaptive branch of evolve may import solve_ivp
    sites = []
    for p, tree in _parse(sorted(SRC.glob("*.py"))).items():
        # ast.walk meets an outer function before an inner one: innermost wins
        owner = {id(n): f.name for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(f)}
        sites += [(name, f"{p.name}:{owner.get(id(node), '<module>')}")
                  for node in ast.walk(tree) for name in _imported(node)]
    assert [site for name, site in sites if name.startswith("scipy.signal")] == []
    assert {site for name, site in sites if name.startswith("scipy.integrate")} == {
        "lindblad.py:evolve"}


#: Small configs of every scenario but verify-all, whose adaptive (DOP853)
#: instances import scipy.integrate.
_LIGHT_CONFIGS = {
    "cool": "scenario=cool\ng=1\nkappa=20\ngamma_m=0.05\nn_bar=3\nn_init=3\n"
            "omega_m=50\ndim_a=2\ndim_m=4\nnum_samples=5\n",
    "superpose": "scenario=superpose\ng=1\nkappa=0.01\ngamma_m=0.001\nn_bar=0.01\n"
                 "dim_a=2\ndim_m=3\n",
    "teleport-motional": "scenario=teleport-motional\nalpha=0.6\nbeta=0.8\n",
    "teleport-spin": "scenario=teleport-spin\nalpha=0.6\nbeta=0.8\nlambda_rate=1\n"
                     "gamma_prime=0.01\nphonon_dim=2\n",
    "esr-scan": "scenario=esr-scan\nomega_m=1\nlam=0.05\ngamma_m=0.01\nsweep=Delta_e\n"
                "start=-1.5\nstop=1.5\npoints=9\nOmega_d_prime=0.6\nmech_dim=3\n",
    "params": "scenario=params\nomega_m=6.3e6\nM_mem=1e-12\nT=0.01\nm_bio=1e-16\n"
              "G_m=1e5\n",
}


def test_scenarios_load_only_the_engines_scipy(tmp_path):
    # the import of scipy.signal or scipy.integrate was most of a CLI run's
    # set-up; a fresh interpreter shows what the package and its scenarios load
    for name, text in _LIGHT_CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    script = ("import json, sys\nimport cryomech, cryomech.cli\n"
              "for name in sys.argv[1:]:\n"
              "    assert cryomech.cli.main(['--config', f'{name}.cfg', '--out', name]) == 0, name\n"
              "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules"
              " if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *_LIGHT_CONFIGS], cwd=tmp_path,
                          env=env, check=True, capture_output=True, text=True)
    # main prints one headline per run; the module list is the last line
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert loaded <= {"constants", "linalg", "sparse", "version"}, loaded
