"""Every public top-level function, class or constant in the package is
referenced by package code outside its own definition; a name only tests
reach is dead API.  A reference is a name, an attribute or an import.  The
names the package exports (``lattice_qre.__all__``) and the CLI entry point
count as used.  The benchmark's tracer, which wraps package attributes by
name, must still find every one of them.  Every exported dataclass
documents each of its fields by name."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import lattice_qre
from lattice_qre import cli, optimize, qubitization, trotter_cost
from lattice_qre.circuitlab import statevector, verify
from lattice_qre.model import Model, ModelSpec

PACKAGE = Path(lattice_qre.__file__).resolve().parent
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defined_names(node: ast.AST) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, _DEFINITIONS):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _references(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return names


def unreferenced_public_names() -> list[str]:
    statements = [  # (module, top-level statement, names it references)
        (path.relative_to(PACKAGE).as_posix(), node, _references(node))
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    entry_points = {("cli.py", "main")}
    dead = []
    for module, node, _ in statements:
        for name in _defined_names(node):
            if (name.startswith("_") or name in lattice_qre.__all__
                    or (module, name) in entry_points):
                continue
            if not any(name in refs for _, other, refs in statements if other is not node):
                dead.append(f"{module}:{name}")
    return dead


def test_no_public_name_without_a_package_caller():
    assert unreferenced_public_names() == []


def test_exported_dataclasses_document_every_field():
    classes = [getattr(lattice_qre, name) for name in lattice_qre.__all__]
    documented = [cls for cls in classes if dataclasses.is_dataclass(cls)]
    assert len(documented) == 7
    for cls in documented:
        # dataclasses writes the signature, "Name(field, ...)", into a
        # missing docstring
        assert not cls.__doc__.startswith(cls.__name__ + "("), cls.__name__
        missing = [f.name for f in dataclasses.fields(cls) if f"``{f.name}``" not in cls.__doc__]
        assert missing == [], cls.__name__


def test_no_circuitlab_module_imports_dataclasses():
    # the lab's records are named tuples and plain classes
    importers = []
    for path in sorted((PACKAGE / "circuitlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.append(path.name)
    assert importers == []


def test_benchmark_tracer_finds_and_restores_its_wraps():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (cli, qubitization, trotter_cost, statevector, verify)
    before = [dict(vars(m)) for m in modules]
    with tracing.Tracer() as tracer:
        tracing.install(tracer)
        wrapped = [name for m, old in zip(modules, before)
                   for name, value in vars(m).items() if value is not old.get(name)]
        assert len(wrapped) == 19
    for m, old in zip(modules, before):
        assert vars(m).keys() == old.keys()
        assert all(vars(m)[name] is value for name, value in old.items())


def test_each_solver_calls_the_minimizer_the_tracer_wraps(monkeypatch):
    # the benchmark's solver counters wrap trotter_cost.minimize and
    # qubitization.minimize and sum the evaluations of their results; each
    # call reads the slope exactly twice and reports it
    assert trotter_cost.minimize is optimize.minimize
    assert qubitization.minimize is optimize.minimize
    evaluations = {trotter_cost: [], qubitization: []}
    for module, seen in evaluations.items():
        def counted(slope, *args, seen=seen):
            calls = []
            result = optimize.minimize(lambda v: calls.append(v) or slope(v), *args)
            seen.append((result.evaluations, len(calls)))
            return result
        monkeypatch.setattr(module, "minimize", counted)
    spec = ModelSpec(Model.FERMI_HUBBARD, 4)
    trotter_cost.optimize_trotter(spec, trotter_cost.Strategy.CATALYZED)
    assert evaluations[trotter_cost] and not evaluations[qubitization]
    qubitization.optimize_qubitization(spec)
    assert evaluations[qubitization]
    assert all(counts == (2, 2) for seen in evaluations.values() for counts in seen)
