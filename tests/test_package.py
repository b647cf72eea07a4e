"""The package namespace, its records, and the rules on what each module imports."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import TABLE2_ALPHAS, reference_potential
import ptnu
from ptnu.cli import RunConfig


def test_every_export_is_its_defining_object():
    for name in ptnu.__all__:
        value = getattr(ptnu, name)
        if name in ("errors", "__version__"):
            continue
        assert value.__module__.startswith("ptnu."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ptnu import *", namespace)
    for name in ptnu.__all__:
        assert namespace[name] is getattr(ptnu, name), name


def test_dir_lists_every_export():
    assert set(ptnu.__all__) <= set(dir(ptnu))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ptnu.no_such_name
    assert not hasattr(ptnu, "cmd_table2")


def test_submodules_stay_reachable():
    from ptnu import cli

    assert cli is sys.modules["ptnu.cli"]
    for name in ("nu", "oracle", "poschl_teller", "special_functions", "errors"):
        assert getattr(ptnu, name) is importlib.import_module(f"ptnu.{name}")


def load_benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_targets_resolve():
    # perfbench wraps these names from outside; a missing one reads as absent
    tracer = load_benchmark_tracer()
    for module, names in tracer.TARGETS.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"ptnu.{module}"), name)), (module, name)


def test_benchmark_tracer_counts_every_residual_probe():
    # perfbench's nu.residuals_per_root counts calls to nu.quantization_residual
    # per nu.solve_energy; a probe that bypasses that name would read as 0
    spans = load_benchmark_tracer().Tracer()
    spans.install()
    try:
        assert spans.absent == set()
        pt = importlib.import_module("ptnu.poschl_teller")
        counts = []
        for alpha in TABLE2_ALPHAS:
            for n in range(7):
                roots = spans.calls["nu.solve_energy"]
                probes = spans.calls["nu.quantization_residual"]
                pt.energy_via_nu(reference_potential(alpha), n)
                assert spans.calls["nu.solve_energy"] == roots + 1, (alpha, n)
                counts.append(spans.calls["nu.quantization_residual"] - probes)
    finally:
        spans.uninstall()
    assert len(counts) == 42
    assert 5 <= min(counts) and max(counts) <= 6, (min(counts), max(counts))


def test_no_module_imports_dataclasses():
    # every record is a named tuple; dataclasses and its inspect cost a cold start
    package = Path(ptnu.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "dataclasses" for name in names), path.name


def test_no_module_imports_array_libraries_at_module_level():
    # numpy and scipy load inside the functions that handle arrays, so
    # `import ptnu` and the closed-form commands never pay for them
    package = Path(ptnu.__file__).resolve().parent

    def module_level_imports(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                continue  # read by type checkers only, never imported at run time
            if isinstance(child, ast.Import):
                yield from (alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                yield child.module or ""
            yield from module_level_imports(child)

    for path in sorted(package.glob("*.py")):
        names = module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        roots = {name.split(".")[0] for name in names}
        assert roots.isdisjoint({"numpy", "scipy"}), path.name


def test_namespace_is_the_exports_and_the_submodules():
    # the import lines of __init__.py and its __all__ are written apart,
    # so neither may hold a public name the other lacks
    package = Path(ptnu.__file__).resolve().parent
    submodules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    names = {name for name in vars(ptnu) if not name.startswith("_") or name == "__version__"}
    assert set(ptnu.__all__) <= names
    assert names - set(ptnu.__all__) <= submodules, names - set(ptnu.__all__) - submodules


RECORDS = {
    "BoundState": lambda: ptnu.BoundState(n=2, energy=1.5, eps=30.0, log_norm=-1.25),
    "RunConfig": lambda: RunConfig(m=12.0, alphas=(0.4,)),
    "RadialOperator": lambda: ptnu.RadialOperator(n_points=3, h=0.5, diag=np.ones(3), offdiag=-4.0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_named_tuples(name):
    record = RECORDS[name]()
    *_, last = record._fields
    with pytest.raises(AttributeError):
        setattr(record, last, 7)
    with pytest.raises(AttributeError):
        record.extra = 7
    changed = record._replace(**{last: 7})
    assert type(changed) is type(record) and getattr(changed, last) == 7
    assert getattr(record, last) != 7
    assert all(new is old for new, old in zip(changed[:-1], record[:-1]))
    # a tuple of its fields in order
    assert all(value is getattr(record, field) for field, value in zip(record._fields, record))


def test_test_references_stay_independent():
    # a reference must not run through the package code it checks
    path = Path(__file__).resolve().parent / "references.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy", "ptnu.errors"}


def test_three_routes_stay_independent():
    # the oracle checks the NU engine and the closed form, so it must not run
    # through either, and the NU root must not start from the closed form
    package = Path(ptnu.__file__).resolve().parent
    tree = ast.parse((package / "oracle.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            node.body = []  # read by type checkers only, never imported at run time
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({"nu", "poschl_teller", "energy_closed_form"}), imported

    # and the closed-form route builds its levels and states without the NU template
    tree = ast.parse((package / "poschl_teller.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    nu_route = {"to_nu_family", "SpectralFamily", "derive_constants", "quantization_residual",
                "solve_energy"}
    for name, avoided in (("energy_via_nu",
                           {"energy_closed_form", "normalize", "normalized_wavefunction"}),
                          ("energy_closed_form", nu_route), ("alpha_zero_limit", nu_route),
                          ("normalized_wavefunction", nu_route)):
        body = functions[name]
        named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
        assert named.isdisjoint(avoided), (name, named & avoided)
