"""Every function in `src/ptnu` runs on some path of the command line.

A child interpreter sets `sys.setprofile` before `import ptnu`, runs each
subcommand through `cli.main` (a `--config` run, a json run and a refused
run among them), and reports the file and first line of every code
object called from the package.  Functions and lambdas are matched
against the package's source by that pair, since `co_qualname` needs
Python 3.11; class and module bodies do not count.
Every exception class in `ptnu.errors` but the base is raised somewhere.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

import ptnu

PACKAGE = Path(ptnu.__file__).resolve().parent

# Functions no command reaches, each kept for the reason given.
ALLOWED_UNREACHED = {
    "poschl_teller.normalize": "perfbench/tracer.py TARGETS names it",
    "special_functions.integrate": "perfbench/tracer.py TARGETS names it",
    "special_functions.integrate.<locals>.one_pass": "perfbench/tracer.py TARGETS names integrate",
    "special_functions.gauss_rule": "perfbench/tracer.py TARGETS names it",
    "special_functions.jacobi": "perfbench/tracer.py TARGETS names it",
    "oracle.ode_residual": "perfbench/tracer.py TARGETS names it",
    "nu.derive_constants": "perfbench/tracer.py TARGETS names it",
    "nu.NuCoefficients.__new__": "checks a template that a library caller builds",
    "nu.index_text": "the CLI ceilings keep n <= 1000, which prints in decimal",
}

CHILD = """
import contextlib, io, json, os, sys

called = set()


def record(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(record)
sys.path.insert(0, sys.argv[1])
import ptnu
from ptnu import cli

codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "called": [[os.path.realpath(f), line] for f, line in called]}))
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function and lambda
    in the package; a decorated function starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                key = (str(path), first)
                assert key not in found, f"{found[key]} and {name} start on one line"
                found[key] = f"{path.stem}.{name}"
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def test_every_function_runs_or_is_allowlisted(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# the paper's well\nm = 10\nalpha = 1.2, 0.4\nnmax = 3\n", encoding="utf-8")
    runs = [
        ["table2", "--format", "csv"],
        ["table2", "--config", str(config)],
        ["limit", "--format", "json"],
        ["wavefunction", "--n", "2", "--points", "50", "--format", "tsv"],
        ["verify", "--alpha", "1.2,0.002", "--nmax", "2", "--grid-points", "1000", "--format", "json"],
        ["table2", "--m", "-1"],
    ]
    child = subprocess.run([sys.executable, "-c", CHILD, str(PACKAGE.parent), json.dumps(runs)],
                           capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(child.stdout)
    assert report["codes"] == [0, 0, 0, 0, 0, 2]

    functions = defined_functions()
    called = {functions[key] for key in map(tuple, report["called"]) if key in functions}
    unreached = set(functions.values()) - called
    assert unreached - set(ALLOWED_UNREACHED) == set(), "no command reaches these"
    assert set(ALLOWED_UNREACHED) - unreached == set(), "allowlisted, yet run or gone"


def test_every_error_class_is_raised():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"PtnuError"}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert classes - raised == set(), "no raise in the package names these"
