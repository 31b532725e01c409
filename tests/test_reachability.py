"""What runs the program enters every function of src/ospcoho.

The guard runs the program and watches it. A fresh interpreter installs
a global `sys.settrace` hook before anything imports ospcoho; the hook
records the code object of every frame and traces no line. The
interpreter then runs what runs the program:
- every `ospcoho` command line of the CI workflow, through `cli.main`,
  with its `for` loops expanded, its redirections dropped, `--threads`
  forced to 1 (pool workers are outside the hook and run the same code)
  and its working directory, where every `--out` lands, in `tmp_path`;
- `inputs(7)`, `run` and `summarize` of the benchmark workloads that CI
  smoke-runs, from perfbench/workloads.py.

A function of src/ospcoho, dunders, methods and nested functions
included, that no frame entered fails the guard, bar the named
allowlist `ALLOWED`, whose entries must be defined and never entered.
A fresh interpreter is needed: in the pytest process, caches that
earlier tests warmed would hide calls, and some functions run only at
import. Code that only the tests reach belongs in the tests.

A second check reads every import statement of src/ospcoho, at any
depth, and fails on a name that the module binds by it and never reads.
"""

import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import ospcoho

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ospcoho"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
WORKLOADS = ("certify", "audit", "deep", "grid")

# functions kept without being entered by what runs the program, with
# the reason
ALLOWED = {
    "cli._Parser.error": "argparse's error path, run by bad input only",
    "cochains.Cochain.__eq__":
        "perfbench/selftest.py compares two draws of one seed by value",
    "weightmod.TruncatedDlm.__eq__":
        "read by `Cochain.__eq__` in the same perfbench/selftest.py check",
    "cochains.Cochain.__repr__": "read by error messages only",
    "weightmod.TruncatedDlm.__repr__": "read by error messages only",
    "engine.predict_sl2":
        "planned caller: `ospcoho restrict` (ROADMAP item 2)",
    "engine.localization_kernel_dim":
        "planned caller: `ospcoho restrict` (ROADMAP item 2)",
}

# run in the fresh interpreter: argv is the package directory and the
# benchmark's workloads file; stdin the command lines and workload
# names; stdout the exit codes and the (file, first line) entered
TRACER = """
import sys
entered = set()

def hook(frame, event, arg):
    entered.add(frame.f_code)

sys.settrace(hook)
import contextlib, importlib.util, io, json, os
package, workloads_path = sys.argv[1:]
job = json.load(sys.stdin)
from ospcoho import cli
codes = []
for argv in job["argvs"]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
spec = importlib.util.spec_from_file_location("workloads", workloads_path)
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
for name in job["workloads"]:
    work = workloads.WORKLOADS[name]
    work.summarize(work.run(work.inputs(7)))
sys.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(
    (os.path.basename(c.co_filename)[:-3], c.co_firstlineno)
    for c in entered if os.path.dirname(c.co_filename) == package)}))
"""

_LOOP = re.compile(r"for (\w+) in ([^;]*); do (.*); done")
_SHELL = (">", ">>", "|", "||", "&&")


def expand(line, env=()):
    """The argv lists of the `ospcoho` runs of a shell line, after
    `ospcoho`, or None when the line is not of a shape this reads: one
    run, or `for VAR in ...; do ...; done` loops around one."""
    loop = _LOOP.fullmatch(line)
    if loop:
        var, values, body = loop.groups()
        out = []
        for value in shlex.split(values):
            runs = expand(body, env + ((var, value),))
            if runs is None:
                return None
            out += runs
        return out
    # longer names first, so that $k does not cut $kind
    for var, value in sorted(env, key=lambda b: -len(b[0])):
        line = line.replace("$" + var, value)
    argv = []
    for token in shlex.split(line):
        if token in _SHELL:
            break
        argv.append(token)
    if argv[:1] != ["ospcoho"] or any("$" in token for token in argv):
        return None
    return [argv[1:]]


def ci_runs(text):
    """([(argv, expected exit code)], [lines that `expand` cannot read])
    for every `ospcoho` line of the workflow, with --threads set to 1."""
    runs, unread = [], []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#") or not re.search(r"(^|\s)ospcoho\s", line):
            continue
        argvs = expand(line)
        if argvs is None:
            unread.append(line)
            continue
        code = re.search(r"\|\| test \$\? -eq (\d+)$", line)
        for argv in argvs:
            argv = [("1" if prev == "--threads" else token)
                    for prev, token in zip([None] + argv, argv)]
            runs.append((argv, int(code.group(1)) if code else 0))
    return runs, unread


def function_defs(path):
    """{first line: qualified name} of every function in the file,
    nested ones included; a decorated function's code starts at its
    first decorator."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = (child.decorator_list or [child])[0]
                out[first.lineno] = prefix + child.name
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return out


def test_expand_reads_loops_and_drops_redirections():
    assert expand("for k in 0 1; do for kind in f cup; do ospcoho cocycles "
                  "--kind $kind --k $k >> c.txt; done; done") == [
        ["cocycles", "--kind", "f", "--k", "0"],
        ["cocycles", "--kind", "cup", "--k", "0"],
        ["cocycles", "--kind", "f", "--k", "1"],
        ["cocycles", "--kind", "cup", "--k", "1"]]
    assert expand('ospcoho dims --grid "pairs:0,1;2,3" > d.json || '
                  "test $? -eq 1") == [["dims", "--grid", "pairs:0,1;2,3"]]
    assert expand("while true; do ospcoho dims; done") is None
    assert expand("ospcoho dims --lambda $L") is None
    runs, unread = ci_runs("  # ospcoho in a comment\n"
                           "  ospcoho dims --threads 2 --out x.csv\n"
                           "  ospcoho dims --threads 1 --out y.csv\n"
                           "  ospcoho audit > a.json || test $? -eq 1\n"
                           "  ospcoho dims $(cat args)\n")
    assert runs == [(["dims", "--threads", "1", "--out", "x.csv"], 0),
                    (["dims", "--threads", "1", "--out", "y.csv"], 0),
                    (["audit"], 1)]
    assert unread == ["ospcoho dims $(cat args)"]


def test_the_program_enters_every_function(tmp_path):
    # the package that the tests import: under tests/mutants.py, the
    # mutated copy of src/
    package = pathlib.Path(ospcoho.__file__).resolve().parent
    runs, unread = ci_runs(WORKFLOW.read_text(encoding="utf-8"))
    assert unread == []
    assert len(runs) >= 25
    job = {"argvs": [argv for argv, _ in runs], "workloads": WORKLOADS}
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    done = subprocess.run(
        [sys.executable, "-c", TRACER, str(package),
         str(ROOT / "perfbench" / "workloads.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [code for _, code in runs]
    entered = {tuple(e) for e in result["entered"]}
    defs = {(path.stem, line): name
            for path in sorted(package.glob("*.py"))
            for line, name in function_defs(path).items()}
    missed = {name for key, name in defs.items() if key not in entered}
    unentered = sorted(missed - set(ALLOWED))
    assert unentered == [], "never entered: " + ", ".join(unentered)
    # each allowed function exists and is never entered: once the
    # program calls it, its entry goes
    assert set(ALLOWED) <= set(defs.values())
    assert sorted(set(ALLOWED) - missed) == []


def unread_imports(source):
    """The names that `source` binds by an import and never reads."""
    bound, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(bound - read)


def test_no_program_module_imports_a_name_it_never_reads():
    assert unread_imports("import os.path, re as regex\n"
                          "from . import a, b as c\nfrom x import *\n"
                          "def f():\n    from y import z\n    return a, z\n"
                          ) == ["*", "c", "os", "regex"]
    unread = {path.stem: unread_imports(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in unread.items() if names} \
        == {}
