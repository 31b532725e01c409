"""Every definition in src/ospcoho is reached from what runs the program.

The check parses src/ospcoho/*.py and lists every top-level function
and class and every non-dunder method. A definition is live when its
name is referenced from live code: the statements that run on import
(module and class bodies, decorators, default values), the bodies of
live definitions, and the dunder methods of live classes. Import
statements are not references. Names count by name alone, whatever
object they are looked up on, so the check errs towards live.

The roots are `cli.main` (the console script), every name that the
benchmark harness in perfbench/ references (its tracer addresses
functions by strings, so identifier strings count there), and ALLOWED.
Code that only the tests reach belongs in the tests.

A second check reads every import statement of src/ospcoho, at any
depth, and fails on a name that the module binds by it and never reads.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ospcoho"
PERFBENCH = ROOT / "perfbench"

# definitions kept without a caller in the program, with the reason
ALLOWED = {
    "predict_sl2": "planned caller: `ospcoho restrict` (ROADMAP item 2)",
    "localization_kernel_dim":
        "planned caller: `ospcoho restrict` (ROADMAP item 2)",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _names(nodes, strings=False):
    """Names referenced in the AST nodes, imports left out."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif (strings and isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str)
                  and sub.value.isidentifier()):
                out.add(sub.value)
    return out


def _def_header(node):
    # what runs when a def statement itself runs
    out = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return out + node.bases + [k.value for k in node.keywords]
    args = node.args
    return out + args.defaults + [d for d in args.kw_defaults if d]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def program_defs():
    """(defs, import-time nodes): defs maps (module, qualname) to
    (name, body nodes, dunder bodies of a class)."""
    defs, at_import = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, _DEFS):
                at_import.append(node)
                continue
            at_import += _def_header(node)
            if isinstance(node, ast.ClassDef):
                dunders = []
                for item in node.body:
                    if not isinstance(item, _DEFS):
                        at_import.append(item)
                        continue
                    at_import += _def_header(item)
                    if _is_dunder(item.name):
                        dunders += item.body
                    else:
                        defs[(path.stem, f"{node.name}.{item.name}")] = (
                            item.name, item.body, [])
                defs[(path.stem, node.name)] = (node.name, [], dunders)
            else:
                defs[(path.stem, node.name)] = (node.name, node.body, [])
    return defs, at_import


def perfbench_names():
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        out |= _names([ast.parse(path.read_text(encoding="utf-8"))],
                      strings=True)
    return out


def unreached(roots):
    """The definitions whose names the fixpoint from `roots` misses."""
    defs, at_import = program_defs()
    reached = set(roots) | _names(at_import)
    todo = dict(defs)
    grew = True
    while grew:
        grew = False
        for key, (name, body, dunders) in list(todo.items()):
            if name in reached:
                del todo[key]
                reached |= _names(body + dunders)
                grew = True
    return sorted(f"{module}.{qual}" for module, qual in todo)


def test_every_program_definition_is_reached():
    roots = {"main"} | perfbench_names() | set(ALLOWED)
    assert unreached(roots) == []


def test_allowlist_is_needed_and_current():
    # each allowed name is defined, and nothing but the allowlist keeps
    # it: once the program calls it, its entry goes
    defs, _ = program_defs()
    names = {name for name, _, _ in defs.values()}
    assert set(ALLOWED) <= names
    missed = unreached({"main"} | perfbench_names())
    assert {qual.rsplit(".", 1)[-1] for qual in missed} == set(ALLOWED)


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
