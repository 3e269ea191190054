"""Source hygiene: library modules compile without a warning, import nothing
they do not use, assign no local they never read, define no function, method,
class or module-level name that nothing names, and no top-level definition
that only the tests reach, and every check directive is documented; the
kernel, the tensor module, the check reports and the torsion
and compatibility builders keep no process-wide tables, the library imports
no numpy, at module or function level, computes in no floats, and builds
no report from another report's parts; the torsion builder applies only the
ring operations pack, neg and dot; the kernel has one differentiation
routine, and the torsion module takes its partials from it, not from
Expr.diff; the test oracles import nothing from the kernel, and no module
outside the check reports uses a private member of CheckReport."""

import ast
import importlib
import pathlib
import warnings

import pytest

from haantjes.cli import _VERBS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "haantjes"


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")), ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # compile() from source, so a cached .pyc cannot hide a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - used, f"unused imports: {sorted(imported - used)}"


def _outer_functions(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from _outer_functions(node.body)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_function_locals_are_read(path):
    # a name a function assigns and never reads (nested functions and
    # comprehensions included) is dead; `_`-prefixed names are exempt
    unread = []
    for fn in _outer_functions(ast.parse(path.read_text(encoding="utf-8")).body):
        names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
        read = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
        unread += sorted({f"{fn.name}: {n.id}" for n in names if isinstance(n.ctx, ast.Store)
                          and n.id not in read and not n.id.startswith("_")})
    assert not unread, unread


def test_cli_parse_errors_name_a_token_column():
    # a model error is reported at the column of the token at fault, never
    # at a column written into the code
    calls = [node for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ParseError"]
    literal = [node.lineno for node in calls
               if any(isinstance(col, ast.Constant)
                      for col in node.args[2:] + [k.value for k in node.keywords if k.arg == "col"])]
    assert calls and not literal, literal


def test_readme_documents_every_directive():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [verb for verb in _VERBS if f"| `{verb}` |" not in readme]
    assert not missing, missing


def _process_wide_tables(module: str):
    """The module-level dicts, sets and lists of a module, and its caches."""
    mod = importlib.import_module(f"haantjes.{module}")
    held = {name for name, v in vars(mod).items()
            if isinstance(v, (dict, set, list)) and name != "__builtins__"}
    return held, [name for name, v in vars(mod).items() if hasattr(v, "cache_info")]


def test_symexpr_keeps_no_process_wide_tables():
    # canonical terms get their speed from their representation: a memo or
    # intern table would live as long as the process, raise its peak memory
    # and warm up across runs
    assert _process_wide_tables("symexpr") == ({"__all__", "_CERTAINTY_ORDER"}, [])


@pytest.mark.parametrize("module", ["checks", "geometry", "torsion", "extended", "jacobi", "contact",
                                    "lcs"])
def test_builders_keep_no_process_wide_tables(module):
    # a run shares sub-check verdicts through the memo of `checks.once`,
    # which lives in a context variable only while a scope is open; a table
    # kept across runs would be a process-wide cache, with the same faults
    assert _process_wide_tables(module) == ({"__all__"}, [])


def test_library_imports_no_numpy():
    # the core is exact and has no runtime dependency
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in mods if m.split(".")[0] == "numpy"]
    assert not found, found


def test_sub_reports_enter_only_through_merge():
    # a report rebuilt from another's status, details or certainty keeps
    # only what it copies; a sub-report enters a report through
    # CheckReport.merge, which carries its status, certainty, evidence,
    # witness and notes
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "CheckReport"
                    and (len(node.args) > 1
                         or {k.arg for k in node.keywords} & {"status", "details", "certainty"})):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_private_report_members_stay_in_checks():
    # a report is read and extended through its public methods; a private
    # method or attribute of CheckReport used elsewhere ties its caller to
    # the report's internals (the CLI once recomputed certainties this way)
    cls = next(node for node in ast.parse((SRC / "checks.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef) and node.name == "CheckReport")
    private = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    private |= {node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    private |= {node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self"}
    private = {name for name in private if name.startswith("_") and not name.endswith("__")}
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        if path.name != "checks.py":
            found += [f"{path.name}:{node.lineno} {node.attr}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, found


def test_torsion_builder_uses_only_ring_operations():
    # the shape pass decides a table through a ring homomorphism, which
    # holds only while `_components` applies ring operations to its inputs:
    # it may read pack, neg and dot of its ring and hand the ring nowhere
    # else, so a new ring method there is a decision, seen here
    fn = next(node for node in ast.parse((SRC / "torsion.py").read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and node.name == "_components")
    assert fn.args.args[0].arg == "ring"
    attrs = {id(node.value): node.attr for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ring"}
    uses = [node for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == "ring"]
    assert uses and all(id(node) in attrs for node in uses), "ring used other than by attribute"
    assert set(attrs.values()) == {"pack", "neg", "dot"}, sorted(set(attrs.values()))


def test_one_differentiation_routine():
    # every partial comes from one pass of symexpr._t_grad: Expr.diff is
    # its one-coordinate case, and the torsion module takes each jet from
    # one gradient, so it makes no .diff( call
    tree = ast.parse((SRC / "symexpr.py").read_text(encoding="utf-8"))
    defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and ("diff" in node.name or "grad" in node.name)]
    assert sorted(node.name for node in defs) == ["_t_grad", "diff"]
    method = next(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "Expr")
    method = next(node for node in method.body if isinstance(node, ast.FunctionDef) and node.name == "diff")
    assert "_t_grad" in {node.id for node in ast.walk(method) if isinstance(node, ast.Name)}
    calls = [node.lineno for node in ast.walk(ast.parse((SRC / "torsion.py").read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "diff"]
    assert not calls, calls


def _float_uses(tree):
    """The float( calls and math.exp references under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node
        elif (isinstance(node, ast.Attribute) and node.attr == "exp"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node


def test_library_computes_in_no_floats():
    # exact reasoning decides every verdict; no zero test samples in floats
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in _float_uses(tree)]
    assert not found, found


def test_oracle_imports_nothing_from_the_kernel():
    # an oracle that ran the kernel's evaluator or derivative would share
    # the faults it is meant to catch
    found = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "oracle.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("haantjes.symexpr")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("haantjes"):
            mod = importlib.import_module(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name == "symexpr" or node.module == "haantjes.symexpr"
                      or getattr(getattr(mod, a.name), "__module__", "") == "haantjes.symexpr"]
    assert not found, found


def _assigned_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_names(elt)


def _module_level_names(tree):
    """(name, node) for each name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((name, node) for t in targets for name in _assigned_names(t))


def _names_read(tree, strings=False):
    """The names read under tree, as bare names or attributes, and with
    strings=True also its string constants (a name looked up by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_named_somewhere():
    # a function, method, class or module-level name of the library that no
    # source, test, demo or benchmark names (as a bare name read, or an
    # attribute) serves nothing; dunder names are read by the language
    named = set()
    for top in ("src", "tests", "demos", "bench"):
        for path in (ROOT / top).glob("**/*.py"):
            named.update(_names_read(ast.parse(path.read_text(encoding="utf-8"))))
    unnamed = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = [(node.lineno, node.name) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defined += [(node.lineno, name) for name, node in _module_level_names(tree)]
        unnamed += [f"{path.name}:{line} {name}" for line, name in defined
                    if not _is_dunder(name) and name not in named]
    assert not unnamed, unnamed


def _attributes_read(tree):
    """The attribute names read under tree."""
    return (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _reached_outside_the_tests():
    """(defs, reached, attributes): the top-level library definitions by
    name; the names that the command line (its module-level tables and main)
    or a demo or benchmark file reaches, through the definitions each one
    names; and the attribute names that those files and the reached
    definitions read."""
    defs = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
        for name, node in _module_level_names(tree):
            defs.setdefault(name, []).append(node)
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    roots = [node for node in cli.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
    for top in ("demos", "bench"):
        roots += [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / top).glob("**/*.py")]
    todo = ["main"] + [name for root in roots for name in _names_read(root, strings=True)]
    attributes = {name for root in roots for name in _attributes_read(root)}
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo += _names_read(node)
                attributes.update(_attributes_read(node))
    return defs, reached, attributes


def test_every_definition_is_reached_outside_the_tests():
    # a top-level library definition that neither the command line (its
    # module-level tables and main) nor a demo or benchmark file reaches,
    # through the definitions each one names, is kept alive by the tests
    # alone; the few listed here stay on purpose
    allowed = {
        "check_contact_haantjes": "a paper statement that waits for a directive (ROADMAP item 8)",
        "theorem6_check": "a paper statement that waits for a directive (ROADMAP item 8)",
        "proposition_involutivity_check": "a paper statement that waits for a directive (ROADMAP item 8)",
        "particular_integral_check": "a paper statement that waits for a directive (ROADMAP item 8)",
        "ParticularIntegralWitness": "the witness of particular_integral_check (ROADMAP item 8)",
        "lie_bracket": "the reference bracket that the literal torsion route and the pair- and "
                       "Hamiltonian-bracket laws check the frame tables and brackets against",
    }
    defs, reached, _ = _reached_outside_the_tests()
    unreached = {name for name in defs if name not in reached and not _is_dunder(name)}
    assert unreached == set(allowed), {"unreached": sorted(unreached - set(allowed)),
                                       "listed, but reached or gone": sorted(set(allowed) - unreached)}


def test_every_method_is_reached_outside_the_tests():
    # a method whose name neither a demo or benchmark file nor a reached
    # library definition reads as an attribute is called by the tests
    # alone; dunder methods are called by the language
    _, _, attributes = _reached_outside_the_tests()
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef):
                unreached += [f"{path.name}:{fn.lineno} {cls.name}.{fn.name}" for fn in cls.body
                              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                              and not _is_dunder(fn.name) and fn.name not in attributes]
    assert not unreached, unreached
