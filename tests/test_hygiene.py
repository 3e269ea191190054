"""Source hygiene: library modules compile without a warning, import nothing
they do not use, and every check directive is documented; the kernel, the
tensor module and the torsion and compatibility builders keep no
process-wide tables, and importing the package does not load numpy."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
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


@pytest.mark.parametrize("module", ["geometry", "torsion", "extended", "jacobi", "contact", "lcs"])
def test_builders_keep_no_process_wide_tables(module):
    # an algebra check shares torsions within one call; a table kept across
    # calls would be a process-wide cache, with the same faults
    assert _process_wide_tables(module) == ({"__all__"}, [])


def test_import_does_not_load_numpy():
    # numpy serves the pointwise spectral report only, and its import takes more
    # resident memory than the rest of the package
    code = "import sys, haantjes.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
