"""Source hygiene: library modules compile without a warning, import nothing
they do not use, and every check directive is documented."""

import ast
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


def test_readme_documents_every_directive():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [verb for verb in _VERBS if f"| `{verb}` |" not in readme]
    assert not missing, missing
