"""Source hygiene: every library module compiles without a warning."""

import pathlib
import warnings

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "haantjes"


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")), ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # compile() from source, so a cached .pyc cannot hide a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
