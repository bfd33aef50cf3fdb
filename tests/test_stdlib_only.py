"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import thimac

SOURCES = sorted(Path(thimac.__file__).parent.glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"thimac"}


def imported_modules(path: Path) -> list[str]:
    """Every absolute module name an ``import`` in the file names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_walk_sees_the_imports():
    assert len(SOURCES) >= 8
    assert {"re", "bisect", "argparse"} <= {
        name for path in SOURCES for name in imported_modules(path)
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = [
        name for name in imported_modules(path) if name.split(".")[0] not in ALLOWED
    ]
    assert outside == []
