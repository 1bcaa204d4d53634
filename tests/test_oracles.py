"""The tests and scripts take their references and shared spec generators from tests/oracles.py.

No module under tests/ or scripts/ imports a test module, so each oracle
has one copy, and a test module's helpers stay its own.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_no_module_imports_a_test_module():
    found = [(path.relative_to(ROOT).as_posix(), name)
             for folder in ("tests", "scripts") for path in sorted((ROOT / folder).glob("*.py"))
             for name in imported_modules(path) if name.split(".")[0].startswith("test_")]
    assert found == []
