"""The suite's own layout: test modules share code through conftest and the
reference package, never by importing one another."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_no_test_module_imports_another():
    found = []
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.relative_to(TESTS)}:{node.lineno}: {module}"
                      for module in modules if module.split(".")[0].startswith("test_")]
    assert found == []
