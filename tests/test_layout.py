"""The repository's layout: test modules share code through conftest and the
reference package, never by importing one another; src/ holds the pipeline,
so every name it defines has a caller in the program, the benchmark or the
acceptance tests."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "quadfield"

# names reached without a caller by name:
# - stage_*: Pipeline runs each stage through getattr(self, f"stage_{stage}");
# - jump_norm: it serves tests until the run statistics report it;
# - dunders: Python calls them itself.
UNCALLED = re.compile(r"stage_\w+|jump_norm|__\w+__")


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


def _referenced(path):
    """Every name a module uses: loaded names, attributes, imported names, and the
    parts of dotted-name strings (how perfbench/spans.py names its targets)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            found.update(node.value.split("."))
    return found


def test_every_src_name_has_a_caller():
    callers = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               TESTS / "test_acceptance.py"]
    used = set().union(*map(_referenced, callers))
    defined = [(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    uncalled = [f"{module}.{name}" for module, name in defined
                if name not in used and not UNCALLED.fullmatch(name)]
    assert not uncalled, f"no caller in src/, perfbench/ or test_acceptance.py: {uncalled}"
