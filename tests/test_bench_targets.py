"""The traced benchmark wraps quadfield names listed in perfbench/spans.py.

A name that disappears from the program makes ``perfbench/run.py --trace 1``
fail, so every listed target must still resolve.  spans.py is executed from
its source text: nothing is imported from perfbench/ and no bytecode is
written there.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for module, qualname, _pre, _post in targets:
        owner = importlib.import_module(module)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = vars(owner).get(part)
            if owner is None:
                break
        # the tracer patches vars(owner)[attr], so an inherited name does not count
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{qualname}")
    assert missing == []
