"""Every function that the benchmark's tracer wraps exists in the library.

``perfbench/tracer.py`` looks up each ``(module, name)`` of its ``TRACED``
tuple in ``degseq.<module>`` and fails on a missing one. The tuple is read
from the file's syntax tree, so nothing under ``perfbench/`` is imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACER}")


def test_every_traced_name_exists():
    names = traced_names()
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"degseq.{module}"),
                                       name, None))]
    assert missing == []
