"""Every automcp name the benchmark binds to still exists.

`perfbench/tracing.py` rebinds functions at the module attributes listed
in its `LAYER_CALLS`, and the bench's modules import automcp names
directly. Both are read here without importing the bench, so a refactor
that renames one of them fails this suite, not only a traced bench run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def layer_calls() -> list[tuple[str, str, str]]:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_CALLS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py no longer assigns LAYER_CALLS")


def automcp_imports() -> list[tuple[str, str, str]]:
    """(module, name, bench file) for every `from automcp... import name`."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "automcp"
            ):
                found += [(node.module, alias.name, path.name) for alias in node.names]
    return found


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in layer_calls()], ids=lambda part: part
)
def test_trace_site_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_bench_imports_exist():
    imports = automcp_imports()
    assert {"compileworker.py", "layers.py"} <= {path for _, _, path in imports}
    for module, name, path in imports:
        assert hasattr(importlib.import_module(module), name), f"{path}: {module}.{name}"
