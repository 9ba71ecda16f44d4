"""Start-up imports: each command loads only the modules it runs.

Every case runs in a fresh interpreter and reads `sys.modules` there, so
nothing this suite has already imported can hide or add a module.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import fixture_path

# what neither `import automcp` nor `generate` on a JSON spec needs
HEAVY = [
    "automcp.doctor",
    "automcp.splice",
    "automcp.evaluator",
    "automcp.mock_upstream",
    "automcp.oauth",
    "automcp.runtime",
    "http.server",
    "requests",
    "yaml",
    "difflib",
]

# Runs `python -m automcp <args>` in this interpreter.
RUN_CLI = """
import runpy, sys
sys.argv = ["automcp", *sys.argv[2:]]
try:
    runpy.run_module("automcp", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def loaded_after(code: str, *args, tmp_path, stdin: str = "") -> set[str]:
    """The modules a fresh interpreter holds after running `code`, which
    reads its own arguments from `sys.argv[2:]`."""
    out = tmp_path / "modules.json"
    code = ("import sys\nOUT = sys.argv[1]\n" + code + "\nimport json\n"
            "with open(OUT, 'w') as f:\n"
            "    json.dump(sorted(sys.modules), f)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(out), *map(str, args)],
                          input=stdin, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(out.read_text(encoding="utf-8")))


def test_import_automcp_loads_only_the_version(tmp_path):
    loaded = loaded_after("import automcp", tmp_path=tmp_path)
    assert {m for m in loaded if m.startswith("automcp")} == {"automcp", "automcp._version"}


def test_generate_on_json_loads_no_heavy_module(tmp_path):
    loaded = loaded_after(RUN_CLI, "generate", fixture_path("legacy20.json"),
                          "--out", tmp_path / "out", tmp_path=tmp_path)
    assert "automcp.pipeline" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []


def test_serve_on_json_loads_only_the_call_path(tmp_path):
    env_file = tmp_path / ".env"
    env_file.write_text("", encoding="utf-8")
    initialize = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize",
                             "params": {"protocolVersion": "2024-11-05"}}) + "\n"
    loaded = loaded_after(RUN_CLI, "serve", fixture_path("petstore.json"),
                          "--env", env_file, tmp_path=tmp_path, stdin=initialize)
    call_path = {"automcp.runtime", "requests"}
    assert call_path <= loaded
    assert sorted(loaded.intersection(HEAVY) - call_path) == []


def test_lint_on_json_loads_no_yaml_or_repair_code(tmp_path):
    loaded = loaded_after(RUN_CLI, "lint", fixture_path("legacy20.json"),
                          tmp_path=tmp_path)
    assert "automcp.doctor" in loaded
    assert sorted(loaded.intersection(["yaml", "automcp.splice", "difflib"])) == []


@pytest.mark.parametrize("name", ["legacy20.json", "allauth.yaml"])
def test_compile_file_without_fix_loads_no_repair_code(tmp_path, name):
    code = "import sys\nfrom automcp.pipeline import compile_file\ncompile_file(sys.argv[2])"
    loaded = loaded_after(code, fixture_path(name), tmp_path=tmp_path)
    assert "automcp.doctor" not in loaded
    assert "automcp.splice" not in loaded
