"""Start-up imports: each command loads only the modules it runs.

Every case runs in a fresh interpreter and reads `sys.modules` there, so
nothing this suite has already imported can hide or add a module.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from automcp.mock_upstream import run_mock_upstream
from conftest import fixture_path, rebase_spec, sentinel_credentials

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

# the HTTP client and what it loads; `certifi` is left out, because `site`
# may import it
HTTP_CLIENT = ["requests", "urllib3", "ssl", "http.client", "charset_normalizer",
               "idna"]

# Feeds stdin to `serve` a line at a time, and fails the run if `requests`
# is loaded when the first `tools/call` line is read.
NO_CLIENT_BEFORE_A_CALL = """
import sys
_lines = sys.stdin.readlines()
def _feed():
    first = True
    for line in _lines:
        if first and '"tools/call"' in line:
            assert "requests" not in sys.modules, "requests loaded before a call"
            first = False
        yield line
sys.stdin = _feed()
"""

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


def handshake(*calls: dict) -> str:
    """`initialize` and `tools/list`, then `calls`, as serve's stdin."""
    messages = [{"jsonrpc": "2.0", "id": 1, "method": "initialize",
                 "params": {"protocolVersion": "2024-11-05"}},
                {"jsonrpc": "2.0", "id": 2, "method": "tools/list"},
                *({"jsonrpc": "2.0", "id": i, "method": "tools/call", "params": call}
                  for i, call in enumerate(calls, start=3))]
    return "".join(json.dumps(m) + "\n" for m in messages)


def test_serve_on_json_loads_only_the_call_path(tmp_path):
    """`serve` answers the handshake with `runtime` loaded but no HTTP
    client: `requests` waits for the first `tools/call`."""
    env_file = tmp_path / ".env"
    env_file.write_text("", encoding="utf-8")
    loaded = loaded_after(RUN_CLI, "serve", fixture_path("petstore.json"),
                          "--env", env_file, tmp_path=tmp_path, stdin=handshake())
    assert "automcp.runtime" in loaded
    assert sorted(loaded.intersection(HEAVY + HTTP_CLIENT) - {"automcp.runtime"}) == []


def test_serve_on_yaml_loads_no_http_client(tmp_path):
    env_file = tmp_path / ".env"
    env_file.write_text("", encoding="utf-8")
    loaded = loaded_after(RUN_CLI, "serve", fixture_path("allauth.yaml"),
                          "--env", env_file, tmp_path=tmp_path, stdin=handshake())
    assert "automcp.runtime" in loaded
    assert sorted(loaded.intersection(HTTP_CLIENT)) == []


@pytest.fixture
def allauth_mock(allauth, tmp_path):
    """(the mock, allauth.yaml pointed at it, a .env holding its credentials)"""
    env_values, creds = sentinel_credentials(allauth)
    with run_mock_upstream(allauth.manifest, credentials=creds) as mock:
        spec = rebase_spec(fixture_path("allauth.yaml"), mock.base_url, tmp_path)
        env_file = tmp_path / ".env"
        env_file.write_text("".join(f"{k}={v}\n" for k, v in env_values.items()),
                            encoding="utf-8")
        yield mock, spec, env_file


def test_first_tools_call_imports_requests(tmp_path, allauth_mock):
    _, spec, env_file = allauth_mock
    loaded = loaded_after(NO_CLIENT_BEFORE_A_CALL + RUN_CLI, "serve", spec,
                          "--env", env_file, tmp_path=tmp_path,
                          stdin=handshake({"name": "listgadgets", "arguments": {}}))
    assert "requests" in loaded


def test_two_first_calls_import_requests_at_once(tmp_path, allauth_mock):
    """The first two calls go to two pool workers, which both import
    `requests`; each gets the mock's answer."""
    mock, spec, env_file = allauth_mock
    names = ["listgadgets", "listnotes"]
    stdin = handshake(*({"name": name, "arguments": {}} for name in names))
    proc = subprocess.run(  # RUN_CLI reads its arguments from sys.argv[2:]
        [sys.executable, "-c", NO_CLIENT_BEFORE_A_CALL + RUN_CLI, "-",
         "serve", str(spec), "--env", str(env_file)],
        input=stdin, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    replies = {r["id"]: r for r in map(json.loads, proc.stdout.splitlines())}
    for msg_id, name in enumerate(names, start=3):
        result = replies[msg_id]["result"]
        assert result["isError"] is False, result
        assert json.loads(result["content"][0]["text"])["tool"] == name
    success = {t.tool_name: t.endpoint.success_status for t in mock.manifest.tools}
    assert sorted((r.tool_name, r.status) for r in mock.records) == sorted(
        (name, success[name]) for name in names)


def test_lint_on_json_loads_no_yaml_or_repair_code(tmp_path):
    loaded = loaded_after(RUN_CLI, "lint", fixture_path("legacy20.json"),
                          tmp_path=tmp_path)
    assert "automcp.doctor" in loaded
    assert sorted(loaded.intersection(["yaml", "automcp.splice", "difflib"])) == []


@pytest.mark.parametrize("command", ["generate", "lint", "sample"])
def test_commands_other_than_serve_load_no_logging(tmp_path, command):
    """Only `runtime` logs, so only `serve` configures `logging`."""
    args = ["--out", tmp_path / "out"] if command == "generate" else []
    loaded = loaded_after(RUN_CLI, command, fixture_path("legacy20.json"), *args,
                          tmp_path=tmp_path)
    assert "automcp.pipeline" in loaded
    assert "logging" not in loaded


@pytest.mark.parametrize("name", ["legacy20.json", "allauth.yaml"])
def test_compile_file_without_fix_loads_no_repair_code(tmp_path, name):
    code = "import sys\nfrom automcp.pipeline import compile_file\ncompile_file(sys.argv[2])"
    loaded = loaded_after(code, fixture_path(name), tmp_path=tmp_path)
    assert "automcp.doctor" not in loaded
    assert "automcp.splice" not in loaded
