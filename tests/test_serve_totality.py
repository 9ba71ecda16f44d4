"""Wire totality of `serve`: a property over drawn JSON-RPC sessions.

Each example is one session of drawn lines, run in process through
`runtime.serve` over `StringIO`, on allauth.yaml's manifest with and
without a lone surrogate in a tool description. The lines are requests
and notifications whose ids are drawn from every JSON type, deep
nesting and lone surrogates included: `initialize`, `ping`,
`tools/list`, unknown methods, `notifications/*`, `tools/call` to an
unknown tool or with arguments that fail validation (so no upstream
request is made), and lines that are not JSON.

The property holds when the loop returns normally; every line it writes
is JSON (no `NaN`) that encodes as UTF-8; each line that is not a
notification gets exactly one answer, carrying its id, or null for an
id JSON-RPC 2.0 §4 does not allow; and every `tools/list` answer is,
byte for byte, `jsonout.dumps` of the whole reply.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from automcp.compiler import tools_list_payload
from automcp.jsonout import dumps
from automcp.pipeline import compile_file
from automcp.runtime import serve
from conftest import FIXTURES

# CI's `totality` job loads the larger `totality` profile (tests/conftest.py)
EXAMPLES = max(200, settings.default.max_examples)


def _manifest(description: str | None = None):
    manifest = compile_file(FIXTURES / "allauth.yaml").manifest
    if description is not None:
        manifest.tools[0].description = description
    return manifest


MANIFESTS = [_manifest(), _manifest("lists gadgets \ud800 and é")]
TOOL_NAMES = [tool.tool_name for tool in MANIFESTS[0].tools]

LONE_SURROGATES = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])
TEXT = st.lists(st.characters() | LONE_SURROGATES, max_size=8).map("".join)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=8,
)


@dataclass(frozen=True)
class Deep:
    """An id of `depth` nested arrays, written as text: no encoder is
    asked to nest that deep."""

    depth: int


ABSENT = object()  # a notification: no `id` key at all
IDS = (JSON_VALUES | st.integers(900, 990).map(Deep)
       | st.sampled_from([ABSENT, None, True, float("nan"), float("inf")]))

FAILING_ARGUMENTS = st.one_of(  # `arguments` is read as `arguments or {}`
    st.dictionaries(TEXT.map(lambda key: "\x00" + key), JSON_VALUES,  # undeclared
                    min_size=1, max_size=2),
    st.lists(JSON_VALUES, min_size=1, max_size=2),
    TEXT.filter(bool),
    st.integers().filter(bool),
    st.just(True),
)
CALLS = st.one_of(
    st.builds(lambda name, args: {"name": name, "arguments": args},
              st.sampled_from(TOOL_NAMES), FAILING_ARGUMENTS),
    st.builds(lambda name: {"name": name, "arguments": {}},
              TEXT.filter(lambda name: name not in TOOL_NAMES)),
)
REQUESTS = st.one_of(
    st.tuples(st.sampled_from(["initialize", "ping", "tools/list"])
              | TEXT | TEXT.map("notifications/".__add__), JSON_VALUES),
    st.tuples(st.just("tools/call"), CALLS),
    st.tuples(JSON_VALUES, JSON_VALUES),  # a method that is not a string
)


def request_line(method_params: tuple, msg_id) -> str:
    method, params = method_params
    text = json.dumps({"jsonrpc": "2.0", "method": method, "params": params})
    if msg_id is ABSENT:
        return text
    if isinstance(msg_id, Deep):
        id_text = "[" * msg_id.depth + "]" * msg_id.depth
    else:
        id_text = json.dumps(msg_id)  # NaN and Infinity included
    return '{"id": ' + id_text + ", " + text[1:]


LINES = st.lists(
    st.one_of(
        st.builds(request_line, REQUESTS, IDS),
        TEXT.map(lambda text: text.replace("\n", "")),  # not JSON, mostly
        st.builds(json.dumps, JSON_VALUES),  # JSON, but no request
    ),
    max_size=12,
)


def is_id(value) -> bool:
    """JSON-RPC 2.0 §4: a string, a number (no bool) or null."""
    if isinstance(value, bool):
        return False
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (str, int))


def expected_answers(line: str) -> list[tuple[object, object]]:
    """The (id, method) of each answer `line` should get, read as `serve`
    reads it: none for a blank line or a notification, else exactly one,
    whose id is null unless the line holds an allowed id."""
    line = line.strip()
    if not line:
        return []
    try:
        message = json.loads(line)
    except (ValueError, RecursionError):
        return [(None, None)]
    if not isinstance(message, dict):
        return [(None, None)]
    if "id" not in message and isinstance(message.get("method"), str):
        return []
    msg_id = message.get("id")
    if not is_id(msg_id):
        return [(None, None)]
    return [(msg_id, message.get("method"))]


def _no_constants(name: str):
    raise ValueError(f"{name} is not JSON")


def strict_json(line: str):
    return json.loads(line, parse_constant=_no_constants)


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(lines=LINES, manifest=st.sampled_from(MANIFESTS))
def test_every_request_gets_one_utf8_json_line(lines, manifest):
    stdout = io.StringIO()
    with mock.patch("requests.request") as upstream:
        serve(manifest, {}, stdin=io.StringIO("".join(line + "\n" for line in lines)),
              stdout=stdout, timeout=5)
    assert upstream.call_count == 0

    out = stdout.getvalue().splitlines()
    for line in out:
        line.encode("utf-8")
    answers = [strict_json(line) for line in out]
    expected = [answer for line in lines for answer in expected_answers(line)]
    assert Counter(json.dumps(a["id"]) for a in answers) == Counter(
        json.dumps(msg_id) for msg_id, _ in expected)

    tools = tools_list_payload(manifest)
    references = Counter(
        dumps({"jsonrpc": "2.0", "id": msg_id, "result": {"tools": tools}})
        for msg_id, method in expected if method == "tools/list")
    assert not references - Counter(out)
