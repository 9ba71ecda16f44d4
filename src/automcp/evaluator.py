"""Desk-scale evaluation: drive sampled tools against the mock upstream
and score each call on HTTP success plus observable effect.

A tool passes when it (1) is present in a loadable manifest, (2) returns
a 2xx from the upstream, and (3) the mock served the request as this
tool's operation, with each path and query argument decoded to its text
under the wire rule (`_wire_text`); creates additionally must land in
the mock's resource store, a form body's fields each as the text the
mock records for it. The mock is the only oracle: nothing here
rebuilds a request the way the runtime does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .compiler import ToolManifest, ToolSpec
from .doctor import VendorRule
from .errors import AutoMcpError
from .ingest import api_title, load_document
from .mock_upstream import ENFORCE_PER_ENDPOINT, MockUpstream, run_mock_upstream
from .pipeline import compile_file, count_operations
from .runtime import bindings_for, invoke_tool
from .sampling import DEFAULT_THRESHOLD, SampleReport, path_group, sample

_METHOD_RANK = {
    "POST": 0,
    "GET": 1, "HEAD": 1, "OPTIONS": 1,
    "PUT": 2, "PATCH": 2,
    "DELETE": 3,
}


@dataclass
class ToolOutcome:
    tool_name: str
    passed: bool
    stage: str  # ok | invoke | http | echo | state
    detail: str = ""
    http_status: int | None = None

    def to_dict(self) -> dict:
        return {
            "tool": self.tool_name,
            "passed": self.passed,
            "stage": self.stage,
            "detail": self.detail,
            "http_status": self.http_status,
        }


@dataclass
class EvalReport:
    api_title: str
    manifest_loaded: bool = True
    load_error: str = ""
    total: int = 0
    passed: int = 0
    outcomes: list[ToolOutcome] = field(default_factory=list)

    @property
    def pass_rate(self) -> float:
        return self.passed / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "api": self.api_title,
            "manifest_loaded": self.manifest_loaded,
            "load_error": self.load_error,
            "passed": self.passed,
            "total": self.total,
            "pass_rate": round(self.pass_rate, 4),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def format_table(self) -> str:
        lines = [
            f"API: {self.api_title}   "
            f"{self.passed}/{self.total} passed ({self.pass_rate:.0%})"
        ]
        if not self.manifest_loaded:
            lines.append(f"  manifest failed to load: {self.load_error}")
            return "\n".join(lines)
        width = max((len(o.tool_name) for o in self.outcomes), default=4)
        for o in self.outcomes:
            status = "PASS" if o.passed else f"FAIL({o.stage})"
            detail = f"  {o.detail}" if o.detail and not o.passed else ""
            lines.append(f"  {o.tool_name:<{width}}  {status}{detail}")
        return "\n".join(lines)


def load_order_file(path: str | Path) -> list[str]:
    """Explicit call order, one tool name per line; '#' comments allowed."""
    return _read_lines(path)


def load_exclusions_file(path: str | Path) -> set[str]:
    """Tool names to skip (premium/geo-restricted stand-ins), one per line."""
    return set(_read_lines(path))


def _read_lines(path: str | Path) -> list[str]:
    names = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.append(line)
    return names


def order_tools(
    manifest: ToolManifest,
    selected: list[str],
    order_override: list[str] | None = None,
    exclusions: set[str] | None = None,
) -> list[ToolSpec]:
    """Dependency-friendly call order: creates, then reads, then updates,
    then deletes within each resource group; an explicit override list
    wins where it names tools."""
    exclusions = exclusions or set()
    chosen = [manifest.tool(name) for name in selected
              if name not in exclusions and manifest.tool(name) is not None]
    doc_index = {t.tool_name: i for i, t in enumerate(manifest.tools)}
    group_order: dict[str, int] = {}
    for tool in manifest.tools:
        group = path_group(tool.endpoint.path_template)
        group_order.setdefault(group, len(group_order))

    def heuristic_key(tool: ToolSpec):
        return (
            group_order[path_group(tool.endpoint.path_template)],
            _METHOD_RANK.get(tool.endpoint.method, 4),
            doc_index[tool.tool_name],
        )

    ordered = sorted(chosen, key=heuristic_key)
    if order_override:
        names = {t.tool_name for t in ordered}
        pinned = [name for name in order_override if name in names]
        pinned_names = set(pinned)
        tail = [t for t in ordered if t.tool_name not in pinned_names]
        ordered = [manifest.tool(name) for name in pinned] + tail
    return ordered


def evaluate(
    manifest: ToolManifest,
    sample_report: SampleReport,
    mock: MockUpstream,
    env: dict[str, str],
    timeout: float = 10.0,
    order_override: list[str] | None = None,
    exclusions: set[str] | None = None,
) -> EvalReport:
    """Invoke every sampled tool against the mock and label outcomes."""
    report = EvalReport(api_title=manifest.api_title)
    bindings = bindings_for(manifest)
    tools = order_tools(
        manifest, sample_report.selected_tools(), order_override, exclusions
    )
    report.total = len(tools)
    for tool in tools:
        outcome = _run_one(tool, manifest, mock, env, bindings, timeout)
        report.outcomes.append(outcome)
        if outcome.passed:
            report.passed += 1
    return report


def _run_one(tool, manifest, mock, env, bindings, timeout) -> ToolOutcome:
    args = synth_args(tool)
    try:
        result = invoke_tool(
            tool, args, env, mock.base_url, manifest.schemes, bindings,
            timeout=timeout,
        )
    except AutoMcpError as exc:
        return ToolOutcome(tool.tool_name, False, "invoke", str(exc))
    if result.is_error:
        return ToolOutcome(
            tool.tool_name, False, "http",
            f"HTTP {result.http_status}: {result.body}", result.http_status,
        )

    record = mock.last_record()
    if record is None or record.tool_name != tool.tool_name:
        got = (f"{record.method} {record.path} as {record.tool_name}" if record
               else "nothing recorded")
        return ToolOutcome(
            tool.tool_name, False, "echo",
            f"expected {tool.endpoint.method} {tool.endpoint.path_template} "
            f"as {tool.tool_name}, mock saw {got}",
            result.http_status,
        )
    for param in tool.endpoint.parameters:
        if param.is_credential or param.sanitized_name not in args:
            continue
        sent = args[param.sanitized_name]
        if param.location == "path":
            expected, seen = _wire_text(sent), record.path_params.get(param.name)
        elif param.location == "query":
            expected, seen = _recorded_text(sent), record.query.get(param.name)
        else:
            continue
        if seen != expected:
            return ToolOutcome(
                tool.tool_name, False, "echo",
                f"{param.location} {param.name!r}: sent {sent!r}, mock saw {seen!r}",
                result.http_status,
            )

    body = args.get("body")
    if tool.endpoint.method == "POST" and isinstance(body, dict):
        if tool.endpoint.request_content_type == "application/x-www-form-urlencoded":
            body = {k: _recorded_text(v) for k, v in body.items()}  # the mock's text
        stored = mock.store.get(record.path, [])
        if not any(all(item.get(k) == v for k, v in body.items()) for item in stored):
            return ToolOutcome(
                tool.tool_name, False, "state",
                "created resource not visible in the store",
                result.http_status,
            )
    return ToolOutcome(tool.tool_name, True, "ok", http_status=result.http_status)


def evaluate_spec_file(
    spec_path: str | Path,
    env: dict[str, str],
    credentials: dict[str, object] | None = None,
    required_headers: dict[str, str] | None = None,
    enforce: str = ENFORCE_PER_ENDPOINT,
    threshold: int = DEFAULT_THRESHOLD,
    fix: bool = False,
    rules: list[VendorRule] | None = None,
    timeout: float = 10.0,
) -> EvalReport:
    """Compile + sample + mock + evaluate one spec file.

    A compile-stage failure (the manifest never loads) yields a report
    with zero passes over the document's operation count.
    """
    try:
        compiled = compile_file(spec_path, fix=fix, rules=rules)
    except AutoMcpError as exc:
        raw_ops = 0
        title = str(spec_path)
        try:
            doc = load_document(spec_path)
            raw_ops = count_operations(doc.tree)
            title = api_title(doc.tree) or title
        except AutoMcpError:
            pass
        return EvalReport(
            api_title=title,
            manifest_loaded=False,
            load_error=f"{exc.__class__.__name__}: {exc}",
            total=raw_ops,
            passed=0,
        )

    sample_report = sample(compiled.manifest, threshold=threshold)
    mock = run_mock_upstream(
        compiled.manifest,
        credentials=credentials,
        required_headers=required_headers,
        enforce=enforce,
    )
    try:
        return evaluate(compiled.manifest, sample_report, mock, env, timeout=timeout)
    finally:
        mock.stop()


def synth_args(tool: ToolSpec) -> dict:
    """Deterministic sample arguments straight from the input schema.

    Declared examples win over type-derived defaults, so a contract whose
    example contradicts its type surfaces the mismatch at call time.
    """
    return {
        name: _sample_value(prop, name)
        for name, prop in tool.input_schema.get("properties", {}).items()
    }


def _sample_value(schema: dict, hint: str, depth: int = 0):
    if not isinstance(schema, dict):
        return f"sample-{hint}"
    if "example" in schema:
        return schema["example"]
    if "default" in schema:
        return schema["default"]
    if isinstance(schema.get("enum"), list) and schema["enum"]:
        return schema["enum"][0]
    declared = schema.get("type")
    if isinstance(declared, list):
        declared = declared[0] if declared else None
    if declared == "integer":
        return 1
    if declared == "number":
        return 1.5
    if declared == "boolean":
        return True
    if declared == "array":
        items = schema.get("items")
        if depth >= 3 or not isinstance(items, dict):
            return []
        return [_sample_value(items, hint, depth + 1)]
    if declared == "object" or "properties" in schema:
        if depth >= 3:
            return {}
        return {
            key: _sample_value(value, key, depth + 1)
            for key, value in (schema.get("properties") or {}).items()
        }
    return f"sample-{hint}"


def _recorded_text(sent) -> str | None:
    """What the mock records for a query value or form field: the wire text
    of a list's first item sent (`runtime._add_field`), None for none."""
    items = sent if isinstance(sent, list) else [sent]
    return next((t for t in map(_wire_text, items) if t is not None), None)


def _wire_text(value) -> str | None:
    """An argument's text on the wire, by the rule the README states for
    a path or query value: a string as itself, any other value as its
    JSON text, None left out (None here). A query list goes item by item."""
    if value is None or isinstance(value, str):
        return value
    return json.dumps(value)
