"""In-memory spans around automcp's public calls, recorded from outside.

The traced run rebinds each public function at the module attribute its
callers look it up through (``automcp.pipeline.flatten``,
``automcp.doctor.lint``, ``requests.request``, ...) to a wrapper that
records a span, and restores the originals afterwards. Nothing under
``src/`` changes. A target that no longer exists, or one that the probes
never reach, fails the traced run: after a refactor the lookup site must
be updated here rather than its layer silently reading 0.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from common import BenchFailure

# (module, attribute, span name): the lookup sites used by compile_file,
# fix_loop and invoke_tool.
LAYER_CALLS = [
    ("automcp.pipeline", "load_document", "ingest.load_document"),
    ("automcp.pipeline", "resolve_base_url", "ingest.resolve_base_url"),
    ("automcp.pipeline", "normalize", "ingest.normalize"),
    ("automcp.pipeline", "flatten", "refs.flatten"),
    ("automcp.pipeline", "validate", "refs.validate"),
    ("automcp.pipeline", "extract_security", "security.extract_security"),
    ("automcp.pipeline", "compile_manifest", "compiler.compile_manifest"),
    ("automcp.pipeline", "build_env_map", "security.build_env_map"),
    ("automcp.pipeline", "fix_loop", "doctor.fix_loop"),
    ("automcp.doctor", "normalize", "ingest.normalize"),
    ("automcp.doctor", "flatten", "refs.flatten"),
    ("automcp.doctor", "lint", "doctor.lint"),
    ("automcp.doctor", "apply_patch", "doctor.apply_patch"),
    ("automcp.runtime", "validate_args", "runtime.validate_args"),
    ("automcp.runtime", "resolve_auth", "runtime.resolve_auth"),
    ("automcp.runtime", "merge_extra_headers", "runtime.merge_extra_headers"),
    ("requests", "request", "http.request"),
]

_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index, request_id]; all
    spans under one top-level request share its id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.requests: dict[int, dict] = {}
        self._by_request: dict[int, list[list]] = {}
        self._stack: list[int] = []
        self._request: int | None = None
        # calls through each LAYER_CALLS site, keyed "module.attribute"
        self.site_calls: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._by_request.setdefault(self._request, []).append(record)
        try:
            yield
        finally:
            record[_END] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def request(self, name: str, **labels):
        """A top-level span that starts a new request id."""
        request_id = len(self.requests)
        self.requests[request_id] = {"name": name, **labels}
        saved = self._stack, self._request
        self._stack, self._request = [], request_id
        try:
            with self.span(name):
                yield request_id
        finally:
            self._stack, self._request = saved

    def record(self, name: str, start_s: float, end_s: float, **labels) -> None:
        """A request timed elsewhere (perf_counter seconds), e.g. one
        JSON-RPC request to a serve process."""
        request_id = len(self.requests)
        self.requests[request_id] = {"name": name, **labels}
        record = [name, int(start_s * 1e9), int(end_s * 1e9), -1, request_id]
        self.spans.append(record)
        self._by_request[request_id] = [record]

    def wrap(self, fn, name: str, site: str):
        def traced(*args, **kwargs):
            self.site_calls[site] += 1
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def layers(self):
        """Rebind every LAYER_CALLS target for the duration."""
        saved = []
        for module_name, attr, span_name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                raise BenchFailure(f"trace site {module_name}.{attr} no longer exists")
            saved.append((module, attr, original, span_name))
        for module, attr, original, span_name in saved:
            setattr(module, attr, self.wrap(original, span_name, f"{module.__name__}.{attr}"))
        try:
            yield
        finally:
            for module, attr, original, _ in reversed(saved):
                setattr(module, attr, original)

    def unreached_sites(self) -> list[str]:
        """LAYER_CALLS sites that no traced call went through."""
        return [f"{m}.{a}" for m, a, _ in LAYER_CALLS if not self.site_calls[f"{m}.{a}"]]

    # -- reading spans back

    def durations(self, request_id: int, name: str) -> float:
        """Total ms of spans called `name` inside one request."""
        return sum(
            (s[_END] - s[_START]) / 1e6
            for s in self._by_request.get(request_id, ())
            if s[_NAME] == name
        )

    def requests_named(self, name: str) -> list[int]:
        return [rid for rid, info in self.requests.items() if info["name"] == name]

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total ms and self ms (total minus the
        time covered by child spans; children never overlap here)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
        table: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s[_NAME], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = s[_END] - s[_START]
            row["count"] += 1
            row["total_ms"] += duration / 1e6
            row["self_ms"] += (duration - child_ns[i]) / 1e6
        return table

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "requests": self.requests,
            "spans": self.spans,
            "self_times": self.self_times(),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
