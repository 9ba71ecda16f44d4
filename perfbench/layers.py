"""Per-layer probes for the traced run.

Each probe calls automcp's public functions in this process, under the
tracer's spans, on the workload's own inputs; the per-layer metrics are
read back from the spans. Compile-side figures are medians per spec,
combined over specs by geometric mean like the end-to-end compile
metrics; counts are summed over specs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from automcp.compiler import tools_list_payload
from automcp.pipeline import compile_file
from automcp.runtime import invoke_tool

from common import BenchFailure, geomean, median
from serving import check_records
from tracing import Tracer


def _positive_geomean(values: list[float], what: str) -> float:
    """A layer that took no time was not reached: fail rather than read 0."""
    if not values or min(values) <= 0:
        raise BenchFailure(f"{what}: no time recorded for some input")
    return geomean(values)


class Probes:
    def __init__(self, tracer: Tracer, tally) -> None:
        self.tracer = tracer
        self.tally = tally
        self.invoked = 0
        self.untraced_ms: dict[str, list[float]] = {}

    def _traced(self, name: str, fn, **labels):
        with self.tracer.layers(), self.tracer.request(name, **labels):
            return fn()

    # -- compile path

    def compile(self, specs: list[Path], reps: dict[str, int]) -> dict:
        """Traced and untraced compile_file, alternating; returns counts
        from the last compile of each spec, summed."""
        counts = {"resolved": 0, "cycles": 0, "flat_bytes": 0, "tools": 0, "spec_bytes": 0}
        for spec in specs:
            for _ in range(reps[spec.name]):
                self.tally.attempted += 2
                compiled = self._traced(
                    "pipeline.compile_file", lambda: compile_file(spec),
                    spec=spec.name, kind="compile",
                )
                t0 = time.perf_counter()
                compile_file(spec)
                self.untraced_ms.setdefault(f"compile:{spec.name}", []).append(
                    (time.perf_counter() - t0) * 1000.0
                )
            counts["resolved"] += compiled.contract.ref_count_resolved
            counts["cycles"] += len(compiled.contract.cycles_detected)
            counts["flat_bytes"] += len(json.dumps(compiled.contract.tree))
            counts["tools"] += len(compiled.manifest.tools)
            counts["spec_bytes"] += spec.stat().st_size
        return counts

    def fix(self, specs: list[Path], reps: int, rules) -> dict:
        totals = {"iterations": 0, "loc_changed": 0}
        for spec in specs:
            for _ in range(reps):
                self.tally.attempted += 1
                compiled = self._traced(
                    "pipeline.compile_file",
                    lambda: compile_file(spec, fix=True, rules=rules),
                    spec=spec.name, kind="fix",
                )
            totals["iterations"] += compiled.fix_report.iterations
            totals["loc_changed"] += compiled.fix_report.total_loc_changed
        return totals

    def list_payload(self, manifests: dict[str, object], reps: int) -> tuple[float, int]:
        """tools_list_payload plus the JSON encode serve does per request:
        (geomean over manifests of the median ms, total bytes)."""
        per_manifest = []
        total_bytes = 0
        for name, manifest in manifests.items():
            samples = []
            for _ in range(reps):
                with self.tracer.request("compiler.list_payload", spec=name) as rid:
                    blob = json.dumps(
                        {"jsonrpc": "2.0", "id": 1,
                         "result": {"tools": tools_list_payload(manifest)}},
                        ensure_ascii=False,
                    )
                samples.append(self.tracer.durations(rid, "compiler.list_payload"))
            per_manifest.append(median(samples))
            total_bytes += len(blob.encode())
        return _positive_geomean(per_manifest, "compiler.list_payload"), total_bytes

    def lookup(self, manifests: dict[str, object], rng, batches: int = 20) -> float:
        """Median µs per ToolManifest.tool() over names spread evenly over
        each manifest; geometric mean over manifests."""
        per_manifest = []
        for name, manifest in manifests.items():
            tools = manifest.tools
            step = max(1, len(tools) // 200)
            names = [t.tool_name for t in tools[rng.randrange(step)::step]]
            samples = []
            for _ in range(batches):
                with self.tracer.request("compiler.tool_lookup", spec=name) as rid:
                    for tool_name in names:
                        if manifest.tool(tool_name) is None:
                            self.tally.fail(f"lookup of {tool_name} failed")
                samples.append(self.tracer.durations(rid, "compiler.tool_lookup")
                               * 1000.0 / len(names))
            per_manifest.append(median(samples))
        return _positive_geomean(per_manifest, "compiler.tool_lookup")

    # -- call path

    def invoke(self, compiled, calls_by_round, rounds: int, env: dict, mock) -> None:
        """invoke_tool in this process against the out-of-process mock,
        alternating traced and untraced rounds."""
        manifest = compiled.manifest
        by_name = {t.tool_name: t for t in manifest.tools}
        for r in range(2 * rounds):
            calls = next(calls_by_round)
            bad = 0
            for call in calls:
                tool = by_name[call.name]
                self.tally.attempted += 1
                self.invoked += 1

                def run():
                    return invoke_tool(tool, dict(call.args), env, manifest.base_url,
                                       manifest.schemes, compiled.bindings)

                if r % 2 == 0:
                    result = self._traced("runtime.invoke_tool", run, tool=call.name)
                else:
                    t0 = time.perf_counter()
                    result = run()
                    self.untraced_ms.setdefault("invoke", []).append(
                        (time.perf_counter() - t0) * 1000.0
                    )
                if result.is_error or result.http_status != call.status:
                    bad += 1
                    self.tally.notes.append(f"invoke {call.name}: HTTP {result.http_status}")
            check_records(mock, calls, self.tally, bad_replies=bad)

    # -- reading back

    def per_spec(self, kind: str, span_name: str) -> float:
        """Geometric mean over specs of the median per-request total of
        `span_name` in requests of this kind."""
        specs: dict[str, list[float]] = {}
        for rid, info in self.tracer.requests.items():
            if info.get("kind") == kind:
                specs.setdefault(info["spec"], []).append(
                    self.tracer.durations(rid, span_name))
        return _positive_geomean([median(v) for v in specs.values()], span_name)

    def per_request(self, request_name: str, span_names: tuple[str, ...]) -> float:
        """Median over requests of the summed span time, in ms."""
        values = [
            sum(self.tracer.durations(rid, n) for n in span_names)
            for rid in self.tracer.requests_named(request_name)
        ]
        if not values or median(values) <= 0:
            raise BenchFailure(f"{span_names}: no time recorded under {request_name}")
        return median(values)

    def overhead_pct(self) -> float:
        """Traced minus untraced compile and invoke time, as a share of
        untraced, from the medians of each."""
        traced = untraced = 0.0
        for key, values in self.untraced_ms.items():
            untraced += median(values)
            if key == "invoke":
                traced += self.per_request("runtime.invoke_tool", ("runtime.invoke_tool",))
            else:
                spec = key.split(":", 1)[1]
                rids = [rid for rid, info in self.tracer.requests.items()
                        if info.get("kind") == "compile" and info["spec"] == spec]
                traced += median(
                    self.tracer.durations(rid, "pipeline.compile_file") for rid in rids
                )
        return (traced - untraced) / untraced * 100.0 if untraced else 0.0

