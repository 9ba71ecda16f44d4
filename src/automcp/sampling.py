"""Stratified endpoint sampling driven by a per-group diversity score.

Small manifests are exercised exhaustively. Larger ones are partitioned
by resource group (first semantic path segment) and a greedy pass picks
the endpoints that introduce an unseen HTTP verb, auth scheme kind, or
parameter modality until every axis present in the group is covered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .compiler import ToolManifest, ToolSpec
from .security import KIND_NONE

DEFAULT_THRESHOLD = 20

_NON_SEMANTIC_SEGMENT = re.compile(r"^(v\d+|api|rest)$", re.IGNORECASE)

MODALITY_BODY = "body"


@dataclass
class SampleReport:
    groups: dict[str, list[str]] = field(default_factory=dict)
    total_selected: int = 0
    coverage_axes: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    exhaustive: bool = False
    scores: dict[str, list[int]] = field(default_factory=dict)

    def selected_tools(self) -> list[str]:
        names: list[str] = []
        for group in self.groups.values():
            names.extend(group)
        return names

    def to_dict(self) -> dict:
        return {
            "exhaustive": self.exhaustive,
            "total_selected": self.total_selected,
            "groups": self.groups,
            "coverage_axes": self.coverage_axes,
            "scores": self.scores,
        }


def path_group(path: str) -> str:
    """First semantic path segment: version prefixes and template
    variables do not name a resource."""
    for segment in path.split("/"):
        if not segment or segment.startswith("{"):
            continue
        if _NON_SEMANTIC_SEGMENT.match(segment):
            continue
        return segment
    return "_root"


def endpoint_axes(tool: ToolSpec, scheme_kinds: dict[str, str]) -> tuple[str, frozenset, frozenset]:
    """(verb, auth kinds, parameter modalities) for one endpoint."""
    ep = tool.endpoint
    auth = set()
    for requirement in ep.security:
        for scheme_id in requirement:
            auth.add(scheme_kinds.get(scheme_id, KIND_NONE))
    if not auth:
        auth.add(KIND_NONE)
    modalities = {p.location for p in ep.parameters}
    if ep.request_body_schema is not None:
        modalities.add(MODALITY_BODY)
    return ep.method, frozenset(auth), frozenset(modalities)


def sample(manifest: ToolManifest, threshold: int = DEFAULT_THRESHOLD) -> SampleReport:
    """Select the evaluation subset for a manifest.

    At or below `threshold` tools, everything is selected. Above it,
    the greedy diversity pass runs per group, re-scoring after every
    pick, with ties broken by document order.
    """
    scheme_kinds = {s.id: s.kind for s in manifest.schemes}
    grouped: dict[str, list[ToolSpec]] = {}
    for tool in manifest.tools:
        grouped.setdefault(path_group(tool.endpoint.path_template), []).append(tool)

    report = SampleReport(exhaustive=len(manifest.tools) <= threshold)
    for group, tools in grouped.items():
        if report.exhaustive:
            picked = list(tools)
            scores: list[int] = []
        else:
            picked, scores = _greedy_pick(tools, scheme_kinds)
        report.groups[group] = [t.tool_name for t in picked]
        report.scores[group] = scores
        report.coverage_axes[group] = _coverage(picked, scheme_kinds)
    report.total_selected = sum(len(v) for v in report.groups.values())
    return report


def _greedy_pick(
    tools: list[ToolSpec], scheme_kinds: dict[str, str]
) -> tuple[list[ToolSpec], list[int]]:
    axes = [endpoint_axes(t, scheme_kinds) for t in tools]
    seen_verbs: set[str] = set()
    seen_auth: set[str] = set()
    seen_modalities: set[str] = set()
    remaining = list(range(len(tools)))
    picked: list[int] = []
    scores: list[int] = []

    while remaining:
        best_index = None
        best_score = 0
        for i in remaining:
            verb, auth, modalities = axes[i]
            # diversity score: one point per axis this endpoint is new on
            score = (
                (verb not in seen_verbs)
                + bool(auth - seen_auth)
                + bool(modalities - seen_modalities)
            )
            if score > best_score:
                best_score = score
                best_index = i
        if best_index is None:
            break  # every axis in the group is covered
        picked.append(best_index)
        scores.append(best_score)
        remaining.remove(best_index)
        verb, auth, modalities = axes[best_index]
        seen_verbs.add(verb)
        seen_auth |= auth
        seen_modalities |= modalities

    pairs = sorted(zip(picked, scores))  # keep document order in the report
    return [tools[i] for i, _ in pairs], [s for _, s in pairs]


def _coverage(
    tools: list[ToolSpec], scheme_kinds: dict[str, str]
) -> dict[str, list[str]]:
    verbs: set[str] = set()
    auth: set[str] = set()
    modalities: set[str] = set()
    for tool in tools:
        verb, kinds, mods = endpoint_axes(tool, scheme_kinds)
        verbs.add(verb)
        auth |= kinds
        modalities |= mods
    return {
        "verbs": sorted(verbs),
        "auth": sorted(auth),
        "modalities": sorted(modalities),
    }
