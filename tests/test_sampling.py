"""Diversity-score sampling: exhaustive mode, greedy coverage, oracle gap."""

from __future__ import annotations

import json
import random

import pytest

from automcp.pipeline import compile_file
from automcp.sampling import path_group, sample
from conftest import (
    group_axis_universe,
    min_cover_size,
    random_manifest,
)


class TestPathGroup:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/users", "users"),
            ("/users/{id}", "users"),
            ("/v2/repos/{owner}", "repos"),
            ("/api/v1/items", "items"),
            ("/{tenant}/boards", "boards"),
            ("/", "_root"),
            ("/v1", "_root"),
        ],
    )
    def test_first_semantic_segment(self, path, expected):
        assert path_group(path) == expected


class TestDiversityScore:
    def test_value_is_sum_of_indicators(self, tmp_path):
        # One point per axis (verb, auth kind, parameter modality) that a
        # pick is the first in its group to cover.
        query = [{"name": "q", "in": "query", "schema": {"type": "string"}}]
        body = {"content": {"application/json": {"schema": {"type": "object"}}}}
        spec = tmp_path / "items.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.0",
            "info": {"title": "Items", "version": "1"},
            "servers": [{"url": "https://items.example"}],
            "paths": {
                "/items": {
                    "get": {"operationId": "list_items", "parameters": query},
                    "post": {"operationId": "create_item", "requestBody": body},
                },
                "/items/{id}": {"get": {"operationId": "get_item"}},
            },
        }), encoding="utf-8")
        report = sample(compile_file(spec).manifest, threshold=0)
        # list_items is new on all three axes; then create_item adds POST
        # and a body (2) before get_item adds only a path parameter (1).
        assert report.groups == {"items": ["list_items", "create_item", "get_item"]}
        assert report.scores == {"items": [3, 2, 1]}


class TestSample:
    def test_small_manifest_selected_exhaustively(self, petstore):
        report = sample(petstore.manifest, threshold=20)
        assert report.exhaustive is True
        assert report.total_selected == 19
        assert sorted(report.selected_tools()) == sorted(
            t.tool_name for t in petstore.manifest.tools
        )

    def test_single_endpoint_scores_three(self):
        rng = random.Random(7)
        manifest = random_manifest(rng, max_groups=1, max_endpoints=1)
        report = sample(manifest, threshold=0)
        scores = next(iter(report.scores.values()))
        assert scores == [3]

    def test_above_threshold_uses_stratified_path(self, allauth):
        report = sample(allauth.manifest, threshold=20)
        assert report.exhaustive is False
        assert report.total_selected < len(allauth.manifest.tools)

    def test_groups_partition_by_semantic_segment(self, allauth):
        report = sample(allauth.manifest, threshold=20)
        assert set(report.groups) == {"gadgets", "widgets", "reports", "notes", "jobs"}

    def test_determinism(self, allauth):
        first = sample(allauth.manifest, threshold=20)
        second = sample(allauth.manifest, threshold=20)
        assert first.to_dict() == second.to_dict()

    def test_axes_covered_on_fixture(self, allauth):
        report = sample(allauth.manifest, threshold=20)
        scheme_kinds = {s.id: s.kind for s in allauth.manifest.schemes}
        by_name = {t.tool_name: t for t in allauth.manifest.tools}
        from automcp.sampling import path_group as group_of

        for group, selected_names in report.groups.items():
            group_tools = [
                t for t in allauth.manifest.tools
                if group_of(t.endpoint.path_template) == group
            ]
            selected = [by_name[name] for name in selected_names]
            assert group_axis_universe(selected, scheme_kinds) == group_axis_universe(
                group_tools, scheme_kinds
            )

    def test_axis_coverage_on_random_manifests(self):
        rng = random.Random(20250808)
        for _ in range(150):
            manifest = random_manifest(rng)
            report = sample(manifest, threshold=0)
            scheme_kinds = {s.id: s.kind for s in manifest.schemes}
            by_name = {t.tool_name: t for t in manifest.tools}
            from automcp.sampling import path_group as group_of

            for group, names in report.groups.items():
                group_tools = [
                    t for t in manifest.tools
                    if group_of(t.endpoint.path_template) == group
                ]
                selected = [by_name[n] for n in names]
                assert group_axis_universe(
                    selected, scheme_kinds
                ) == group_axis_universe(group_tools, scheme_kinds), group

    def test_greedy_close_to_minimum_cover(self):
        rng = random.Random(424242)
        checked = 0
        for _ in range(80):
            manifest = random_manifest(rng, max_groups=2, max_endpoints=10)
            report = sample(manifest, threshold=0)
            scheme_kinds = {s.id: s.kind for s in manifest.schemes}
            by_name = {t.tool_name: t for t in manifest.tools}
            from automcp.sampling import path_group as group_of

            for group, names in report.groups.items():
                group_tools = [
                    t for t in manifest.tools
                    if group_of(t.endpoint.path_template) == group
                ]
                if len(group_tools) > 10:
                    continue
                optimum = min_cover_size(group_tools, scheme_kinds)
                assert len(names) <= optimum + 2
                checked += 1
        assert checked > 50
