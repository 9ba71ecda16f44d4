"""Evaluation harness: ordering, argument synthesis, pass/fail labels."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from automcp import evaluator
from automcp.evaluator import (
    evaluate,
    evaluate_spec_file,
    load_exclusions_file,
    load_order_file,
    order_tools,
    synth_args,
)
from automcp.mock_upstream import MockUpstream, run_mock_upstream
from automcp.runtime import InvocationResult
from automcp.sampling import sample
from conftest import DEFECTS, fixture_path, sentinel_credentials


class TestOrderTools:
    def test_creates_before_reads_before_updates_before_deletes(self, allauth):
        selected = [t.tool_name for t in allauth.manifest.tools]
        ordered = order_tools(allauth.manifest, selected)
        gadget_methods = [
            t.endpoint.method for t in ordered
            if t.endpoint.path_template.startswith("/gadgets")
        ]
        assert gadget_methods == ["POST", "GET", "GET", "PUT", "DELETE"]

    def test_explicit_order_file_wins(self, allauth):
        selected = [t.tool_name for t in allauth.manifest.tools]
        ordered = order_tools(
            allauth.manifest, selected, order_override=["deleteGadget".lower()]
        )
        assert ordered[0].tool_name == "deletegadget"

    def test_exclusions_dropped(self, allauth):
        selected = [t.tool_name for t in allauth.manifest.tools]
        ordered = order_tools(allauth.manifest, selected, exclusions={"creategadget"})
        assert all(t.tool_name != "creategadget" for t in ordered)

    def test_order_and_exclusion_files_are_line_oriented(self, tmp_path):
        order_file = tmp_path / "order.txt"
        order_file.write_text("# creates first\ncreatenote\n\ncreategadget\n")
        exclude_file = tmp_path / "skip.txt"
        exclude_file.write_text("deletegadget\n# premium\ndeletenote\n")
        assert load_order_file(order_file) == ["createnote", "creategadget"]
        assert load_exclusions_file(exclude_file) == {"deletegadget", "deletenote"}


class TestSynthArgs:
    def test_examples_win_over_types(self, tmp_path):
        import json
        from automcp.pipeline import compile_file

        spec = tmp_path / "d.json"
        spec.write_text(
            json.dumps(
                {
                    "openapi": "3.0.0",
                    "info": {"title": "Ex", "version": "1"},
                    "servers": [{"url": "https://ex.example"}],
                    "paths": {
                        "/p/{pid}": {
                            "get": {
                                "parameters": [
                                    {"name": "pid", "in": "path", "required": True,
                                     "example": "group/proj",
                                     "schema": {"type": "integer"}}
                                ],
                                "responses": {"200": {"description": "ok"}},
                            }
                        }
                    },
                }
            ),
            encoding="utf-8",
        )
        compiled = compile_file(spec)
        args = synth_args(compiled.manifest.tools[0])
        assert args == {"pid": "group/proj"}

    def test_type_derived_defaults(self, allauth):
        create = next(
            t for t in allauth.manifest.tools if t.tool_name == "creategadget"
        )
        args = synth_args(create)
        assert args["body"]["name"] == "sample-name"
        assert args["body"]["size"] == 1

    def test_every_schema_shape_gives_a_value(self):
        """A default, a list of types, a node that is no schema, an array
        with no item schema, and nesting past three levels each give a
        value."""
        deep = {"type": "object", "properties": {"d": {"type": "integer"}}}
        for key in "cba":
            deep = {"type": "object", "properties": {key: deep}}
        deep_list = {"type": "integer"}
        for _ in range(4):
            deep_list = {"type": "array", "items": deep_list}
        tool = SimpleNamespace(input_schema={"properties": {
            "raw": "not a schema", "dflt": {"type": "integer", "default": 7},
            "union": {"type": ["number", "null"]}, "untyped": {"type": []},
            "bare": {"type": "array"}, "deep": deep, "deep_list": deep_list,
        }})
        assert synth_args(tool) == {
            "raw": "sample-raw", "dflt": 7, "union": 1.5, "untyped": "sample-untyped",
            "bare": [], "deep": {"a": {"b": {"c": {}}}}, "deep_list": [[[[]]]],
        }

    def test_enum_first_value(self, allauth):
        list_jobs = next(
            t for t in allauth.manifest.tools if t.tool_name == "listjobs"
        )
        assert synth_args(list_jobs)["status"] == "queued"


class TestEvaluate:
    def test_clean_fixtures_pass_completely(self, petstore, allauth):
        for compiled in (petstore, allauth):
            env, creds = sentinel_credentials(compiled)
            report_sample = sample(compiled.manifest, threshold=100)
            with run_mock_upstream(compiled.manifest, credentials=creds) as mock:
                report = evaluate(compiled.manifest, report_sample, mock, env)
            failures = [o.to_dict() for o in report.outcomes if not o.passed]
            assert failures == []
            assert report.pass_rate == 1.0

    def test_compile_stage_failure_reports_zero_over_op_count(self):
        report = evaluate_spec_file(DEFECTS / "class_b.yaml", env={})
        assert report.manifest_loaded is False
        assert report.passed == 0
        assert report.total == 7
        assert "BaseUrlError" in report.load_error
        assert report.pass_rate == 0.0

    def test_compile_stage_failure_with_info_not_a_mapping(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "openapi": "3.0.3", "info": ["T"],
            "paths": {"/a": {"get": {"responses": {"200": {"description": "ok"}}}}},
        }), encoding="utf-8")
        report = evaluate_spec_file(spec, env={})
        assert (report.api_title, report.total) == (str(spec), 1)
        assert "BaseUrlError" in report.load_error

    def test_unparseable_spec_reports_its_load_error(self, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text("{:::not parseable\n", encoding="utf-8")
        report = evaluate_spec_file(spec, env={})
        assert (report.api_title, report.total) == (str(spec), 0)
        assert report.load_error.startswith("ParseError: ")
        assert report.format_table() == (f"API: {spec}   0/0 passed (0%)\n"
                                         f"  manifest failed to load: {report.load_error}")

    def test_fix_flag_repairs_and_passes(self):
        from automcp.doctor import load_vendor_rules

        rules = load_vendor_rules(fixture_path("vendor_rules.json"))
        report = evaluate_spec_file(
            DEFECTS / "class_b.yaml", env={}, fix=True, rules=rules, threshold=100
        )
        assert report.manifest_loaded is True
        assert report.pass_rate == 1.0

    def test_labels_reproducible_across_runs_with_reset(self, allauth):
        env, creds = sentinel_credentials(allauth)
        report_sample = sample(allauth.manifest, threshold=100)
        with run_mock_upstream(allauth.manifest, credentials=creds) as mock:
            first = evaluate(allauth.manifest, report_sample, mock, env)
            mock.reset()
            second = evaluate(allauth.manifest, report_sample, mock, env)
        assert [o.to_dict() for o in first.outcomes] == [
            o.to_dict() for o in second.outcomes
        ]

    def test_report_table_lists_failures(self, petstore):
        env, creds = sentinel_credentials(petstore)
        env_missing = {k: v for k, v in env.items() if "API_KEY" not in k}
        report_sample = sample(petstore.manifest, threshold=100)
        with run_mock_upstream(petstore.manifest, credentials=creds) as mock:
            report = evaluate(petstore.manifest, report_sample, mock, env_missing)
        assert report.passed == 0
        table = report.format_table()
        assert "FAIL(invoke)" in table
        assert "0%" in table or "0/19" in table

    def test_legacy_2_0_contract_end_to_end(self):
        from automcp.pipeline import compile_file

        compiled = compile_file(fixture_path("legacy20.json"))
        assert compiled.manifest.base_url == "https://ledger.legacy.example/api"
        assert len(compiled.manifest.tools) == 3
        env, creds = sentinel_credentials(compiled)
        report_sample = sample(compiled.manifest, threshold=100)
        with run_mock_upstream(compiled.manifest, credentials=creds) as mock:
            report = evaluate(compiled.manifest, report_sample, mock, env)
        assert report.pass_rate == 1.0
        # the synthesized path parameter made it into the flag tool
        flag = next(t for t in compiled.manifest.tools if t.tool_name == "flagentry")
        assert "entry_id" in flag.input_schema["properties"]


OK = {"200": {"description": "ok"}}


def write_spec(tmp_path, paths: dict):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.3", "info": {"title": "Echo", "version": "1"},
        "servers": [{"url": "https://echo.example"}], "paths": paths,
    }), encoding="utf-8")
    return spec


def outcomes(report) -> dict:
    return {o.tool_name: (o.passed, o.stage, o.detail) for o in report.outcomes}


def query(name: str, schema: dict) -> dict:
    return {"name": name, "in": "query", "schema": schema}


ITEM_PATHS = {"/items/{item_id}": {"get": {"operationId": "getItem", "parameters": [
    {"name": "item_id", "in": "path", "required": True,
     "schema": {"type": "string", "example": "a b/é"}},
    query("q", {"type": "string", "example": "x"}),
    query("flag", {"type": "boolean", "example": True}),
    query("n", {"type": "integer", "example": 3}),
    query("filter", {"type": "object", "example": {"a": [1, "b"]}}),
    query("tags", {"type": "array", "items": {"type": "string"},
                   "example": [None, "t1", "t2"]}),
    query("none", {"type": "array", "items": {"type": "string"}, "example": []}),
], "responses": OK}}}


DROP = object()  # an argument the changed call leaves out


class TestEchoStage:
    """The mock is the only oracle: a tool passes the echo stage when the
    mock served it as that tool's operation, with each path and query
    argument decoded to its wire text."""

    def test_wire_text_of_every_value_kind_passes(self, tmp_path):
        report = evaluate_spec_file(write_spec(tmp_path, ITEM_PATHS), env={})
        assert outcomes(report) == {"getitem": (True, "ok", "")}

    def test_sibling_route_the_mock_prefers_fails(self, tmp_path):
        """`GET /pets/{id}` called with `id: "mine"` is served by the mock
        as the more literal `GET /pets/mine`."""
        spec = write_spec(tmp_path, {
            "/pets/{id}": {"get": {"operationId": "getPet", "parameters": [
                {"name": "id", "in": "path", "required": True,
                 "schema": {"type": "string", "example": "mine"}}],
                "responses": OK}},
            "/pets/mine": {"get": {"operationId": "getMyPets", "responses": OK}},
        })
        report = evaluate_spec_file(spec, env={})
        got = outcomes(report)
        assert got["getmypets"] == (True, "ok", "")
        assert got["getpet"][:2] == (False, "echo")
        assert got["getpet"][2] == (
            "expected GET /pets/{id} as getpet, mock saw GET /pets/mine as getmypets")

    @pytest.mark.parametrize("change, detail", [
        ({"item_id": "other"}, "path 'item_id': sent 'a b/é', mock saw 'other'"),
        ({"q": "y"}, "query 'q': sent 'x', mock saw 'y'"),
        ({"flag": False}, "query 'flag': sent True, mock saw 'false'"),
        ({"tags": ["t2", "t1"]}, "query 'tags': sent [None, 't1', 't2'], mock saw 't2'"),
        ({"none": ["x"]}, "query 'none': sent [], mock saw 'x'"),
        ({"q": DROP}, "query 'q': sent 'x', mock saw None"),
    ], ids=["path", "query", "query-bool", "query-list-order", "query-empty-list",
            "query-left-out"])
    def test_argument_the_mock_decodes_differently_fails(
            self, tmp_path, monkeypatch, change, detail):
        real = evaluator.invoke_tool

        def invoke_changed(tool, args, *rest, **kwargs):
            changed = {k: v for k, v in {**args, **change}.items() if v is not DROP}
            return real(tool, changed, *rest, **kwargs)

        monkeypatch.setattr(evaluator, "invoke_tool", invoke_changed)
        report = evaluate_spec_file(write_spec(tmp_path, ITEM_PATHS), env={})
        assert outcomes(report) == {"getitem": (False, "echo", detail)}

    def test_nothing_recorded_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluator, "invoke_tool",
                            lambda *args, **kwargs: InvocationResult(200, {}, False))
        report = evaluate_spec_file(write_spec(tmp_path, ITEM_PATHS), env={})
        assert outcomes(report) == {"getitem": (
            False, "echo",
            "expected GET /items/{item_id} as getitem, mock saw nothing recorded")}

    def test_plain_yaml_date_example_passes(self, tmp_path):
        spec = tmp_path / "dates.yaml"
        spec.write_text(DATE_SPEC, encoding="utf-8")
        report = evaluate_spec_file(spec, env={})
        assert outcomes(report) == {"getday": (True, "ok", "")}

    def test_blank_query_value_passes(self, tmp_path):
        """`?blank=` reaches the mock as the empty text, not as nothing."""
        paths = {"/items": {"get": {"operationId": "listItems", "parameters": [
            query("blank", {"type": "string", "example": ""})], "responses": OK}}}
        report = evaluate_spec_file(write_spec(tmp_path, paths), env={})
        assert outcomes(report) == {"listitems": (True, "ok", "")}

    def test_non_finite_number_example_passes(self, tmp_path):
        """`.nan` goes out as its JSON text, `NaN`, as every other number does."""
        spec = tmp_path / "nan.yaml"
        spec.write_text(NAN_SPEC, encoding="utf-8")
        report = evaluate_spec_file(spec, env={})
        assert outcomes(report) == {"getreading": (True, "ok", "")}


FORM_PATHS = {"/things": {"post": {"operationId": "createThing", "requestBody": {
    "required": True, "content": {"application/x-www-form-urlencoded": {"schema": {
        "type": "object", "properties": {
            "n": {"type": "integer"}, "x": {"type": "number"},
            "ok": {"type": "boolean"}, "s": {"type": "string"},
            "tags": {"type": "array", "items": {"type": "integer"}},
            "none": {"type": "array", "example": []},
            "meta": {"type": "object", "example": {"a": [1]}}}}}}},
    "responses": {"201": {"description": "created"}}}}}


class TestStateStage:
    """A created resource must be in the mock's store: a JSON body as it
    was sent, a form body's fields as the text the mock records."""

    def test_form_fields_that_are_not_text_pass(self, tmp_path):
        report = evaluate_spec_file(write_spec(tmp_path, FORM_PATHS), env={})
        assert outcomes(report) == {"creatething": (True, "ok", "")}

    @pytest.mark.parametrize("change", [
        {"n": 2}, {"ok": False}, {"tags": [2]}, {"s": DROP}, {"none": ["x"]},
    ], ids=["int", "bool", "list-item", "left-out", "empty-list"])
    def test_form_field_stored_differently_fails(self, tmp_path, monkeypatch, change):
        real = evaluator.invoke_tool

        def invoke_changed(tool, args, *rest, **kwargs):
            body = {k: v for k, v in {**args["body"], **change}.items() if v is not DROP}
            return real(tool, {**args, "body": body}, *rest, **kwargs)

        monkeypatch.setattr(evaluator, "invoke_tool", invoke_changed)
        report = evaluate_spec_file(write_spec(tmp_path, FORM_PATHS), env={})
        assert outcomes(report) == {"creatething": (
            False, "state", "created resource not visible in the store")}

    def test_json_body_the_mock_does_not_store_fails(self, tmp_path, monkeypatch):
        paths = {"/things": {"post": {"operationId": "createThing", "requestBody": {
            "content": {"application/json": {"schema": {
                "type": "object", "properties": {"n": {"type": "integer"}}}}}},
            "responses": {"201": {"description": "created"}}}}}
        monkeypatch.setattr(MockUpstream, "_apply", forgetful_apply)
        report = evaluate_spec_file(write_spec(tmp_path, paths), env={})
        assert outcomes(report) == {"creatething": (
            False, "state", "created resource not visible in the store")}


def forgetful_apply(self, tool, path, query, body):
    """`MockUpstream._apply` for a mock that answers a create and stores
    nothing."""
    return tool.endpoint.success_status, {"tool": tool.tool_name}


# `example: 2020-01-01` reads as the text "2020-01-01", not as a date
NAN_SPEC = """\
openapi: 3.0.3
info: {title: Readings, version: "1"}
servers: [{url: "https://readings.example"}]
paths:
  /readings:
    get:
      operationId: getReading
      parameters:
        - {name: x, in: query, schema: {type: number}, example: .nan}
      responses: {"200": {description: ok}}
"""


DATE_SPEC = """\
openapi: 3.0.3
info: {title: Dates, version: "1"}
servers: [{url: "https://dates.example"}]
paths:
  /days/{day}:
    get:
      operationId: getDay
      parameters:
        - name: day
          in: path
          required: true
          schema: {type: string}
          example: 2020-01-01
      responses: {"200": {description: ok}}
"""
