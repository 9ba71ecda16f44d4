"""Evaluation harness: ordering, argument synthesis, pass/fail labels."""

from __future__ import annotations

import json

from automcp.evaluator import (
    evaluate,
    evaluate_spec_file,
    load_exclusions_file,
    load_order_file,
    order_tools,
    synth_args,
)
from automcp.mock_upstream import run_mock_upstream
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
