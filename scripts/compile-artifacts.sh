#!/usr/bin/env bash
# Compile output and lint findings of every spec automcp is checked on,
# written to OUT so that two commits' runs can be compared with `diff -r`.
#
# Usage: scripts/compile-artifacts.sh OUT [SRC]
#
# Run from the repository root. SRC is the automcp source tree to run
# (default: src); the specs always come from this checkout: each fixture
# under tests/fixtures, each defect spec under tests/fixtures/defects
# (compiled with --fix and the vendor rules), and the benchmark's
# generated specs at seed 1 (perfbench/specgen.py: the 500-op spec as
# JSON, as block YAML and as flow-style YAML, the 1000-op spec as
# flow-style YAML, the diamond and the cyclic spec), and a small spec
# with path-item parameters in each dialect. Three specs with
# gaps are compiled with --fix and the vendor rules as well: the 500-op
# spec as JSON with class E gaps (scripts/gap_spec.py), whose repairs
# are spliced; a small YAML spec whose class B repair lands under an
# alias, so the whole document is rendered; a small YAML spec whose keys are not strings (a `200:`
# path, a `1:` scheme, an `on:` property, a `~:` example key) and whose
# class B repair replaces an anchored URL that an alias names; and a
# small 2.0 spec (`host: "{{host}}"`, `basePath: /v2`), compiled with a
# rules file of its own whose `base_url` has a path, so that its class B
# repair splits that URL over `host` and `basePath`. For each
# spec OUT holds `generate --emit-stub`'s files (manifest, stub.json,
# .env template, launch config, and the repaired copy and diff of a
# defect spec) and `lint --rules`'s JSON; for the specs with gaps also
# `lint --fix --rules`'s JSON, which holds the changed-line counts. A lint exit other than 0 or 4 fails the
# script. The work happens under fixed paths in TMPDIR, so paths
# written into the artifacts are the same on every run.
set -euo pipefail

out=${1:?usage: scripts/compile-artifacts.sh OUT [SRC]}
src=$(cd "${2:-src}" && pwd)
rules=tests/fixtures/vendor_rules.json
work="${TMPDIR:-/tmp}/automcp-compile-artifacts"
specs="${TMPDIR:-/tmp}/automcp-generated-specs"
rm -rf "$work" "$specs"
mkdir -p "$work" "$specs"
gaps="${TMPDIR:-/tmp}/automcp-generated-gap-specs"
gap_rules="${TMPDIR:-/tmp}/automcp-gap-rules"  # a gap spec's own rules, by its name
rm -rf "$gaps" "$gap_rules"
mkdir -p "$gaps" "$gap_rules"

automcp() { PYTHONPATH="$src" python -m automcp "$@"; }

compile_and_lint() {  # SPEC DIR RULES [generate options...]
  local spec=$1 dir=$2 spec_rules=$3 code=0
  shift 3
  automcp generate "$spec" --emit-stub --out "$dir" "$@"
  automcp lint "$spec" --rules "$spec_rules" > "$dir/lint.json" || code=$?
  if [ "$code" -ne 0 ] && [ "$code" -ne 4 ]; then
    echo "lint $spec exited $code" >&2
    exit 1
  fi
}

python - "$specs" <<'PY'
import json, sys
from pathlib import Path

import yaml

sys.path.insert(0, "perfbench")
from specgen import crud_spec, cyclic_spec, diamond_spec, to_yaml

out = Path(sys.argv[1])
crud = crud_spec(1, 500)
(out / "generated500.json").write_text(json.dumps(crud, indent=2), encoding="utf-8")
# Flow-style leaves put many brackets in shallow text; the 1000-op spec
# has more than 2,000, which once sent it to the pure-Python YAML loader.
for name, tree in (("generated500-flow", crud), ("generated1000-flow", crud_spec(1, 1000))):
    (out / f"{name}.yaml").write_text(
        yaml.safe_dump(tree, default_flow_style=None), encoding="utf-8")
for name, tree in (("generated500", crud), ("diamond", diamond_spec(1)),
                   ("cyclic", cyclic_spec(1))):
    (out / f"{name}.yaml").write_text(to_yaml(tree), encoding="utf-8")
# Path-item parameters in each dialect: inherited unless the operation's
# own override them by name and `in` (absent `in` reads as query), a
# formData field, an apiKey slot, an undeclared template variable and a
# `parameters` that is not a list.
(out / "item-params-2.0.yaml").write_text("""\
swagger: '2.0'
info: {title: Item Params 2.0, version: '1'}
host: params.example
securityDefinitions:
  key: {type: apiKey, in: query, name: key}
paths:
  /notes/{id}/{rev}:
    parameters:
      - {name: id, in: path, required: true, type: string}
      - {name: limit, type: integer}
      - {name: limit, in: header, type: string}
      - {name: title, in: formData, type: string}
      - {name: key, in: query, type: string}
    get:
      parameters:
        - {name: limit, in: query, type: string, required: true}
      responses: {'200': {description: ok}}
    post:
      security: [{key: []}]
      parameters:
        - {name: title, in: formData, type: string, required: true}
        - {name: tags, in: formData, type: array, items: {type: string}}
      responses: {'201': {description: created}}
  /notes:
    parameters: not a list
    get: {responses: {'200': {description: ok}}}
""", encoding="utf-8")
(out / "item-params-3.x.yaml").write_text("""\
openapi: 3.0.3
info: {title: Item Params 3.x, version: '1'}
servers: [{url: 'https://params.example'}]
paths:
  /notes/{id}/{rev}:
    parameters:
      - {name: id, in: path, required: true, schema: {type: string}}
      - {name: limit, schema: {type: integer}}
      - {name: limit, in: header, schema: {type: string}}
      - {name: X-Trace, in: header, schema: {type: string}}
    get:
      parameters:
        - {name: limit, in: query, required: true, schema: {type: string}}
        - {name: rev, in: path, required: true, schema: {type: string}}
      responses: {'200': {description: ok}}
    delete:
      parameters:
        - {name: X-Trace, in: header, required: true, schema: {type: string, enum: [a]}}
      responses: {'204': {description: gone}}
  /notes:
    parameters: {name: q, in: query}
    get: {responses: {'200': {description: ok}}}
""", encoding="utf-8")
PY

for spec in tests/fixtures/*.json tests/fixtures/*.yaml "$specs"/*; do
  [ "$(basename "$spec")" = vendor_rules.json ] && continue
  compile_and_lint "$spec" "$work/$(basename "$spec")" "$rules"
done
for spec in tests/fixtures/defects/*.json tests/fixtures/defects/*.yaml; do
  [ "$(basename "$spec")" = reference_counts.json ] && continue
  compile_and_lint "$spec" "$work/defects/$(basename "$spec")" "$rules" --fix --rules "$rules"
done

python scripts/gap_spec.py "$gaps" 500 json
python - "$gaps" "$gap_rules" <<'PY'
import json, sys
from pathlib import Path

out = Path(sys.argv[1])
(out / "alias-gaps.yaml").write_text("""\
openapi: 3.0.3
info: {title: Alias Gaps, version: '1'}
x-base: &base {url: '{{root}}'}
servers:
  - *base
components:
  securitySchemes:
    bearer: {type: http, scheme: bearer}
paths:
  /notes:
    get:
      security: [{bearer: []}]
      responses: {'200': {description: ok}}
    post:
      responses: {'201': {description: created}}
""", encoding="utf-8")
(out / "keys.yaml").write_text("""\
openapi: 3.0.3
info: {title: Keys, version: '1'}
servers: [{url: &u '{{root}}'}]
x-copy: *u
security: [{1: []}]
components:
  securitySchemes:
    1: {type: apiKey, in: header, name: X-Key}
paths:
  200:
    post:
      requestBody:
        content:
          application/json:
            schema:
              type: object
              properties:
                on: {type: boolean}
              example: {on: true, ~: none}
      responses: {200: {description: ok}}
""", encoding="utf-8")
(out / "subpath-2.0.yaml").write_text("""\
swagger: '2.0'
info: {title: Sub Path, version: '1'}
host: '{{host}}'
basePath: /v2
paths:
  /items:
    get:
      responses: {'200': {description: ok}}
""", encoding="utf-8")
(Path(sys.argv[2]) / "subpath-2.0.yaml.json").write_text(json.dumps(
    {"^Sub Path$": {"base_url": "https://api.vendor.com/v2"}}), encoding="utf-8")
PY

for spec in "$gaps"/*; do
  dir="$work/gaps/$(basename "$spec")"
  spec_rules="$gap_rules/$(basename "$spec").json"
  [ -f "$spec_rules" ] || spec_rules=$rules
  compile_and_lint "$spec" "$dir" "$spec_rules" --fix --rules "$spec_rules"
  code=0
  automcp lint "$spec" --fix --rules "$spec_rules" --out "$dir/lint-fix" \
    > "$dir/lint-fix.json" || code=$?
  if [ "$code" -ne 0 ] && [ "$code" -ne 4 ]; then
    echo "lint --fix $spec exited $code" >&2
    exit 1
  fi
done

rm -rf "$out"
mkdir -p "$(dirname "$out")"
mv "$work" "$out"
