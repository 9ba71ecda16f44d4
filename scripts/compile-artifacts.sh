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
# JSON and as YAML, the diamond and the cyclic spec). For each spec OUT
# holds `generate --emit-stub`'s files (manifest, stub.json, .env
# template, launch config, and the repaired copy and diff of a defect
# spec) and `lint --rules`'s JSON. A lint exit other than 0 or 4 fails
# the script. The work happens under fixed paths in TMPDIR, so paths
# written into the artifacts are the same on every run.
set -euo pipefail

out=${1:?usage: scripts/compile-artifacts.sh OUT [SRC]}
src=$(cd "${2:-src}" && pwd)
rules=tests/fixtures/vendor_rules.json
work="${TMPDIR:-/tmp}/automcp-compile-artifacts"
specs="${TMPDIR:-/tmp}/automcp-generated-specs"
rm -rf "$work" "$specs"
mkdir -p "$work" "$specs"

automcp() { PYTHONPATH="$src" python -m automcp "$@"; }

compile_and_lint() {  # SPEC DIR [generate options...]
  local spec=$1 dir=$2 code=0
  shift 2
  automcp generate "$spec" --emit-stub --out "$dir" "$@"
  automcp lint "$spec" --rules "$rules" > "$dir/lint.json" || code=$?
  if [ "$code" -ne 0 ] && [ "$code" -ne 4 ]; then
    echo "lint $spec exited $code" >&2
    exit 1
  fi
}

python - "$specs" <<'PY'
import json, sys
from pathlib import Path

sys.path.insert(0, "perfbench")
from specgen import crud_spec, cyclic_spec, diamond_spec, to_yaml

out = Path(sys.argv[1])
crud = crud_spec(1, 500)
(out / "generated500.json").write_text(json.dumps(crud, indent=2), encoding="utf-8")
for name, tree in (("generated500", crud), ("diamond", diamond_spec(1)),
                   ("cyclic", cyclic_spec(1))):
    (out / f"{name}.yaml").write_text(to_yaml(tree), encoding="utf-8")
PY

for spec in tests/fixtures/*.json tests/fixtures/*.yaml "$specs"/*; do
  [ "$(basename "$spec")" = vendor_rules.json ] && continue
  compile_and_lint "$spec" "$work/$(basename "$spec")"
done
for spec in tests/fixtures/defects/*.json tests/fixtures/defects/*.yaml; do
  [ "$(basename "$spec")" = reference_counts.json ] && continue
  compile_and_lint "$spec" "$work/defects/$(basename "$spec")" --fix --rules "$rules"
done

rm -rf "$out"
mkdir -p "$(dirname "$out")"
mv "$work" "$out"
