"""Timed in-process compile loop of the compile-corpus workload.

    python perfbench/compileworker.py CONFIG_JSON

Runs in its own process so that its peak RSS is the compiler's alone.
Runs one round per line read on stdin and answers each with one JSON
line; end of input stops it. A round runs every job `reps` times in a
seeded order. Every compile is checked (tool count, manifest digest; after a
fix also lint-clean for classes A, B, D, E and the changed-line bound)
outside the timed region. The answer holds the round's timed seconds
and per-spec times in ms, each with the host reference time
(common.host_ref_ms) sampled just before it.
"""

from __future__ import annotations

import json
import random
import sys
import time

from automcp.doctor import lint, load_vendor_rules
from automcp.ingest import normalize
from automcp.pipeline import compile_file
from automcp.refs import flatten

from common import host_ref_ms, manifest_digest, median

BLOCKING_CLASSES = {"A", "B", "D", "E"}


def check(job: dict, compiled, rules) -> str | None:
    if len(compiled.manifest.tools) != job["tools"]:
        return f"{job['name']}: {len(compiled.manifest.tools)} tools, expected {job['tools']}"
    if manifest_digest(compiled) != job["digest"]:
        return f"{job['name']}: manifest digest differs from the first compile"
    if job["fix"]:
        report = compiled.fix_report
        if report.total_loc_changed > job["loc_max"]:
            return f"{job['name']}: {report.total_loc_changed} lines changed > {job['loc_max']}"
        raw = compiled.raw
        left = {f.lint_class for f in lint(flatten(normalize(raw)), raw, rules)}
        if left & BLOCKING_CLASSES:
            return f"{job['name']}: classes {sorted(left & BLOCKING_CLASSES)} remain after fix"
    return None


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    rng = random.Random(config["seed"])
    rules = load_vendor_rules(config["rules"])
    schedule = [job for job in config["jobs"] for _ in range(job["reps"])]

    def run_round() -> dict:
        out = {"seconds": 0.0, "times_ms": {}, "ref_ms": {}, "attempted": 0,
               "failed": 0, "notes": []}
        order = list(schedule)
        rng.shuffle(order)
        for job in order:
            out["attempted"] += 1
            ref = median(host_ref_ms() for _ in range(3))
            t0 = time.perf_counter()
            try:
                if job["fix"]:
                    compiled = compile_file(job["path"], fix=True, rules=rules)
                else:
                    compiled = compile_file(job["path"])
            except Exception as exc:  # noqa: BLE001 - a failed compile is a failed op
                out["failed"] += 1
                out["notes"].append(f"{job['name']}: {exc.__class__.__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            out["seconds"] += elapsed
            problem = check(job, compiled, rules)
            if problem:
                out["failed"] += 1
                out["notes"].append(problem)
            else:
                out["times_ms"].setdefault(job["name"], []).append(elapsed * 1000.0)
                out["ref_ms"].setdefault(job["name"], []).append(ref)
        return out

    for _ in sys.stdin:
        print(json.dumps(run_round()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
