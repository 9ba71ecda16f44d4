"""automcp benchmark: serve start-up, tools/list, tools/call and compile.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists: perfbench/predictions.json):

  call-small      `serve` on tests/fixtures/allauth.yaml (25 ops, every
                  auth kind) against the credential-enforcing mock in its
                  own process; a phase with 1 call in flight, then 2.
  compile-corpus  in-process compile_file over petstore, legacy20,
                  allauth, a seeded 500-op YAML spec, a diamond $ref chain
                  and a small spec of recursive schemas, plus
                  compile_file(fix=True) over the five defect specs. No
                  HTTP, no stdio.

Every generated spec and call sequence derives from --seed. Load is
closed-loop from one single-threaded client. The end-to-end metrics are
shared by all workloads; what "main" and "side" measure on each is:

  metric       call-small                          compile-corpus
  setup_s      spawn `serve` -> initialize         one `automcp generate`
               answered                            on legacy20.json
  main_ms_p50  tools/call, 1 in flight             compile_file, geomean over
                                                   specs of per-spec medians
  side_ms_p50  tools/list, 1 in flight             compile_file(fix=True),
                                                   same geomean
  main_per_s   tools/call completed per s with     specs compiled per s
               2 in flight (median over rounds)    (count / sum of medians)
  peak_rss_mb  peak RSS of the serve process       peak RSS of the compiling
                                                   process

Every timing is scaled by a host speed reference timed next to it,
because the shared host's speed drifts by tens of percent over minutes
(common.py gives the evidence for each):

  setup_s      the median of SETUP_SPAWNS spawns spread over the run's
               timed work, each divided by a reference interpreter start
               timed just before it (common.REF_SPAWN_NOMINAL_S)
  call-small   each call and list time and each round's calls per second
               by raw fresh-connection GETs to the mock timed after its
               round (common.REF_RTT_NOMINAL_MS)
  compile-     each compile time by a pure-Python loop timed just before
  corpus       it (common.REF_NOMINAL_MS)

The unscaled values are printed as *_raw lines. The p90 of each timing is printed as a diagnostic "metric" line, not
reported as an end-to-end metric: on a shared host its run-to-run
spread was too wide to bound.

failed/attempted in the result line is the fail ratio. --trace 1 runs
the per-layer probes instead (spans from this directory's files, kept
in memory and written to perfbench/out/<run>/spans.json at the end).
Each run also prints the specific names of its figures (call_ms_p50,
list_ms_p90, compile_ms_geomean, per-spec rows, first/last tenth p50,
...) as "metric" lines, and an "inputs" line recording the seed, input
digests, nproc, the Python version and optional accelerators.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    DEFECTS, FIXTURES, OUT, REF_GETS, REF_NOMINAL_MS, REF_RTT_NOMINAL_MS, REF_SPAWN_NOMINAL_S,
    ROOT, SRC, BenchFailure,
    Child, SpreadSampler, child_env, cpu_seconds, credentials, geomean, log, manifest_digest,
    median, p90, ref_spawn_s, sha256_file,
)
from specgen import count_operations, crud_spec, cyclic_spec, diamond_spec, to_yaml

# A run that hangs is stopped, without a result, before 180 s.
WATCHDOG_S = 170

END_TO_END = {
    "setup_s": "s",
    "main_ms_p50": "ms",
    "side_ms_p50": "ms",
    "main_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ingest.load_ms": "ms",
    "ingest.normalize_ms": "ms",
    "ingest.spec_bytes": "bytes",
    "refs.flatten_ms": "ms",
    "refs.validate_ms": "ms",
    "refs.resolved": "count",
    "refs.cycles": "count",
    "refs.flat_bytes": "bytes",
    "security.extract_ms": "ms",
    "security.env_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.tools": "count",
    "compiler.list_payload_ms": "ms",
    "compiler.list_bytes": "bytes",
    "compiler.lookup_us": "us",
    "doctor.fix_ms": "ms",
    "doctor.lint_ms": "ms",
    "doctor.iterations": "count",
    "doctor.loc_changed": "count",
    "runtime.validate_us": "us",
    "runtime.auth_us": "us",
    "runtime.http_ms": "ms",
    "runtime.invoke_ms": "ms",
    "runtime.serve_overhead_ms": "ms",
    "runtime.cpu_ms_per_call": "ms",
    "upstream.rtt_fresh_ms": "ms",
    "upstream.rtt_keepalive_ms": "ms",
    "upstream.connections_per_call": "count",
    "upstream.cpu_ms_per_call": "ms",
    "client.cpu_ms_per_call": "ms",
    "trace.overhead_pct": "%",
}

# Shares of --seconds: the 1-in-flight phase, the rest is 2 in flight.
ONE_IN_FLIGHT_SHARE = 0.6
# Set-up samples per run, spread over its timed work (SpreadSampler).
SETUP_SPAWNS = 25
# In the traced serve session: a pair of in-process invoke_tool rounds
# (traced, untraced) after every INVOKE_EVERY-th round through serve.
INVOKE_EVERY = 4


def check_layout() -> None:
    for needed in (SRC / "automcp" / "__init__.py", FIXTURES / "allauth.yaml",
                   DEFECTS / "reference_counts.json"):
        if not needed.is_file():
            raise SystemExit(f"perfbench: {needed.relative_to(ROOT)} is missing; "
                             "run from a full checkout of the repository")


class Run:
    """State of one benchmark run: its directory, RNG, tally, the
    children to stop and the human-readable lines to print."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        from serving import Tally

        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.home = self.dir / "home"
        self.home.mkdir(parents=True)
        self.rng = random.Random(seed)
        self.tally = Tally()
        self.lines: list[str] = []
        self.inputs: dict = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "yaml_csafeloader": _has_csafeloader(),
            "orjson": importlib.util.find_spec("orjson") is not None,
            "spec_sha256": {},
        }
        self._closers: list = []

    def own(self, child):
        self._closers.append(child.close)
        return child

    def close(self) -> None:
        while self._closers:
            try:
                self._closers.pop()()
            except Exception as exc:  # noqa: BLE001 - keep stopping the rest
                log(f"perfbench: while stopping a child: {exc}")

    def record_input(self, path: Path) -> None:
        self.inputs["spec_sha256"][path.name] = sha256_file(path)

    def say(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"metric {self.workload} {name} {value:.6g} {unit}"
                          + (f"  # {note}" if note else ""))

    @property
    def tag(self) -> str:
        return f"s{self.seed}"


def _has_csafeloader() -> bool:
    import yaml

    return hasattr(yaml, "CSafeLoader")


# -- serve workloads -------------------------------------------------------------


@dataclass
class Target:
    """A spec served against its mock: the file serve reads, its compile
    (for tool names and schemas), the mock, and the credentials."""

    served: Path
    compiled: object
    mock: object
    env: dict        # the whole environment of serve
    env_creds: dict  # credential variables only
    creds: dict      # the mock's view of the same credentials


def prepare_fixture(run: Run, src: Path):
    """Mock for a fixture spec, and a copy of the spec whose server URL
    points at it (only that one string changes)."""
    from automcp.pipeline import compile_file
    from serving import Mock

    base = compile_file(src)
    env_creds, creds = credentials(base, run.tag)
    env = child_env(run.home, env_creds)
    mock = run.own(Mock(src, creds, run.dir, env))
    text = src.read_text(encoding="utf-8")
    if base.manifest.base_url not in text:
        raise BenchFailure(f"{src.name}: cannot find its server URL to rebase")
    served = run.dir / src.name
    served.write_text(text.replace(base.manifest.base_url, mock.base_url, 1), encoding="utf-8")
    compiled = compile_file(served)
    if compiled.manifest.base_url != mock.base_url:
        raise BenchFailure(f"{src.name}: rebased copy serves {compiled.manifest.base_url}")
    run.record_input(src)
    return Target(served, compiled, mock, env, env_creds, creds)


def serve_untraced(run: Run, target: Target, tools: list, per_round: int,
                   list_every: int) -> dict:
    from serving import (Serve, instrument_check, one_in_flight, plan_call,
                         round_source, rtt_probe, two_in_flight)

    served, mock, env = target.served, target.mock, target.env
    manifest = target.compiled.manifest
    n_tools = len(manifest.tools)
    calls = [plan_call(t, run.rng) for t in tools]
    fresh, keepalive = instrument_check(mock, manifest, target.creds, run.tally)

    def reference() -> float:
        return median(rtt_probe(mock, manifest, target.creds, REF_GETS, run.tally)[0])

    def setup_sample() -> tuple[float, float]:
        ref = ref_spawn_s(env, run.home)
        spawned = run.own(Serve(served, env, run.dir, run.home))
        run.tally.attempted += 1
        _close_serve(run, spawned)
        return spawned.setup_s, ref

    setups = SpreadSampler(setup_sample, SETUP_SPAWNS, run.seconds)
    serve = run.own(Serve(served, env, run.dir, run.home))
    rounds = round_source(calls, per_round, run.rng)
    one_in_flight(serve, mock, rounds, 0.0, list_every, n_tools, run.tally)  # warm-up
    one = one_in_flight(serve, mock, rounds, ONE_IN_FLIGHT_SHARE * run.seconds,
                        list_every, n_tools, run.tally, reference=reference,
                        between_rounds=setups.tick)
    two = two_in_flight(serve, mock, rounds, (1 - ONE_IN_FLIGHT_SHARE) * run.seconds,
                        run.tally, reference=reference, between_rounds=setups.tick)
    usage = _close_serve(run, serve)
    check_handler_errors(run, mock.take())
    (run.dir / "rounds.json").write_text(json.dumps({"one_in_flight": one.rounds,
                                                     "two_in_flight": two.rounds}))

    def scaled(values: list[float], refs: list[float]) -> list[float]:
        return [v * REF_RTT_NOMINAL_MS / ref for v, ref in zip(values, refs)]

    call_ms, list_ms = scaled(one.call_ms, one.call_ref), scaled(one.list_ms, one.list_ref)
    metrics = {
        "setup_s": scaled_setup(run, setups.finish(), "spawn `serve` -> initialize answered"),
        "main_ms_p50": median(call_ms),
        "side_ms_p50": median(list_ms),
        "main_per_s": median(n / seconds * ref / REF_RTT_NOMINAL_MS
                             for _, seconds, n, _, ref in two.rounds),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    tenth = max(1, len(call_ms) // 10)
    run.say("ref_rtt_ms", median(r[4] for r in one.rounds + two.rounds), "ms",
            f"fresh-connection GET to the mock after each round; serve timings below "
            f"are scaled to {REF_RTT_NOMINAL_MS} ms")
    run.say("call_ms_p50_raw", median(one.call_ms), "ms", "as measured, not scaled")
    run.say("list_ms_p50_raw", median(one.list_ms), "ms", "as measured, not scaled")
    run.say("calls_per_s_raw", median(n / seconds for _, seconds, n, _, _ in two.rounds),
            "1/s", "as measured, not scaled")
    run.say("call_ms_p50", metrics["main_ms_p50"], "ms", f"n={len(call_ms)}, 1 in flight")
    run.say("call_ms_p90", p90(call_ms), "ms", "diagnostic")
    run.say("call_ms_p50_first_tenth", median(call_ms[:tenth]), "ms")
    run.say("call_ms_p50_last_tenth", median(call_ms[-tenth:]), "ms")
    run.say("list_ms_p50", metrics["side_ms_p50"], "ms", f"n={len(list_ms)}, {n_tools} tools")
    run.say("list_ms_p90", p90(list_ms), "ms", "diagnostic")
    run.say("calls_per_s", metrics["main_per_s"], "1/s",
            f"median over {len(two.rounds)} rounds, n={two.calls}, 2 in flight")
    run.say("call_ms_p50_2_in_flight", median(scaled(two.call_ms, two.call_ref)), "ms")
    run.say("peak_rss_mb", metrics["peak_rss_mb"], "MB", "serve process")
    run.say("upstream_rtt_fresh_ms", median(fresh), "ms", "start-up self-check")
    run.say("upstream_rtt_keepalive_ms", median(keepalive), "ms", "start-up self-check")
    return metrics


def scaled_setup(run: Run, pairs: list[tuple[float, float]], what: str) -> float:
    """setup_s from (set-up s, reference start s) pairs: the median ratio
    times REF_SPAWN_NOMINAL_S (common.REF_SPAWN_CODE says why)."""
    value = median(raw / ref for raw, ref in pairs) * REF_SPAWN_NOMINAL_S
    run.say("setup_s_raw", median(raw for raw, _ in pairs), "s", "as measured, not scaled")
    run.say("ref_spawn_s", median(ref for _, ref in pairs), "s", "reference interpreter start")
    run.say("setup_s", value, "s", f"{what}; median of {len(pairs)} spread over the run, "
            f"scaled to a {REF_SPAWN_NOMINAL_S} s reference start")
    return value


def check_handler_errors(run: Run, taken: dict) -> None:
    """No request to the mock may make its handler raise: allauth.yaml has
    no 204 response, the one known trigger (see predictions.json)."""
    if taken["handler_errors"]:
        run.tally.fail(f"the mock's request handler raised {taken['handler_errors']} times; "
                       f"see {run.dir.name}/mock.stderr")


def _close_serve(run: Run, serve):
    usage = serve.close()
    if serve.child.proc.returncode != 0:
        run.tally.fail(f"serve exited with {serve.child.proc.returncode}")
    return usage


def serve_traced(run: Run, target: Target, tools: list, per_round: int, list_every: int,
                 compile_specs: list[Path], compile_reps: dict, manifests: dict) -> dict:
    """Per-layer probes in this process (fix=True always over the defect
    specs), then one untraced serve session whose client-side spans give
    the serve overhead and CPU shares. Fails if a traced site was never
    reached, so that no layer metric silently reads 0."""
    from automcp.doctor import load_vendor_rules
    from layers import Probes
    from serving import Serve, one_in_flight, plan_call, round_source, rtt_probe
    from tracing import Tracer

    served, compiled, mock, env = target.served, target.compiled, target.mock, target.env
    tracer = Tracer()
    probes = Probes(tracer, run.tally)
    rules = load_vendor_rules(FIXTURES / "vendor_rules.json")
    calls = [plan_call(t, run.rng) for t in tools]
    rounds = round_source(calls, per_round, run.rng)
    mock.take()

    counts = probes.compile(compile_specs, compile_reps)
    fixes = probes.fix(defect_specs()[0], 3, rules)
    list_ms, list_bytes = probes.list_payload(manifests, reps=10)
    lookup_us = probes.lookup(manifests, run.rng)
    fresh, keepalive = rtt_probe(mock, compiled.manifest, target.creds, 200, run.tally)

    # invoke_tool runs in this process between the session's rounds, so
    # that serve_overhead_ms compares calls made in the same minutes.
    session_rounds = itertools.count()

    def invoke_between_rounds(_elapsed: float) -> None:
        if next(session_rounds) % INVOKE_EVERY == 0:
            probes.invoke(compiled, rounds, rounds=1, env=target.env_creds, mock=mock)

    startup = run.own(Serve(served, env, run.dir, run.home))
    startup_cpu = cpu_seconds(_close_serve(run, startup))
    serve = run.own(Serve(served, env, run.dir, run.home))
    run.tally.attempted += 2
    before = mock.take()
    session = one_in_flight(
        serve, mock, rounds, 0.5 * run.seconds, list_every, len(compiled.manifest.tools),
        run.tally, on_request=lambda name, t0, t1: tracer.record(name, t0, t1),
        between_rounds=invoke_between_rounds,
    )
    after = mock.take()
    check_handler_errors(run, after)
    unreached = tracer.unreached_sites()
    if unreached:
        raise BenchFailure(f"traced sites no probe reached (update tracing.LAYER_CALLS): "
                           f"{unreached}")
    serve_cpu = cpu_seconds(_close_serve(run, serve)) - startup_cpu
    requests = session.calls + len(session.list_ms)
    upstream_calls = session.calls + probes.invoked
    invoke_ms = probes.per_request("runtime.invoke_tool", ("runtime.invoke_tool",))

    metrics = {
        "ingest.load_ms": probes.per_spec("compile", "ingest.load_document"),
        "ingest.normalize_ms": probes.per_spec("compile", "ingest.normalize"),
        "ingest.spec_bytes": counts["spec_bytes"],
        "refs.flatten_ms": probes.per_spec("compile", "refs.flatten"),
        "refs.validate_ms": probes.per_spec("compile", "refs.validate"),
        "refs.resolved": counts["resolved"],
        "refs.cycles": counts["cycles"],
        "refs.flat_bytes": counts["flat_bytes"],
        "security.extract_ms": probes.per_spec("compile", "security.extract_security"),
        "security.env_ms": probes.per_spec("compile", "security.build_env_map"),
        "compiler.compile_ms": probes.per_spec("compile", "compiler.compile_manifest"),
        "compiler.tools": counts["tools"],
        "compiler.list_payload_ms": list_ms,
        "compiler.list_bytes": list_bytes,
        "compiler.lookup_us": lookup_us,
        "doctor.fix_ms": probes.per_spec("fix", "doctor.fix_loop"),
        "doctor.lint_ms": probes.per_spec("fix", "doctor.lint"),
        "doctor.iterations": fixes["iterations"],
        "doctor.loc_changed": fixes["loc_changed"],
        "runtime.validate_us": 1000.0 * probes.per_request(
            "runtime.invoke_tool", ("runtime.validate_args",)),
        "runtime.auth_us": 1000.0 * probes.per_request(
            "runtime.invoke_tool", ("runtime.resolve_auth", "runtime.merge_extra_headers")),
        "runtime.http_ms": probes.per_request("runtime.invoke_tool", ("http.request",)),
        "runtime.invoke_ms": invoke_ms,
        "runtime.serve_overhead_ms": median(session.call_ms) - invoke_ms,
        "runtime.cpu_ms_per_call": 1000.0 * serve_cpu / requests,
        "upstream.rtt_fresh_ms": median(fresh),
        "upstream.rtt_keepalive_ms": median(keepalive),
        "upstream.connections_per_call":
            (after["connections"] - before["connections"]) / upstream_calls,
        "upstream.cpu_ms_per_call":
            1000.0 * (after["cpu_s"] - before["cpu_s"]) / upstream_calls,
        "client.cpu_ms_per_call": 1000.0 * session.client_cpu_s / requests,
        "trace.overhead_pct": probes.overhead_pct(),
    }
    for name, row in sorted(tracer.self_times().items()):
        run.lines.append(f"span {run.workload} {name} count={row['count']} "
                         f"total_ms={row['total_ms']:.3f} self_ms={row['self_ms']:.3f}")
    tracer.write(run.dir / "spans.json")
    return metrics


def call_small(run: Run) -> dict:
    target = prepare_fixture(run, FIXTURES / "allauth.yaml")
    tools = target.compiled.manifest.tools
    if not run.trace:
        return serve_untraced(run, target, tools, per_round=len(tools), list_every=5)
    # allauth.yaml has no recursive schema; the small cyclic spec gives the
    # refs layer's cycle breaking something to do on this workload too.
    cyclic = write_generated(run, "cyclic.yaml", cyclic_spec(run.seed))
    name = target.served.name
    return serve_traced(run, target, tools, per_round=len(tools), list_every=5,
                        compile_specs=[target.served, cyclic],
                        compile_reps={name: 10, cyclic.name: 10},
                        manifests={name: target.compiled.manifest})


def write_generated(run: Run, name: str, tree: dict) -> Path:
    path = run.dir / name
    path.write_text(to_yaml(tree), encoding="utf-8")
    return path


def defect_specs() -> tuple[list[Path], dict]:
    """The defect fixtures and their changed-line bounds (read-only)."""
    reference = json.loads((DEFECTS / "reference_counts.json").read_text(encoding="utf-8"))
    return [DEFECTS / n for n in sorted(reference) if not n.startswith("_")], reference


# -- compile-corpus ----------------------------------------------------------------


def build_corpus(run: Run) -> tuple[list[dict], list[dict]]:
    """Plain-compile and fix jobs with their expected results; the digest
    each must reproduce comes from a compile in this process."""
    import yaml
    from automcp.doctor import load_vendor_rules
    from automcp.pipeline import compile_file

    def ops(path: Path) -> int:
        text = path.read_text(encoding="utf-8")
        return count_operations(json.loads(text) if path.suffix == ".json"
                                else yaml.safe_load(text))

    # Repetitions per round give the small specs more samples for their
    # percentiles; every spec still weighs the same in the geomeans.
    plain = [
        (FIXTURES / "petstore.json", 6), (FIXTURES / "legacy20.json", 6),
        (FIXTURES / "allauth.yaml", 3),
        (write_generated(run, "generated500.yaml", crud_spec(run.seed, 500)), 1),
        (write_generated(run, "diamond.yaml", diamond_spec(run.seed)), 2),
        (write_generated(run, "cyclic.yaml", cyclic_spec(run.seed)), 6),
    ]
    rules = load_vendor_rules(FIXTURES / "vendor_rules.json")
    fix_paths, reference = defect_specs()

    jobs_plain, jobs_fix = [], []
    for path, reps in plain:
        run.record_input(path)
        jobs_plain.append({"name": path.name, "path": str(path), "reps": reps,
                           "fix": False, "tools": ops(path),
                           "digest": manifest_digest(compile_file(path))})
    for path in fix_paths:
        run.record_input(path)
        jobs_fix.append({"name": path.name, "path": str(path), "reps": 2, "fix": True,
                         "tools": ops(path), "loc_max": reference[path.name],
                         "digest": manifest_digest(compile_file(path, fix=True, rules=rules))})
    return jobs_plain, jobs_fix


def generate_once(run: Run, env: dict) -> tuple[float, float]:
    """(wall s of `python -m automcp generate` on the smallest spec, wall s
    of the reference start timed just before it)."""
    smallest = FIXTURES / "legacy20.json"
    out = run.dir / "generated"
    shutil.rmtree(out, ignore_errors=True)
    ref = ref_spawn_s(env, run.home)
    run.tally.attempted += 1
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "automcp", "generate", str(smallest), "--out", str(out)],
        env=env, cwd=run.home, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    wall = time.perf_counter() - t0
    manifest = out / "manifest.json"
    if proc.returncode != 0 or not manifest.is_file():
        run.tally.fail(f"generate exited {proc.returncode}: {proc.stderr[-300:]!r}")
    elif len(json.loads(manifest.read_text())["tools"]) != 3:
        run.tally.fail("generate on legacy20.json did not write 3 tools")
    return wall, ref


def compile_corpus(run: Run) -> dict:
    jobs_plain, jobs_fix = build_corpus(run)
    if run.trace:
        return corpus_traced(run, jobs_plain)

    env = child_env(run.home)
    config = run.dir / "worker.json"
    config.write_text(json.dumps({
        "seed": run.seed, "rules": str(FIXTURES / "vendor_rules.json"),
        "jobs": jobs_plain + jobs_fix,
    }), encoding="utf-8")
    worker = run.own(Child([sys.executable, str(Path(__file__).parent / "compileworker.py"),
                            str(config)], env, run.home, run.dir / "worker.stderr"))

    def worker_round() -> dict:
        worker.send(b"round")
        result = json.loads(worker.readline(timeout=120))
        run.tally.attempted += result["attempted"]
        run.tally.failed += result["failed"]
        run.tally.notes.extend(result["notes"])
        return result

    setups = SpreadSampler(lambda: generate_once(run, env), SETUP_SPAWNS, run.seconds)
    worker_round()  # warm-up: its times are dropped
    times: dict[str, list[float]] = {}
    refs: dict[str, list[float]] = {}
    timed_s = 0.0
    while timed_s < run.seconds:
        result = worker_round()
        for name, values in result["times_ms"].items():
            times.setdefault(name, []).extend(values)
            refs.setdefault(name, []).extend(result["ref_ms"][name])
        timed_s += result["seconds"]
        setups.tick(result["seconds"])
    usage = worker.close()
    if worker.proc.returncode != 0:
        run.tally.fail(f"compile worker exited with {worker.proc.returncode}")

    (run.dir / "times.json").write_text(json.dumps({"times_ms": times, "ref_ms": refs}))
    if any(not times.get(job["name"]) for job in jobs_plain + jobs_fix):
        raise BenchFailure("a corpus spec has no successful timed compile")
    scaled = {
        name: [t * REF_NOMINAL_MS / ref for t, ref in zip(values, refs[name])]
        for name, values in times.items()
    }
    plain_p50 = [median(scaled[j["name"]]) for j in jobs_plain]
    metrics = {
        "setup_s": scaled_setup(run, setups.finish(), "one `generate legacy20.json`"),
        "main_ms_p50": geomean(plain_p50),
        "side_ms_p50": geomean(median(scaled[j["name"]]) for j in jobs_fix),
        "main_per_s": len(jobs_plain) / (sum(plain_p50) / 1000.0),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    all_refs = [r for name in refs for r in refs[name]]
    run.say("host_ref_ms", median(all_refs), "ms",
            f"reference loop; timings below are scaled to {REF_NOMINAL_MS} ms")
    run.say("compile_ms_geomean_raw", geomean(median(times[j["name"]]) for j in jobs_plain),
            "ms", "as measured, not scaled")
    run.say("fix_ms_geomean_raw", geomean(median(times[j["name"]]) for j in jobs_fix),
            "ms", "as measured, not scaled")
    run.say("compile_ms_geomean", metrics["main_ms_p50"], "ms")
    run.say("compile_ms_p90_geomean", geomean(p90(scaled[j["name"]]) for j in jobs_plain),
            "ms", "diagnostic")
    run.say("fix_ms_geomean", metrics["side_ms_p50"], "ms")
    run.say("fix_ms_p90_geomean", geomean(p90(scaled[j["name"]]) for j in jobs_fix),
            "ms", "diagnostic")
    run.say("specs_per_s", metrics["main_per_s"], "1/s")
    run.say("peak_rss_mb", metrics["peak_rss_mb"], "MB", "compile worker process")
    for job in jobs_plain + jobs_fix:
        values = scaled[job["name"]]
        kind = "fix" if job["fix"] else "compile"
        run.say(f"{kind}_ms_p50[{job['name']}]", median(values), "ms",
                f"n={len(values)}, p90={p90(values):.3f}, tools={job['tools']}")
    return metrics


def corpus_traced(run: Run, jobs_plain: list[dict]) -> dict:
    """Layer probes over the corpus; the call-path layers, which this
    workload does not exercise end to end, are probed on allauth.yaml."""
    from automcp.pipeline import compile_file

    target = prepare_fixture(run, FIXTURES / "allauth.yaml")
    tools = target.compiled.manifest.tools
    specs = [Path(j["path"]) for j in jobs_plain]
    reps = {spec.name: (2 if spec.name == "generated500.yaml" else 5) for spec in specs}
    manifests = {spec.name: compile_file(spec).manifest for spec in specs}
    return serve_traced(run, target, tools, per_round=len(tools), list_every=5,
                        compile_specs=specs, compile_reps=reps, manifests=manifests)


WORKLOADS = {
    "call-small": call_small,
    "compile-corpus": compile_corpus,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    check_layout()
    # automcp (and the modules here that import it) load only after this.
    sys.path.insert(0, str(SRC))

    def watchdog(signum, frame):
        raise BenchFailure(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, watchdog)
    signal.alarm(WATCHDOG_S)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = WORKLOADS[args.workload](run)
    except BenchFailure as exc:
        for note in run.tally.notes[:20]:
            log(f"perfbench: failed: {note}")
        log(f"perfbench: {exc}")
        return 1
    finally:
        signal.alarm(0)
        run.close()
        (run.dir / "generated500.yaml").unlink(missing_ok=True)
    (run.dir / "inputs.json").write_text(json.dumps(run.inputs, indent=2), encoding="utf-8")

    units = PER_LAYER if run.trace else END_TO_END
    correct = run.tally.failed == 0
    for note in run.tally.notes[:20]:
        log(f"perfbench: failed: {note}")
    print(f"inputs {json.dumps(run.inputs, sort_keys=True)}")
    for line in run.lines:
        print(line)
    run.say("fail_ratio", run.tally.failed / max(run.tally.attempted, 1), "ratio",
            f"{run.tally.failed} of {run.tally.attempted} operations")
    print(run.lines[-1])
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.tally.attempted, 1),
        "failed": run.tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
