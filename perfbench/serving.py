"""The out-of-process mock upstream, `automcp serve` sessions and the
closed-loop call phases that drive them.

Load is closed-loop from this single-threaded client: each phase keeps 1
or 2 requests in flight and sends the next only when a reply arrives.
Every reply is checked; after each round the mock's records are checked
against the calls sent and the mock's state is cleared, outside the
timed window, so that list GETs do not grow over a run.
"""

from __future__ import annotations

import http.client
import json
import random
import string
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

from automcp.evaluator import synth_args

from common import BenchFailure, Child, median

HERE = Path(__file__).resolve().parent
KEEPALIVE_STALL_MS = 20.0
_TOKEN = string.ascii_lowercase + string.digits


@dataclass
class Call:
    name: str
    args: dict
    method: str
    path: str
    status: int


def plan_call(tool, rng: random.Random) -> Call:
    """Schema-valid arguments: synth_args with the seed choosing the
    parameter values, plus the request the mock should then record."""
    args = synth_args(tool)
    properties = tool.input_schema.get("properties", {})
    for param in tool.endpoint.parameters:
        name = param.sanitized_name
        if param.is_credential or name not in args or "enum" in properties[name]:
            continue
        kind = properties[name].get("type")
        if kind == "integer":
            args[name] = rng.randint(1, 99999)
        elif kind in (None, "string"):
            args[name] = "".join(rng.choice(_TOKEN) for _ in range(8))
    path = tool.endpoint.path_template
    for param in tool.endpoint.parameters:
        if param.location == "path":
            value = quote(str(args[param.sanitized_name]), safe="")
            path = path.replace("{%s}" % param.name, value)
    return Call(tool.tool_name, args, tool.endpoint.method, path,
                tool.endpoint.success_status)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


class Mock:
    """perfbench/mockproc.py in its own process, stderr to a file."""

    def __init__(self, spec: Path, creds: dict, run_dir: Path, env: dict) -> None:
        creds_path = run_dir / "mock_credentials.json"
        creds_path.write_text(json.dumps(creds), encoding="utf-8")
        self.child = Child(
            [sys.executable, str(HERE / "mockproc.py"), str(spec), str(creds_path)],
            env, run_dir, run_dir / "mock.stderr",
        )
        line = self.child.readline(120)
        if not line.startswith(b"ready "):
            raise BenchFailure(f"mock did not start: {line[:200]!r}")
        self.port = int(line.split()[1])
        self.base_url = f"http://127.0.0.1:{self.port}"

    def take(self) -> dict:
        self.child.send(b"take")
        return json.loads(self.child.readline(60))

    def close(self) -> None:
        try:
            self.child.send(b"quit")
        except OSError:
            pass
        self.child.close()


class Serve:
    """One `python -m automcp serve` process; construction returns once
    `initialize` is answered, and `setup_s` is spawn to that answer."""

    def __init__(self, spec: Path, env: dict, run_dir: Path, home: Path) -> None:
        env_file = run_dir / "serve.env"
        if not env_file.exists():
            env_file.write_text("# credentials come from the environment\n")
        start = time.perf_counter()
        self.child = Child(
            [sys.executable, "-m", "automcp", "serve", str(spec), "--env", str(env_file)],
            env, home, run_dir / "serve.stderr",
        )
        self.next_id = 0
        init_id = self.send("initialize", {
            "protocolVersion": "2025-06-18", "capabilities": {},
            "clientInfo": {"name": "perfbench", "version": "1"},
        })
        reply = self.recv(timeout=150)
        self.setup_s = time.perf_counter() - start
        if reply.get("id") != init_id or "result" not in reply:
            raise BenchFailure(f"initialize failed: {str(reply)[:200]}")
        self.child.send(b'{"jsonrpc": "2.0", "method": "notifications/initialized"}')

    def send(self, method: str, params: dict) -> int:
        msg_id = self.next_id
        self.next_id += 1
        self.child.send(json.dumps(
            {"jsonrpc": "2.0", "id": msg_id, "method": method, "params": params}
        ).encode())
        return msg_id

    def recv(self, timeout: float = 60) -> dict:
        return json.loads(self.child.readline(timeout))

    def close(self):
        return self.child.close()


def reply_problem(reply: dict, msg_id: int, call: Call) -> str | None:
    result = reply.get("result")
    if reply.get("id") != msg_id or not isinstance(result, dict):
        return f"{call.name}: bad reply {str(reply)[:200]}"
    if result.get("isError") is not False:
        return f"{call.name}: isError {str(result)[:200]}"
    return None


def check_records(mock: Mock, calls: list[Call], tally: Tally, bad_replies: int = 0) -> dict:
    """Take the mock's records for one round: each call must show up once
    with its method, path and success status (so no 401). A call that
    failed both ways counts once, so failed never exceeds attempted."""
    taken = mock.take()
    got = Counter(tuple(r) for r in taken["records"])
    expected = Counter((c.method, c.path, c.status) for c in calls)
    missing, extra = expected - got, got - expected
    failed = max(bad_replies, sum(missing.values()), 1 if extra else 0)
    if failed:
        tally.failed += min(failed, len(calls))
        if missing or extra:
            tally.notes.append(f"mock records differ: missing {list(missing)[:3]} "
                               f"extra {list(extra)[:3]}")
    return taken


@dataclass
class PhaseResult:
    call_ms: list[float] = field(default_factory=list)
    list_ms: list[float] = field(default_factory=list)
    calls: int = 0
    active_s: float = 0.0
    client_cpu_s: float = 0.0
    # reference ms (see `end_round`) of the round each call and list was in
    call_ref: list[float] = field(default_factory=list)
    list_ref: list[float] = field(default_factory=list)
    # per round: (seconds since the phase began, seconds, calls, median
    # call ms, reference ms or None)
    rounds: list[tuple] = field(default_factory=list)

    def end_round(self, calls: list[Call], t_phase: float, t_round: float, mock: Mock,
                  tally: Tally, problems: list[str], reference, between_rounds) -> None:
        """Book one round, then, outside the timed window, check and
        clear the mock, time `reference` (if any; a host speed index in
        ms booked against the round's requests) and run `between_rounds`
        (if any) with the round's timed seconds. Client CPU counts only
        the timed part."""
        elapsed = time.perf_counter() - t_round
        self.client_cpu_s += time.process_time()
        self.active_s += elapsed
        self.calls += len(calls)
        tally.notes.extend(problems)
        check_records(mock, calls, tally, bad_replies=len(problems))
        ref = reference() if reference else None
        if ref is not None:
            self.call_ref.extend([ref] * (len(self.call_ms) - len(self.call_ref)))
            self.list_ref.extend([ref] * (len(self.list_ms) - len(self.list_ref)))
        self.rounds.append((t_round - t_phase, elapsed, len(calls),
                            median(self.call_ms[-len(calls):]), ref))
        if between_rounds:
            between_rounds(elapsed)


def one_in_flight(serve: Serve, mock: Mock, rounds, budget_s: float,
                  list_every: int, n_tools: int, tally: Tally,
                  on_request=None, reference=None, between_rounds=None) -> PhaseResult:
    """Rounds of tools/call with a tools/list after every `list_every`
    calls, one request in flight; runs whole rounds, at least one, until
    `budget_s` of timed work is done."""
    out = PhaseResult()
    t_phase = time.perf_counter()
    while True:
        calls = next(rounds)
        problems: list[str] = []
        out.client_cpu_s -= time.process_time()
        t_round = time.perf_counter()
        for i, call in enumerate(calls):
            if list_every and i % list_every == list_every - 1:
                tally.attempted += 1
                t0 = time.perf_counter()
                msg_id = serve.send("tools/list", {})
                reply = serve.recv()
                out.list_ms.append((time.perf_counter() - t0) * 1000.0)
                tools = (reply.get("result") or {}).get("tools")
                if reply.get("id") != msg_id or not isinstance(tools, list) \
                        or len(tools) != n_tools:
                    tally.fail(f"tools/list: bad reply {str(reply)[:200]}")
                if on_request:
                    on_request("client.tools_list", t0, time.perf_counter())
            tally.attempted += 1
            t0 = time.perf_counter()
            msg_id = serve.send("tools/call", {"name": call.name, "arguments": call.args})
            reply = serve.recv()
            out.call_ms.append((time.perf_counter() - t0) * 1000.0)
            problem = reply_problem(reply, msg_id, call)
            if problem:
                problems.append(problem)
            if on_request:
                on_request("client.tools_call", t0, time.perf_counter())
        out.end_round(calls, t_phase, t_round, mock, tally, problems, reference,
                      between_rounds)
        if out.active_s >= budget_s:
            break
    return out


def two_in_flight(serve: Serve, mock: Mock, rounds, budget_s: float,
                  tally: Tally, reference=None, between_rounds=None) -> PhaseResult:
    """Rounds of tools/call with two requests outstanding at all times."""
    out = PhaseResult()
    t_phase = time.perf_counter()
    while True:
        calls = next(rounds)
        queue = list(reversed(calls))
        pending: dict[int, tuple[Call, float]] = {}
        problems: list[str] = []
        out.client_cpu_s -= time.process_time()
        t_round = time.perf_counter()

        def send_next() -> None:
            call = queue.pop()
            tally.attempted += 1
            msg_id = serve.send("tools/call", {"name": call.name, "arguments": call.args})
            pending[msg_id] = (call, time.perf_counter())

        while queue and len(pending) < 2:
            send_next()
        while pending:
            reply = serve.recv()
            entry = pending.pop(reply.get("id"), None)
            if entry is None:
                raise BenchFailure(f"reply to an unknown id: {str(reply)[:200]}")
            call, t0 = entry
            out.call_ms.append((time.perf_counter() - t0) * 1000.0)
            problem = reply_problem(reply, reply["id"], call)
            if problem:
                problems.append(problem)
            if queue:
                send_next()
        out.end_round(calls, t_phase, t_round, mock, tally, problems, reference,
                      between_rounds)
        if out.active_s >= budget_s:
            break
    return out


def round_source(calls: list[Call], per_round: int, rng: random.Random):
    """Endless rounds: a seeded shuffle of all calls, cut into rounds."""
    while True:
        order = list(calls)
        rng.shuffle(order)
        for i in range(0, len(order), per_round):
            yield order[i:i + per_round]


# -- raw HTTP against the mock ---------------------------------------------------


def probe_request(manifest, creds: dict) -> tuple[str, dict, int]:
    """A GET without path parameters whose credential travels in one
    header, with that header built here rather than by automcp."""
    schemes = {s.id: s for s in manifest.schemes}
    for tool in manifest.tools:
        ep = tool.endpoint
        if ep.method != "GET" or "{" in ep.path_template or len(ep.security) != 1 \
                or len(ep.security[0]) != 1:
            continue
        (scheme_id,) = ep.security[0]
        scheme = schemes.get(scheme_id)
        if scheme is None:
            continue
        if scheme.kind == "api_key" and scheme.location == "header":
            return ep.path_template, {scheme.parameter_name: creds[scheme_id]}, ep.success_status
        if scheme.kind in ("http_bearer", "oauth2"):
            headers = {"Authorization": f"Bearer {creds[scheme_id]}"}
            return ep.path_template, headers, ep.success_status
    raise BenchFailure("no GET with a single header credential to probe the mock")


def rtt_probe(mock: Mock, manifest, creds: dict, n: int, tally: Tally) -> tuple[list, list]:
    """Round trips of raw GETs: on a fresh connection each, and over one
    keep-alive connection. Returns (fresh_ms, keepalive_ms)."""
    path, headers, status = probe_request(manifest, creds)

    def get(conn) -> float:
        tally.attempted += 1
        t0 = time.perf_counter()
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        response.read()
        elapsed = (time.perf_counter() - t0) * 1000.0
        if response.status != status:
            tally.fail(f"probe GET {path}: HTTP {response.status}")
        return elapsed

    fresh = []
    for _ in range(n):
        conn = http.client.HTTPConnection("127.0.0.1", mock.port, timeout=30)
        try:
            fresh.append(get(conn))
        finally:
            conn.close()
    conn = http.client.HTTPConnection("127.0.0.1", mock.port, timeout=30)
    try:
        keepalive = [get(conn) for _ in range(n)]
    finally:
        conn.close()
    mock.take()
    return fresh, keepalive


def instrument_check(mock: Mock, manifest, creds: dict, tally: Tally) -> tuple[list, list]:
    """Fail the run if keep-alive round trips show the delayed-ACK stall."""
    fresh, keepalive = rtt_probe(mock, manifest, creds, 20, tally)
    if median(keepalive) > KEEPALIVE_STALL_MS:
        raise BenchFailure(
            f"mock keep-alive round trip {median(keepalive):.1f} ms > "
            f"{KEEPALIVE_STALL_MS} ms: the instrument stalls (Nagle/delayed ACK)"
        )
    return fresh, keepalive
