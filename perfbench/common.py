"""Paths, statistics and child-process plumbing shared by the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
DEFECTS = FIXTURES / "defects"
OUT = ROOT / "perfbench" / "out"


class BenchFailure(Exception):
    """The run cannot produce a trustworthy result."""


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# On a shared 2-vCPU VM the host's speed switched between states about
# 1.6x apart that lasted tens of seconds. There, in-process compile times
# tracked a reference loop timed next to them (r = 0.9 over runs), so
# compile timings are reported scaled to a host where the loop takes
# REF_NOMINAL_MS. Timings that span several processes (the serve path)
# did not track it (r = 0.3) and are reported as measured.
REF_NOMINAL_MS = 1.0
REF_LOOPS = 20000

# Set-up times (a process start to its first answer) are scaled the same
# way, by the wall time of a reference interpreter start that imports a
# fixed set of stdlib modules, timed just before each spawn. On that VM,
# 30-second medians of `serve` start-up moved by up to 10% over five
# minutes while their ratio to this reference moved by under 1% (the two
# share the interpreter start, imports and file-system work).
REF_SPAWN_CODE = "import json, decimal, email.parser, http.client, xml.dom.minidom"
REF_SPAWN_NOMINAL_S = 0.1

# Serve timings (tools/call, tools/list, calls per second) are scaled by
# the median of REF_GETS raw GETs to the mock, each on a fresh
# connection, timed after every round. This reference runs no automcp
# code on the client side; it shares the host's process, socket and
# scheduling costs with a call through serve. On that VM, 20-round
# (about 6 s) medians of call latency tracked it with r = 0.92, and their
# ratio spread (IQR/median) 0.058 against 0.10 unscaled.
REF_GETS = 5
REF_RTT_NOMINAL_MS = 1.0


def host_ref_ms() -> float:
    """Time of a fixed pure-Python loop: a speed index of the host at this
    moment, sampled between measured operations."""
    t0 = time.perf_counter()
    total = 0
    for k in range(REF_LOOPS):
        total += k
    return (time.perf_counter() - t0) * 1000.0


class SpreadSampler:
    """`count` calls of `sample` spread evenly over a run's timed work.

    The host's speed drifts over tens of seconds, so set-up samples taken
    back to back would all see one speed state. `tick(timed_s)` is called
    between timed rounds; a sample is taken whenever the timed seconds so
    far pass the next 1/count share of `budget_s`. `finish` takes any
    samples still due and returns them all.
    """

    def __init__(self, sample, count: int, budget_s: float) -> None:
        self.sample, self.count, self.budget_s = sample, count, budget_s
        self.timed_s = 0.0
        self.values: list[float] = []

    def tick(self, timed_s: float) -> None:
        self.timed_s += timed_s
        due = self.timed_s >= len(self.values) * self.budget_s / self.count
        if due and len(self.values) < self.count:
            self.values.append(self.sample())

    def finish(self) -> list[float]:
        while len(self.values) < self.count:
            self.values.append(self.sample())
        return self.values


def ref_spawn_s(env: dict, cwd: Path) -> float:
    """Wall time of one reference interpreter start (REF_SPAWN_CODE)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_SPAWN_CODE], env=env, cwd=cwd,
                   check=True, timeout=60)
    return time.perf_counter() - t0


# -- inputs -------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_digest(compiled) -> str:
    """Digest of everything a compile hands to its users: the manifest
    with endpoint bindings, plus the .env template."""
    from automcp.compiler import manifest_to_dict

    doc = manifest_to_dict(compiled.manifest, include_bindings=True)
    blob = json.dumps(doc, sort_keys=True) + "\n" + compiled.env_template
    return hashlib.sha256(blob.encode()).hexdigest()


def credentials(compiled, tag: str) -> tuple[dict, dict]:
    """Matching (env vars for serve, credential config for the mock)."""
    env: dict[str, str] = {}
    creds: dict[str, object] = {}
    for scheme in compiled.manifest.schemes:
        bindings = [b for b in compiled.bindings if b.scheme_id == scheme.id]
        if scheme.kind == "http_basic":
            user = next(b for b in bindings if b.role == "USERNAME")
            password = next(b for b in bindings if b.role == "PASSWORD")
            env[user.env_var] = f"{tag}-user"
            env[password.env_var] = f"{tag}-pass-{scheme.id}"
            creds[scheme.id] = [f"{tag}-user", f"{tag}-pass-{scheme.id}"]
        else:
            env[bindings[0].env_var] = f"{tag}-{scheme.id}-secret"
            creds[scheme.id] = env[bindings[0].env_var]
    return env, creds


def child_env(home: Path, extra: dict[str, str] | None = None) -> dict[str, str]:
    """The whole environment of every child: no proxy variables, and a
    private HOME so that no ~/.netrc can rewrite Authorization."""
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "HOME": str(home),
    }
    env.update(extra or {})
    return env


# -- child processes ------------------------------------------------------------


class LineReader:
    """Newline-framed reads from a pipe with a deadline."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buf = bytearray()
        self.scanned = 0

    def readline(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        while True:
            i = self.buf.find(b"\n", self.scanned)
            if i >= 0:
                line = bytes(self.buf[:i])
                del self.buf[: i + 1]
                self.scanned = 0
                return line
            self.scanned = len(self.buf)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchFailure("timed out waiting for a child's reply")
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if ready:
                chunk = os.read(self.fd, 1 << 20)
                if not chunk:
                    raise BenchFailure("child closed its output")
                self.buf += chunk


class Child:
    """A child process spoken to in lines over its stdin/stdout."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, stderr_path: Path) -> None:
        with open(stderr_path, "ab") as err:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=env, cwd=cwd, bufsize=0,
            )
        self.reader = LineReader(self.proc.stdout.fileno())
        self.usage = None

    def send(self, line: bytes) -> None:
        view = memoryview(line + b"\n")
        while view:
            view = view[os.write(self.proc.stdin.fileno(), view):]

    def readline(self, timeout: float = 60.0) -> bytes:
        return self.reader.readline(timeout)

    def close(self, timeout: float = 20.0):
        """Close stdin, reap the process and return its resource usage
        (CPU time and peak RSS of this child alone)."""
        if self.usage is not None:
            return self.usage
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.usage = usage
        return usage


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
