"""Run the library's MockUpstream in its own process as a neutral instrument.

    python perfbench/mockproc.py SPEC CREDENTIALS_JSON

Accepted sockets get TCP_NODELAY: the mock writes headers and body in
two sends, and with Nagle on a keep-alive client waits for a delayed ACK
(~40 ms) before the body arrives. Fresh connections do not see that
stall, so without this a pooled client would look ten times slower.

Prints ``ready <port>`` once listening, then answers one JSON line per
command read on stdin:

  take   records since the last take, then clears records and the store
         (keeps list GETs from growing over a run), plus counters
  quit   stop (end of input does the same)
"""

from __future__ import annotations

import json
import resource
import sys
import threading

from automcp.mock_upstream import MockConfig, MockUpstream
from automcp.pipeline import compile_file


class NeutralMock(MockUpstream):
    """MockUpstream with TCP_NODELAY, a connection count and a count of
    requests whose handler raised (still logged to stderr)."""

    def __init__(self, manifest, config) -> None:
        self.connections = 0
        self.handler_errors = 0
        self._counter_lock = threading.Lock()
        super().__init__(manifest, config=config)
        log_error = self._server.handle_error

        def handle_error(request, client_address) -> None:
            with self._counter_lock:
                self.handler_errors += 1
            log_error(request, client_address)

        self._server.handle_error = handle_error

    def _handler_class(self):
        mock = self
        base = super()._handler_class()

        class Handler(base):
            disable_nagle_algorithm = True

            def setup(self) -> None:
                with mock._counter_lock:
                    mock.connections += 1
                super().setup()

        return Handler

    def take(self) -> dict:
        with self._lock:
            records = [[r.method, r.path, r.status] for r in self.records]
        self.reset()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with self._counter_lock:
            return {
                "records": records,
                "connections": self.connections,
                "handler_errors": self.handler_errors,
                "cpu_s": usage.ru_utime + usage.ru_stime,
            }


def main(argv: list[str]) -> int:
    spec, creds_path = argv
    with open(creds_path, encoding="utf-8") as fh:
        creds = json.load(fh)
    manifest = compile_file(spec).manifest
    mock = NeutralMock(manifest, MockConfig(credentials=creds)).start()
    print(f"ready {mock.port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "take":
                print(json.dumps(mock.take()), flush=True)
            elif command == "quit":
                break
    finally:
        mock.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
