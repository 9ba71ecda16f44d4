"""OAuth2 token acquisition with a local callback listener.

Runs the authorization-code dance: start a throwaway HTTP listener,
send the user's browser to the authorization URL, trade the returned
code for tokens, and persist them into the `.env` store. Exactly one
acquisition may run per process (the listener owns its port).

The exchange goes through `urllib.request`, which never reads
`~/.netrc`, so no stored login for the token host rides along with the
client credentials.
"""

from __future__ import annotations

import json
import os
import secrets
import ssl
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs, urlencode, urlparse

from .envfile import update_env_file
from .errors import CallbackTimeoutError, ExchangeError, FlowUnusableError
from .security import OAuth2Flows, refresh_var_for

CALLBACK_PATH = "/callback"
DEFAULT_CALLBACK_TIMEOUT = 300.0

_CALLBACK_PAGE = (
    b"<html><body><p>Authorization received. You can close this window.</p>"
    b"</body></html>"
)


class _CallbackServer(HTTPServer):
    """Captures one `code` (or provider error) delivered to /callback."""

    def __init__(self, port: int, expected_state: str) -> None:
        super().__init__(("127.0.0.1", port), _CallbackHandler)
        self.expected_state = expected_state
        self.code: str | None = None
        self.error: str | None = None
        self.received = threading.Event()


class _CallbackHandler(BaseHTTPRequestHandler):
    server: _CallbackServer

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        if parsed.path != CALLBACK_PATH:
            self.send_error(404)
            return
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        if params.get("state") != self.server.expected_state:
            self.send_error(400, "state mismatch")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.end_headers()
        self.wfile.write(_CALLBACK_PAGE)
        if "error" in params:
            self.server.error = params["error"]
        else:
            self.server.code = params.get("code")
        self.server.received.set()

    def log_message(self, *args) -> None:
        pass


def acquire_oauth_token(
    flows: OAuth2Flows,
    client_id: str,
    client_secret: str,
    redirect_port: int,
    env_path: str | Path,
    env_var: str,
    scopes: list[str] | None = None,
    timeout: float = DEFAULT_CALLBACK_TIMEOUT,
    open_browser: Callable[[str], object] | None = None,
) -> str:
    """Run the authorization-code flow and write the token to `env_path`.

    `scopes` defaults to every scope the contract declares. `open_browser`
    receives the authorization URL (default: the system browser); tests
    substitute a callable that performs the redirect themselves.
    """
    if not flows.authorization_code_usable:
        raise FlowUnusableError(
            "authorizationCode flow unusable: both authorizationUrl and "
            "tokenUrl are required"
        )
    if open_browser is None:
        import webbrowser

        open_browser = webbrowser.open

    state = secrets.token_urlsafe(16)
    redirect_uri = f"http://localhost:{redirect_port}{CALLBACK_PATH}"
    requested_scopes = list(flows.scopes) if scopes is None else scopes
    auth_query = {
        "response_type": "code",
        "client_id": client_id,
        "redirect_uri": redirect_uri,
        "state": state,
    }
    if requested_scopes:
        auth_query["scope"] = " ".join(requested_scopes)
    auth_url = f"{flows.authorization_url}?{urlencode(auth_query)}"

    server = _CallbackServer(redirect_port, state)
    runner = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
    )
    runner.start()
    try:
        open_browser(auth_url)
        if not server.received.wait(timeout):
            raise CallbackTimeoutError(
                f"no OAuth callback within {timeout:.0f}s on port {redirect_port}"
            )
    finally:
        server.shutdown()
        server.server_close()
        runner.join()

    if server.error:
        raise ExchangeError(0, f"authorization denied: {server.error}")
    tokens = _exchange(
        flows.token_url,
        {
            "grant_type": "authorization_code",
            "code": server.code or "",
            "redirect_uri": redirect_uri,
            "client_id": client_id,
            "client_secret": client_secret,
        },
    )
    return _store_tokens(env_path, env_var, tokens)


def _exchange(token_url: str, payload: dict) -> dict:
    """POST `payload` as a form to the token endpoint; its JSON reply,
    which must carry an `access_token`. HTTPS trusts the bundle named by
    SSL_CERT_FILE or REQUESTS_CA_BUNDLE, else the system's CAs."""
    request = urllib.request.Request(
        token_url, data=urlencode(payload).encode(), method="POST",
        headers={"Content-Type": "application/x-www-form-urlencoded"},
    )
    context = None
    if request.type == "https":
        context = ssl.create_default_context(
            cafile=os.environ.get("SSL_CERT_FILE") or os.environ.get("REQUESTS_CA_BUNDLE")
        )
    try:
        with urllib.request.urlopen(request, timeout=30, context=context) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:  # a non-2xx reply
        status, raw = exc.code, exc.read()
    body = raw.decode("utf-8", "replace")
    if not (200 <= status <= 299):
        raise ExchangeError(status, body)
    try:
        tokens = json.loads(body)
    except ValueError as exc:
        raise ExchangeError(status, body) from exc
    if not isinstance(tokens, dict) or "access_token" not in tokens:
        raise ExchangeError(status, body)
    return tokens


def _store_tokens(env_path: str | Path, env_var: str, tokens: dict) -> str:
    updates = {env_var: tokens["access_token"]}
    if tokens.get("refresh_token"):
        updates[refresh_var_for(env_var)] = tokens["refresh_token"]
    update_env_file(env_path, updates)
    return tokens["access_token"]
