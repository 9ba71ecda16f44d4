"""OAuth2 token acquisition against an in-process mock provider."""

from __future__ import annotations

import json
import shutil
import ssl
import subprocess
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import pytest
import requests

from automcp.envfile import read_env_file
from automcp.errors import CallbackTimeoutError, ExchangeError, FlowUnusableError
from automcp.oauth import acquire_oauth_token
from automcp.security import OAuth2Flows


def auth_query(url: str) -> dict:
    """The authorization URL's query, one value per name."""
    return {k: v[0] for k, v in parse_qs(urlparse(url).query).items()}


class MockAuthProvider:
    """Token endpoint plus a scripted 'user' that follows the redirect."""

    def __init__(self, code="abc", token="tok-1", refresh=None, token_status=200,
                 token_payload=None, tls=None):
        self.code = code
        self.token = token
        self.refresh = refresh
        self.token_status = token_status
        self.token_payload = token_payload  # a 200 reply's body, as given
        self.token_requests: list[dict] = []
        self.token_headers: list[dict] = []
        provider = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                form = parse_qs(self.rfile.read(length).decode())
                provider.token_requests.append({k: v[0] for k, v in form.items()})
                provider.token_headers.append(dict(self.headers))
                if provider.token_status != 200:
                    payload = b'{"error":"invalid_grant"}'
                    self.send_response(provider.token_status)
                elif provider.token_payload is not None:
                    payload = provider.token_payload
                    self.send_response(200)
                else:
                    doc = {"access_token": provider.token}
                    if provider.refresh:
                        doc["refresh_token"] = provider.refresh
                    payload = json.dumps(doc).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.scheme = "http"
        if tls is not None:  # (certificate file, key file)
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            self.server.socket = context.wrap_socket(self.server.socket,
                                                     server_side=True)
            self.scheme = "https"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()

    @property
    def token_url(self):
        port = self.server.server_address[1]
        return f"{self.scheme}://127.0.0.1:{port}/connect/token"

    def browse(self, auth_url: str) -> None:
        """Act as the resource owner: approve and hit the callback."""
        query = auth_query(auth_url)
        redirect = query["redirect_uri"]
        requests.get(
            redirect, params={"code": self.code, "state": query["state"]}, timeout=5
        )


@pytest.fixture()
def env_file(tmp_path):
    path = tmp_path / ".env"
    path.write_text("# creds\nPORTAL_ACCESS_TOKEN=\n", encoding="utf-8")
    return path


def flows_for(provider: MockAuthProvider) -> OAuth2Flows:
    return OAuth2Flows(
        authorization_url="https://auth.portal.example/authorize",
        token_url=provider.token_url,
        scopes={"read": "Read", "write": "Write"},
    )


class TestAuthorizationCode:
    def test_code_exchanged_and_token_stored(self, env_file):
        with MockAuthProvider(code="abc", token="tok-1", refresh="ref-9") as provider:
            token = acquire_oauth_token(
                flows_for(provider),
                client_id="cid",
                client_secret="shh",
                redirect_port=_free_port(),
                env_path=env_file,
                env_var="PORTAL_ACCESS_TOKEN",
                open_browser=provider.browse,
                timeout=10,
            )
        assert token == "tok-1"
        stored = read_env_file(env_file)
        assert stored["PORTAL_ACCESS_TOKEN"] == "tok-1"
        assert stored["PORTAL_REFRESH_TOKEN"] == "ref-9"
        exchange = provider.token_requests[0]
        assert exchange["grant_type"] == "authorization_code"
        assert exchange["code"] == "abc"
        assert exchange["client_id"] == "cid"

    def test_requests_all_declared_scopes_by_default(self, env_file):
        seen = {}
        with MockAuthProvider() as provider:
            def browse(url):
                seen["url"] = url
                provider.browse(url)

            acquire_oauth_token(
                flows_for(provider), "cid", "shh", _free_port(), env_file,
                "PORTAL_ACCESS_TOKEN", open_browser=browse, timeout=10,
            )
        assert "scope=read+write" in seen["url"]

    def test_scope_override(self, env_file):
        seen = {}
        with MockAuthProvider() as provider:
            def browse(url):
                seen["url"] = url
                provider.browse(url)

            acquire_oauth_token(
                flows_for(provider), "cid", "shh", _free_port(), env_file,
                "PORTAL_ACCESS_TOKEN", scopes=["read"], open_browser=browse, timeout=10,
            )
        assert "scope=read" in seen["url"]
        assert "write" not in seen["url"]

    def test_unusable_flow(self, env_file):
        flows = OAuth2Flows(authorization_url="https://a.example/authorize")
        with pytest.raises(FlowUnusableError):
            acquire_oauth_token(
                flows, "cid", "shh", _free_port(), env_file, "X", timeout=1
            )

    def test_exchange_error_carries_body(self, env_file):
        with MockAuthProvider(token_status=400) as provider:
            with pytest.raises(ExchangeError) as excinfo:
                acquire_oauth_token(
                    flows_for(provider), "cid", "shh", _free_port(), env_file,
                    "PORTAL_ACCESS_TOKEN", open_browser=provider.browse, timeout=10,
                )
        assert excinfo.value.status == 400
        assert "invalid_grant" in excinfo.value.body

    def test_exchange_sends_no_netrc_login(self, env_file, tmp_path, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        netrc = home / ".netrc"
        netrc.write_text("machine 127.0.0.1 login netrc-user password netrc-pass\n",
                         encoding="utf-8")
        netrc.chmod(0o600)
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.delenv("NETRC", raising=False)
        with MockAuthProvider() as provider:
            acquire_oauth_token(
                flows_for(provider), "cid", "shh", _free_port(), env_file,
                "PORTAL_ACCESS_TOKEN", open_browser=provider.browse, timeout=10,
            )
        [headers] = provider.token_headers
        assert "authorization" not in {name.lower() for name in headers}
        assert provider.token_requests[0]["client_secret"] == "shh"

    @pytest.mark.parametrize("payload", [b"not json", b"7"], ids=["not-json", "number"])
    def test_reply_without_a_token_object_is_an_exchange_error(
            self, env_file, payload):
        with MockAuthProvider(token_payload=payload) as provider:
            with pytest.raises(ExchangeError) as excinfo:
                acquire_oauth_token(
                    flows_for(provider), "cid", "shh", _free_port(), env_file,
                    "PORTAL_ACCESS_TOKEN", open_browser=provider.browse, timeout=10,
                )
        assert excinfo.value.status == 200
        assert excinfo.value.body == payload.decode()

    @pytest.mark.parametrize("variable", ["SSL_CERT_FILE", "REQUESTS_CA_BUNDLE"])
    def test_https_trusts_the_configured_ca_bundle(
            self, env_file, tmp_path, monkeypatch, variable):
        if shutil.which("openssl") is None:
            pytest.skip("needs the openssl command to make a certificate")
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
             "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
             "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
             "-keyout", str(key), "-out", str(cert)],
            check=True, capture_output=True,
        )
        for name in ("SSL_CERT_FILE", "REQUESTS_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(variable, str(cert))
        with MockAuthProvider(token="tok-tls", tls=(cert, key)) as provider:
            token = acquire_oauth_token(
                flows_for(provider), "cid", "shh", _free_port(), env_file,
                "PORTAL_ACCESS_TOKEN", open_browser=provider.browse, timeout=10,
            )
        assert token == "tok-tls"

    def test_callback_refuses_a_wrong_path_and_a_wrong_state(self, env_file):
        """A request to another path is a 404, and one whose state is not the
        one sent is a 400; neither ends the wait for the real callback."""
        statuses = []

        def browse(url):
            query = auth_query(url)
            redirect = query["redirect_uri"]
            for target, state in ((redirect.replace("/callback", "/other"), query["state"]),
                                  (redirect, "forged")):
                response = requests.get(target, params={"code": "evil", "state": state},
                                        timeout=5)
                statuses.append(response.status_code)
            provider.browse(url)

        with MockAuthProvider(code="abc") as provider:
            token = acquire_oauth_token(flows_for(provider), "cid", "shh", _free_port(),
                                        env_file, "PORTAL_ACCESS_TOKEN",
                                        open_browser=browse, timeout=10)
        assert (statuses, token) == ([404, 400], "tok-1")
        assert provider.token_requests[0]["code"] == "abc"

    def test_denied_authorization_is_an_exchange_error(self, env_file):
        def deny(url):
            query = auth_query(url)
            requests.get(query["redirect_uri"],
                         params={"error": "access_denied", "state": query["state"]},
                         timeout=5)

        with MockAuthProvider() as provider:
            with pytest.raises(ExchangeError, match="authorization denied: access_denied"):
                acquire_oauth_token(flows_for(provider), "cid", "shh", _free_port(),
                                    env_file, "PORTAL_ACCESS_TOKEN", open_browser=deny,
                                    timeout=10)
        assert provider.token_requests == []

    def test_system_browser_by_default(self, env_file, monkeypatch):
        import webbrowser

        with MockAuthProvider() as provider:
            monkeypatch.setattr(webbrowser, "open", provider.browse)
            token = acquire_oauth_token(flows_for(provider), "cid", "shh", _free_port(),
                                        env_file, "PORTAL_ACCESS_TOKEN", timeout=10)
        assert token == "tok-1"

    def test_refresh_token_beside_a_suffixed_access_token_variable(self, env_file):
        """`build_env_map` makes a second `..._ACCESS_TOKEN` name unique as
        `..._ACCESS_TOKEN_2`; its refresh token goes to that name plus
        `_REFRESH`."""
        with MockAuthProvider(refresh="ref-2") as provider:
            acquire_oauth_token(flows_for(provider), "cid", "shh", _free_port(), env_file,
                                "PORTAL_ACCESS_TOKEN_2", open_browser=provider.browse,
                                timeout=10)
        stored = read_env_file(env_file)
        assert stored["PORTAL_ACCESS_TOKEN_2"] == "tok-1"
        assert stored["PORTAL_ACCESS_TOKEN_2_REFRESH"] == "ref-2"

    def test_timeout_without_callback(self, env_file):
        with MockAuthProvider() as provider:
            with pytest.raises(CallbackTimeoutError):
                acquire_oauth_token(
                    flows_for(provider), "cid", "shh", _free_port(), env_file,
                    "PORTAL_ACCESS_TOKEN", open_browser=lambda url: None, timeout=0.3,
                )


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
