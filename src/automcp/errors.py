"""Exception types shared across the toolchain.

Errors that correspond to a spec-defect class carry ``lint_class`` so the
linter and CLI can map hard failures back to a finding category.
"""

from __future__ import annotations

from contextlib import contextmanager


class AutoMcpError(Exception):
    """Base class for all toolchain errors."""

    lint_class: str | None = None


class ParseError(AutoMcpError):
    """The document is not parseable as YAML or JSON."""


class NestingError(AutoMcpError):
    """The document nests deeper than the parser or a tree walk can follow."""


@contextmanager
def nesting_guard():
    """Turn a RecursionError raised inside the block into NestingError."""
    try:
        yield
    except RecursionError:
        raise NestingError("document nests too deeply to process") from None


class DialectError(AutoMcpError):
    """Neither `swagger: "2.0"` nor `openapi: 3.x` is present."""


class BaseUrlError(AutoMcpError):
    """The resolved base URL is relative, empty, or still templated."""

    lint_class = "B"


class DanglingRefError(AutoMcpError):
    """A $ref points at a location that does not exist in the document."""

    def __init__(self, pointer: str) -> None:
        self.pointer = pointer
        super().__init__(f"$ref target not found: {pointer}")


class ExternalRefError(AutoMcpError):
    """A $ref points outside the document (another file or a URL)."""

    def __init__(self, pointer: str) -> None:
        self.pointer = pointer
        super().__init__(f"external $ref not supported: {pointer}")


class SchemeError(AutoMcpError):
    """A declared security scheme is unusable or of an unknown type, or the
    schemes are not declared in a mapping (`pointer` says where)."""

    lint_class = "A"

    def __init__(self, message: str, pointer: str | None = None) -> None:
        self.pointer = pointer
        super().__init__(message)


class FlowUnusableError(AutoMcpError):
    """The OAuth2 flow lacks the URLs needed to obtain a token."""

    lint_class = "A"


class ExchangeError(AutoMcpError):
    """The token endpoint rejected the code/credentials exchange."""

    def __init__(self, status: int, body: str) -> None:
        self.status = status
        self.body = body
        super().__init__(f"token exchange failed with HTTP {status}: {body[:200]}")


class CallbackTimeoutError(AutoMcpError):
    """No OAuth callback arrived within the configured window."""


class SchemaViolation(AutoMcpError):
    """Tool arguments do not validate against the tool's input schema."""


class MissingCredential(AutoMcpError):
    """A required credential environment variable is empty or unset."""

    def __init__(self, env_var: str) -> None:
        self.env_var = env_var
        super().__init__(f"missing credential: set {env_var} in the environment or .env")


class TransportError(AutoMcpError):
    """DNS, TLS, connection, or timeout failure talking to the upstream."""


class ExtraHeadersParseError(AutoMcpError):
    """EXTRA_HEADERS is set but is not a JSON object of string -> string."""


class FatalValidationError(AutoMcpError):
    """Validation found a defect the compiler cannot proceed past."""


class PointerError(AutoMcpError):
    """A patch edit targets a JSON pointer that cannot be created."""

    def __init__(self, pointer: str, reason: str) -> None:
        self.pointer = pointer
        super().__init__(f"cannot apply edit at {pointer}: {reason}")


class NonConvergence(AutoMcpError):
    """The lint/patch loop hit its iteration cap with findings remaining."""
