"""automcp: compile OpenAPI 2.0/3.x contracts into runnable MCP servers.

The pipeline: load the contract, inline every $ref, normalize the result
into 3.x shape, extract security schemes into environment bindings,
compile each operation into an MCP tool, then either serve the manifest
over stdio JSON-RPC or lint/repair the contract and evaluate it against
a mock upstream. The command line (`automcp generate|serve|lint|sample`)
is the main interface; the names below are the documented Python API.

Each export but `__version__` is imported from its submodule on first
access (PEP 562), so `import automcp`, which every command pays, loads
nothing else.
"""

from ._version import __version__

# export -> the submodule that defines it
_EXPORTS = {
    "OAuth2Flows": "security",
    "acquire_oauth_token": "oauth",
    "evaluate_spec_file": "evaluator",
    "load_exclusions_file": "evaluator",
    "load_order_file": "evaluator",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
