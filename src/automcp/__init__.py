"""automcp: compile OpenAPI 2.0/3.x contracts into runnable MCP servers.

The pipeline: load the contract, inline every $ref, normalize the result
into 3.x shape, extract security schemes into environment bindings,
compile each operation into an MCP tool, then either serve the manifest
over stdio JSON-RPC or lint/repair the contract and evaluate it against
a mock upstream. The command line (`automcp generate|serve|lint|sample`)
is the main interface; the names below are the documented Python API.
"""

from ._version import __version__
from .evaluator import evaluate_spec_file, load_exclusions_file, load_order_file
from .oauth import acquire_oauth_token
from .security import OAuth2Flows

__all__ = [
    "__version__",
    "OAuth2Flows",
    "acquire_oauth_token",
    "evaluate_spec_file",
    "load_exclusions_file",
    "load_order_file",
]
