"""Recursive $ref inlining and structural validation of the result."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any
from urllib.parse import unquote

from .errors import DanglingRefError, ExternalRefError
from .ingest import HTTP_METHODS

# Path-item keys that are legitimately not operations.
_PATH_ITEM_META = ("parameters", "summary", "description", "servers")

_CYCLE_PLACEHOLDER_PREFIX = "cyclic reference to "


@dataclass
class FlattenedContract:
    """A document with every $ref replaced by the expansion of its target.

    Acyclic targets are expanded once and shared by all their uses, so
    `tree` is read-only: copy a subtree before changing it.
    """

    tree: dict
    ref_count_resolved: int = 0
    cycles_detected: list[str] = field(default_factory=list)


@dataclass
class ValidationFinding:
    pointer: str
    message: str
    fatal: bool = False


def escape_token(key: str) -> str:
    """One key as a pointer token: RFC 6901 ``~0``/``~1`` escapes, plus
    ``%`` as ``%25`` because `pointer_segments` percent-decodes (a URI
    fragment), so that ``pointer_segments("#/" + escape_token(k)) == [k]``."""
    return key.replace("%", "%25").replace("~", "~0").replace("/", "~1")


def pointer_segments(pointer: str) -> list[str]:
    """The decoded keys of an intra-document pointer. ``#`` names the
    document root and, per RFC 6901, ``#/`` the top-level empty key."""
    fragment = pointer[1:]
    if not fragment:
        return []
    return [
        unquote(raw).replace("~1", "/").replace("~0", "~")
        for raw in fragment.removeprefix("/").split("/")
    ]


def pointer_lookup(tree: Any, pointer: str) -> Any:
    """Resolve an intra-document JSON pointer (`#/a/b/0`) to its node."""
    if not pointer.startswith("#"):
        raise ExternalRefError(pointer)
    node = tree
    for key in pointer_segments(pointer):
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        else:
            raise DanglingRefError(pointer)
    return node


def flatten(tree: dict) -> FlattenedContract:
    """Inline every $ref, breaking cycles with a permissive placeholder.

    A back-edge (a $ref whose target is already being expanded) becomes
    ``{"type": "object", "description": "cyclic reference to <pointer>"}``
    and the target pointer is recorded once in ``cycles_detected``.

    The result shares no node with `tree`, but the expansion of a target
    that breaks no cycle is built once and placed at every use: treat
    the result as read-only and copy a subtree before changing it.
    """
    resolved = 0
    placeholders = 0
    cycles: list[str] = []
    # ref -> (its expansion, refs resolved inside it). Only expansions that
    # emitted no placeholder are kept: they reach no cycle and no ref on the
    # active chain, so they are the same wherever the ref is used. A ref on
    # a cycle always reaches itself and so is never kept.
    expanded: dict[str, tuple[Any, int]] = {}

    def expand(node: Any, active: tuple[str, ...]) -> Any:
        nonlocal resolved, placeholders
        if isinstance(node, dict):
            ref = node.get("$ref")
            if isinstance(ref, str):
                if ref in expanded:
                    value, count = expanded[ref]
                    resolved += count
                    return value
                if not ref.startswith("#"):
                    raise ExternalRefError(ref)
                if ref in active:
                    if ref not in cycles:
                        cycles.append(ref)
                    placeholders += 1
                    return {
                        "type": "object",
                        "description": _CYCLE_PLACEHOLDER_PREFIX + ref,
                    }
                target = pointer_lookup(tree, ref)
                resolved_before, placeholders_before = resolved, placeholders
                resolved += 1
                value = expand(target, active + (ref,))
                if placeholders == placeholders_before:
                    expanded[ref] = (value, resolved - resolved_before)
                return value
            return {key: expand(value, active) for key, value in node.items()}
        if isinstance(node, list):
            return [expand(value, active) for value in node]
        return node

    flat = expand(tree, ())
    return FlattenedContract(tree=flat, ref_count_resolved=resolved,
                             cycles_detected=cycles)


def validate(contract: FlattenedContract) -> list[ValidationFinding]:
    """Structural checks on a flattened document.

    Findings are data; a fatal finding (missing ``paths``) means the
    document cannot proceed to compilation.
    """
    findings: list[ValidationFinding] = []
    tree = contract.tree

    paths = tree.get("paths")
    if paths is None or not isinstance(paths, dict):
        findings.append(
            ValidationFinding("#/paths", "document has no `paths` object", fatal=True)
        )
        return findings
    if not paths:
        findings.append(ValidationFinding("#/paths", "no operations declared"))
        return findings

    for path, item in paths.items():
        path_ptr = "#/paths/" + escape_token(path)
        if not isinstance(item, dict):
            findings.append(ValidationFinding(path_ptr, "path item is not a mapping"))
            continue
        for key, value in item.items():
            if key in HTTP_METHODS:
                findings.extend(_check_operation(f"{path_ptr}/{key}", value))
            elif key in _PATH_ITEM_META or key.startswith("x-"):
                continue
            elif isinstance(value, dict):
                findings.append(
                    ValidationFinding(
                        f"{path_ptr}/{key}", f"unsupported HTTP method {key!r}"
                    )
                )
        for i, param in enumerate(item.get("parameters", [])):
            findings.extend(_check_parameter(f"{path_ptr}/parameters/{i}", param))
    return findings


def _check_operation(pointer: str, op: Any) -> list[ValidationFinding]:
    findings: list[ValidationFinding] = []
    if not isinstance(op, dict):
        findings.append(ValidationFinding(pointer, "operation is not a mapping"))
        return findings
    for i, param in enumerate(op.get("parameters", [])):
        findings.extend(_check_parameter(f"{pointer}/parameters/{i}", param))
    responses = op.get("responses")
    if isinstance(responses, dict) and not responses:
        findings.append(
            ValidationFinding(f"{pointer}/responses", "response map has no entries")
        )
    return findings


def _check_parameter(pointer: str, param: Any) -> list[ValidationFinding]:
    findings: list[ValidationFinding] = []
    if not isinstance(param, dict):
        findings.append(ValidationFinding(pointer, "parameter is not a mapping"))
        return findings
    if not param.get("name"):
        findings.append(ValidationFinding(pointer, "parameter has no `name`"))
    if not param.get("in"):
        findings.append(ValidationFinding(pointer, "parameter has no location (`in`)"))
    return findings
