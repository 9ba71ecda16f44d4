"""Recursive $ref inlining, and the one structural check compilation needs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any
from urllib.parse import unquote

from .errors import DanglingRefError, ExternalRefError, FatalValidationError
from .ingest import mapping

_CYCLE_PLACEHOLDER_PREFIX = "cyclic reference to "


@dataclass
class FlattenedContract:
    """A document with every $ref inlined, then `ingest.normalize`d.

    `tree` shares every node it does not rewrite with the loaded tree,
    and acyclic targets are expanded once and shared by all their uses;
    the compiled manifest shares its nodes in turn. So `tree` is
    read-only: copy a subtree before changing it.
    """

    tree: dict
    ref_count_resolved: int = 0
    cycles_detected: list[str] = field(default_factory=list)


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
    """Resolve an intra-document JSON pointer (`#/a/b/0`) to its node;
    `flatten` refuses any other `$ref` first."""
    node = tree
    for token in pointer_segments(pointer):
        if isinstance(node, dict) and token in node:
            node = node[token]
        elif isinstance(node, list) and token.isdecimal() and int(token) < len(node):
            node = node[int(token)]
        else:
            raise DanglingRefError(pointer)
    return node


def flatten(tree: dict) -> FlattenedContract:
    """Inline every $ref, breaking cycles with a permissive placeholder.

    A back-edge (a $ref whose target is already being expanded) becomes
    ``{"type": "object", "description": "cyclic reference to <pointer>"}``
    and the target pointer is recorded once in ``cycles_detected``.

    Only the containers on a path to a $ref are rebuilt: the result
    shares every other node with `tree`, which is never changed, and the
    expansion of a target that breaks no cycle is built once and placed
    at every use. Each target is looked up once. Treat the result as
    read-only and copy a subtree before changing it.
    """
    resolved = 0
    placeholders = 0
    cycles: list[str] = []
    # ref -> (its expansion, refs resolved inside it). Only expansions that
    # emitted no placeholder are kept: they reach no cycle and no ref on the
    # active chain, so they are the same wherever the ref is used. A ref on
    # a cycle always reaches itself and so is never kept.
    expanded: dict[str, tuple[Any, int]] = {}
    targets: dict[str, Any] = {}  # ref -> its target, looked up once

    def expand(node: Any, active: tuple[str, ...]) -> Any:
        nonlocal resolved, placeholders
        kind = node.__class__  # a loaded tree's exact classes first
        if kind is dict or isinstance(node, dict):
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
                if ref not in targets:
                    targets[ref] = pointer_lookup(tree, ref)
                resolved_before, placeholders_before = resolved, placeholders
                resolved += 1
                value = expand(targets[ref], active + (ref,))
                if placeholders == placeholders_before:
                    expanded[ref] = (value, resolved - resolved_before)
                return value
            items = node.items()
        elif kind is list or isinstance(node, list):
            items = enumerate(node)
        else:
            return node
        copied = None  # made at the first child whose expansion differs
        for key, value in items:
            kind = value.__class__
            if kind is dict or kind is list or kind is not str and isinstance(value, (dict, list)):
                flat = expand(value, active)
                if flat is not value:
                    if copied is None:
                        copied = node.copy()
                    copied[key] = flat
        return node if copied is None else copied

    flat = expand(tree, ())
    return FlattenedContract(tree=flat, ref_count_resolved=resolved,
                             cycles_detected=cycles)


def validate(contract: FlattenedContract) -> None:
    """Raise FatalValidationError when the document has no `paths`
    mapping: without one there is nothing to compile. Every other field
    of the wrong type reads as absent (the `ingest` readers), and is left
    to the linter."""
    if mapping(contract.tree, "paths", None) is None:
        raise FatalValidationError("document has no `paths` object at #/paths", "#/paths")
