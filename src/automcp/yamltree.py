"""The YAML reader: trees as `yaml.safe_load` builds them, faster.

YAML is parsed by libyaml when PyYAML has it, and the tree is built
straight from libyaml's parse events: plain dicts, lists and scalars,
with no node graph in between. What that event walk leaves out (merge
keys, tags other than PyYAML's plain scalar ones, a collection as a key,
a second document) is loaded by PyYAML's own constructor, so every tree
and every error is `yaml.safe_load`'s. Text that libyaml could overflow,
and any text when libyaml is absent, takes PyYAML's pure-Python loader.

Only text that does not parse as JSON is read here: `ingest` imports
this module, and with it `yaml`, on first use.
"""

from __future__ import annotations

import re
from typing import Any

import yaml

# libyaml parses several times faster than the pure-Python loader, and
# building the tree from its events (`_tree_from_events`) also skips
# PyYAML's node graph and constructor. But libyaml's composer (behind
# `compose_yaml` and `_tree_from_events`' fallback) recurses in C, beyond
# Python's recursion limit, so a deep enough document crashes the
# process, and its event stream slows quadratically with depth. Text that
# may nest deeper than this goes to the pure loader, whose RecursionError
# becomes NestingError; the tree walks reject such depth anyway.
_LIBYAML_MAX_DEPTH = 2000
_FastLoader = getattr(yaml, "CSafeLoader", None)  # None without libyaml
# A line break and the run of spaces and block indicators after it. YAML
# also breaks lines at CR, NEL, LS and PS, and libyaml skips a BOM at any
# line start.
_LINE_START_RUN_RE = re.compile(r"[\n\r\x85\u2028\u2029\ufeff][\ufeff ?:-]+")


def _load_yaml(text: str) -> Any:
    """`yaml.safe_load` through the loader `_with_yaml_loader` picks; with
    libyaml, the tree is built from its parse events."""

    def load(text: str, Loader: type) -> Any:
        if Loader is not _FastLoader:
            return yaml.load(text, Loader=Loader)
        loader = Loader(text)
        try:
            return _tree_from_events(loader)
        except _Unbuilt:
            pass
        finally:
            loader.dispose()
        return yaml.load(text, Loader=Loader)

    return _with_yaml_loader(load, text)


class _Unbuilt(Exception):
    """The event stream holds something `_tree_from_events` leaves to
    PyYAML's own constructor."""


_STR_TAG = "tag:yaml.org,2002:str"
_NO_KEY = object()  # a mapping frame's key slot while it waits for a key
# a collection's start event -> the tags under which it is a plain dict or list
_PLAIN_TAGS = {
    yaml.MappingStartEvent: (None, "!", "tag:yaml.org,2002:map"),
    yaml.SequenceStartEvent: (None, "!", "tag:yaml.org,2002:seq"),
}


def _tree_from_events(loader: Any) -> Any:
    """The tree `loader.get_single_data()` would construct, built straight
    from the loader's parse events: dicts, lists and scalars, with each
    alias sharing the object its anchor names. A scalar's tag is resolved
    and constructed by the loader itself, so ints, floats, bools, nulls,
    timestamps and binary come out as PyYAML makes them.

    Raises _Unbuilt on what only PyYAML's constructor gets exactly right,
    or reports in its own words: a merge key or any other tag it has no
    plain constructor for, a tagged collection, a collection as a key, an
    undefined or redefined anchor, a scalar whose constructor fails, and a
    second document."""
    get_event = loader.get_event
    resolve = loader.resolve
    constructors = loader.yaml_constructors
    anchors: dict[str, Any] = {}
    root = None
    stack: list[list] = []  # [collection, key slot] per open collection
    get_event()  # StreamStartEvent
    if isinstance(get_event(), yaml.StreamEndEvent):
        return None  # an empty stream; else that was a DocumentStartEvent
    while True:
        event = get_event()
        kind = type(event)
        if kind is yaml.ScalarEvent:
            node = event.value
            tag = event.tag
            if tag is None or tag == "!":
                tag = resolve(yaml.ScalarNode, node, event.implicit)
            if tag != _STR_TAG:
                construct = constructors.get(tag)
                if construct is None:
                    raise _Unbuilt
                try:
                    node = construct(loader, yaml.ScalarNode(tag, node))
                except Exception as exc:  # yaml.load raises it, or an earlier error
                    raise _Unbuilt from exc
        elif kind is yaml.AliasEvent:
            if event.anchor not in anchors:
                raise _Unbuilt
            node = anchors[event.anchor]
        elif kind in _PLAIN_TAGS:
            if event.tag not in _PLAIN_TAGS[kind]:
                raise _Unbuilt
            node = {} if kind is yaml.MappingStartEvent else []
        elif kind is yaml.DocumentEndEvent:
            if not isinstance(get_event(), yaml.StreamEndEvent):
                raise _Unbuilt  # a second document
            return root
        else:  # MappingEndEvent, SequenceEndEvent
            stack.pop()
            continue

        if event.anchor is not None and kind is not yaml.AliasEvent:
            if event.anchor in anchors:
                raise _Unbuilt
            anchors[event.anchor] = node
        if not stack:
            root = node
        else:
            frame = stack[-1]
            parent = frame[0]
            if parent.__class__ is list:
                parent.append(node)
            elif frame[1] is _NO_KEY:
                if isinstance(node, (dict, list)):
                    raise _Unbuilt  # unhashable key
                frame[1] = node
            else:
                parent[frame[1]] = node
                frame[1] = _NO_KEY
        if kind in _PLAIN_TAGS:
            stack.append([node, _NO_KEY])


def compose_yaml(text: str) -> tuple[yaml.Node, int]:
    """The node graph `_load_yaml` builds its tree from, whose marks give
    source positions, and the offset that turns a mark's `index` into an
    offset into `text`: libyaml does not count a leading BOM."""

    def compose(text: str, Loader: type) -> tuple[yaml.Node, int]:
        bom = text.startswith("\ufeff") and Loader is getattr(yaml, "CSafeLoader", None)
        return yaml.compose(text, Loader=Loader), int(bom)

    return _with_yaml_loader(compose, text)


def _with_yaml_loader(parse, text: str) -> Any:
    """`parse(text, Loader=...)` through libyaml when it is present and the
    text cannot nest deeper than `_LIBYAML_MAX_DEPTH`, else through the
    pure loader. A libyaml error is re-raised by the pure loader, so the
    message is the same either way. Text with a BOM past its first
    character also takes the pure loader: libyaml skips a BOM at the start
    of any line, the pure loader only at the start of the text, so the two
    would build different trees."""
    if (_FastLoader is not None and text.find("\ufeff", 1) < 0
            and _nesting_bound(text) <= _LIBYAML_MAX_DEPTH):
        try:
            return parse(text, Loader=_FastLoader)
        except yaml.YAMLError:
            pass
    return parse(text, Loader=yaml.SafeLoader)


def _nesting_bound(text: str) -> int:
    """An upper bound on the text's YAML nesting depth. Every flow level
    opens with a `[` or `{`, and an empty `[]` or `{}` can only be the
    innermost one. A line's first block level sits at its leading
    spaces and ``-``/``?``/``:`` indicators (after any BOM), and each
    column of them holds at most two more (a sequence may share its
    parent mapping's column)."""
    flow = (text.count("[") - text.count("[]")
            + text.count("{") - text.count("{}") + 1)
    run = max(map(len, _LINE_START_RUN_RE.findall("\n" + text)), default=1) - 1
    block = 1 + 2 * run
    return flow + block
