"""The YAML reader: trees as `yaml.safe_load` builds them, faster.

YAML is parsed by libyaml when PyYAML has it, and the tree is built
straight from libyaml's parse events in one pass: plain dicts, lists and
scalars, with no node graph in between. What that event walk leaves out
(merge keys, tags other than PyYAML's plain scalar ones, a collection as
a key, a second document) is loaded by PyYAML's own constructor, so
every tree and every error is `yaml.safe_load`'s. The walk also guards
nesting depth: a document that nests deeper than `_LIBYAML_MAX_DEPTH`,
and any text when libyaml is absent, takes PyYAML's pure-Python loader.

Only text that does not parse as JSON is read here: `ingest` imports
this module, and with it `yaml`, on first use.
"""

from __future__ import annotations

import re
from typing import Any

import yaml
from yaml import (AliasEvent, DocumentEndEvent, MappingEndEvent, MappingStartEvent,
                  ScalarEvent, ScalarNode, SequenceEndEvent, SequenceStartEvent,
                  StreamEndEvent)

# libyaml parses several times faster than the pure-Python loader, and
# building the tree from its events (`_tree_from_events`) also skips
# PyYAML's node graph and constructor. But libyaml's composer (behind
# `compose_yaml` and the walk's fallback to `yaml.load`) recurses in C,
# beyond Python's recursion limit, so a deep enough document crashes the
# process, and its event stream slows quadratically with depth. The walk
# counts open collections as it reads events and stops past this depth;
# the text then goes to the pure loader, whose RecursionError becomes
# NestingError, and the tree walks reject such depth anyway.
# `compose_yaml` hands the text to libyaml's composer before any event
# is read, so it bounds the depth from the text first (`_nesting_bound`).
_LIBYAML_MAX_DEPTH = 2000
_FastLoader = getattr(yaml, "CSafeLoader", None)  # None without libyaml
# A line break and the run of spaces and block indicators after it. YAML
# also breaks lines at CR, NEL, LS and PS, and libyaml skips a BOM at any
# line start.
_LINE_START_RUN_RE = re.compile(r"[\n\r\x85\u2028\u2029\ufeff][\ufeff ?:-]+")


def _load_yaml(text: str) -> Any:
    """`yaml.safe_load(text)`. With libyaml, the tree is built from its
    parse events; a libyaml error is re-raised by the pure loader, so the
    message is the same either way. Text with a BOM past its first
    character takes the pure loader: libyaml skips a BOM at the start of
    any line, the pure loader only at the start of the text, so the two
    would build different trees."""
    if _FastLoader is not None and text.find("\ufeff", 1) < 0:
        loader = _FastLoader(text)
        try:
            return _tree_from_events(loader)
        except _Unbuilt:
            try:
                return yaml.load(text, Loader=_FastLoader)
            except yaml.YAMLError:
                pass
        except (_TooDeep, yaml.YAMLError):
            pass
        finally:
            loader.dispose()
    return yaml.load(text, Loader=yaml.SafeLoader)


class _Unbuilt(Exception):
    """The event stream holds something `_tree_from_events` leaves to
    PyYAML's own constructor."""


class _TooDeep(Exception):
    """The event stream nests deeper than `_LIBYAML_MAX_DEPTH`."""


_STR_TAG = "tag:yaml.org,2002:str"
_NO_KEY = object()  # a mapping's key slot while it waits for a key
# a collection's start event -> the tags under which it is a plain dict or list
_PLAIN_TAGS = {
    MappingStartEvent: (None, "!", "tag:yaml.org,2002:map"),
    SequenceStartEvent: (None, "!", "tag:yaml.org,2002:seq"),
}


def _tree_from_events(loader: Any) -> Any:
    """The tree `loader.get_single_data()` would construct, built straight
    from the loader's parse events: dicts, lists and scalars, with each
    alias sharing the object its anchor names. A scalar's tag is resolved
    and constructed by the loader itself, so ints, floats, bools, nulls,
    timestamps and binary come out as PyYAML makes them.

    Raises _TooDeep once more than `_LIBYAML_MAX_DEPTH` collections are
    open. Raises _Unbuilt on what only PyYAML's constructor gets exactly
    right, or reports in its own words: a merge key or any other tag it
    has no plain constructor for, a tagged collection, a collection as a
    key, an undefined or redefined anchor, a scalar whose constructor
    fails, and a second document; it first reads the rest of the stream,
    so that PyYAML's composer never meets more depth than the bound."""
    get_event = loader.get_event
    resolve = loader.resolve
    constructors = loader.yaml_constructors
    # Without path resolvers, `resolve` reads only a scalar's text, and
    # gives the str tag when `implicit[0]` is false (a quoted scalar).
    by_text = not loader.yaml_path_resolvers
    # a plain scalar's text -> its value, resolved and constructed once
    # per load; the implicit tags construct ints, floats, bools, None,
    # dates and strs, so sharing a value shares nothing mutable
    plain: dict[str, Any] = {}
    anchors: dict[str, Any] = {}
    root = None
    # The open collection, its key slot when it is a mapping, and whether
    # it is a list; `stack` holds the (collection, is a list) of each
    # enclosing one. A collection never waits for a key when a child
    # opens or closes, since a collection cannot be a key here.
    parent: Any = None
    key: Any = _NO_KEY
    is_list = False
    stack: list[tuple[Any, bool]] = []
    get_event()  # StreamStartEvent
    if get_event().__class__ is StreamEndEvent:
        return None  # an empty stream; else that was a DocumentStartEvent
    try:
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent:
                node = event.value
                tag = event.tag
                if (tag is None or tag == "!") and by_text:
                    if event.implicit[0]:
                        value = plain.get(node, _NO_KEY)
                        if value is _NO_KEY:
                            value = plain[node] = _construct(
                                loader, constructors,
                                resolve(ScalarNode, node, (True, False)), node)
                        node = value
                else:
                    if tag is None or tag == "!":
                        tag = resolve(ScalarNode, node, event.implicit)
                    node = _construct(loader, constructors, tag, node)
                if event.anchor is not None:
                    _set_anchor(anchors, event.anchor, node)
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                parent, is_list = stack.pop()
                continue
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                if event.tag not in _PLAIN_TAGS[kind]:
                    raise _Unbuilt
                node = {} if kind is MappingStartEvent else []
                if event.anchor is not None:
                    _set_anchor(anchors, event.anchor, node)
                if is_list:
                    parent.append(node)
                elif key is not _NO_KEY:
                    parent[key] = node
                    key = _NO_KEY
                elif parent is None:
                    root = node
                else:
                    raise _Unbuilt  # a collection as a key
                stack.append((parent, is_list))
                if len(stack) > _LIBYAML_MAX_DEPTH:
                    raise _TooDeep
                parent = node
                is_list = kind is SequenceStartEvent
                continue
            elif kind is AliasEvent:
                if event.anchor not in anchors:
                    raise _Unbuilt
                node = anchors[event.anchor]
            else:  # DocumentEndEvent
                if get_event().__class__ is not StreamEndEvent:
                    raise _Unbuilt  # a second document
                return root

            if is_list:
                parent.append(node)
            elif key is not _NO_KEY:
                parent[key] = node
                key = _NO_KEY
            elif parent is None:
                root = node
            elif node.__class__ is dict or node.__class__ is list:
                raise _Unbuilt  # an alias to a collection, as a key
            else:
                key = node
    except _Unbuilt:
        # the event that raised may have opened a collection not yet counted
        _read_to_end(get_event, len(stack) + 1)
        raise


def _construct(loader: Any, constructors: dict, tag: str, text: str) -> Any:
    """The scalar `text` under `tag`, as the loader's constructor makes it."""
    if tag == _STR_TAG:
        return text
    construct = constructors.get(tag)
    if construct is None:
        raise _Unbuilt
    try:
        return construct(loader, ScalarNode(tag, text))
    except Exception as exc:  # yaml.load raises it, or an earlier error
        raise _Unbuilt from exc


def _set_anchor(anchors: dict, anchor: str, node: Any) -> None:
    if anchor in anchors:
        raise _Unbuilt  # a redefined anchor
    anchors[anchor] = node


def _read_to_end(get_event, depth: int) -> None:
    """Read the rest of an event stream in which `depth` collections are
    open; raises _TooDeep if more than `_LIBYAML_MAX_DEPTH` ever are."""
    while True:
        kind = get_event().__class__
        if kind is MappingStartEvent or kind is SequenceStartEvent:
            depth += 1
            if depth > _LIBYAML_MAX_DEPTH:
                raise _TooDeep
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            depth -= 1
        elif kind is StreamEndEvent:
            return


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
    pure loader, with `_load_yaml`'s rules for errors and a BOM. `parse`
    hands the text to libyaml's composer, which recurses in C before any
    event could be counted, so the depth is bounded from the text first."""
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
