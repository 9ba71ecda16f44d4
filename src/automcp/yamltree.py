"""The YAML reader: trees as `yaml.safe_load` builds them, faster.

YAML is parsed by libyaml when PyYAML has it, and the tree is built
straight from libyaml's parse events in one pass: plain dicts, lists and
scalars, with no node graph in between. What that event walk leaves out
(merge keys, tags other than PyYAML's plain scalar ones, a collection as
a key, a second document) is loaded by PyYAML's own constructor, so
every tree and every error is `yaml.safe_load`'s. A second walk over the
same events gives the positioned nodes `splice` edits the text by
(`source_nodes`). Only these walks guard nesting depth: a document that
nests deeper than `_LIBYAML_MAX_DEPTH`, and any text when libyaml is
absent, takes PyYAML's pure-Python loader.

A few rules differ from `yaml.safe_load`, so that every tree holds only
JSON values: a spec's values end up as JSON (a manifest, a tool
argument, a lint finding), and JSON has no date, bytes, set or tuple.
A plain scalar such as `2020-01-01` reads as text, not as a date. An
explicit tag whose value JSON cannot hold reads as the node it tags:
`!!timestamp` and `!!binary` as the scalar's text as written, `!!set`
as its mapping (whose values are null), and `!!omap` and `!!pairs` as
their sequence of one-key mappings. A mapping key reads as the text
`json.dumps` writes for it (`200:` as "200", `true:` as "true"), so no
other module meets a key that is not a str. Both loaders are subclasses
that drop the implicit timestamp resolver and hold these constructors;
PyYAML's own classes are left as they are.

Only text that does not parse as JSON is read here: `ingest` imports
this module, and with it `yaml`, on first use.
"""

from __future__ import annotations

import json
from typing import Any

import yaml
from yaml import (AliasEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, ScalarNode,
                  SequenceEndEvent, SequenceStartEvent, StreamEndEvent)

# libyaml parses several times faster than the pure-Python loader. But
# its composer (behind `yaml.load`) recurses in C, beyond Python's
# recursion limit, so a deep enough document crashes the process, and its
# event stream slows quadratically with depth. Both event walks count
# open collections and stop past this depth; the tree walk then hands the
# text to the pure loader, whose RecursionError becomes NestingError.
_LIBYAML_MAX_DEPTH = 2000
_TIMESTAMP_TAG = "tag:yaml.org,2002:timestamp"
_STR_TAG = "tag:yaml.org,2002:str"
_MAP_TAG = "tag:yaml.org,2002:map"
_SEQ_TAG = "tag:yaml.org,2002:seq"


def _key_text(key: Any) -> str:
    """A mapping key as JSON writes it: `200` as "200", `~` as "null"."""
    return key if isinstance(key, str) else json.dumps(key)


def _construct_mapping(self: Any, node: Any, deep: bool = False) -> dict:
    """SafeConstructor's `construct_mapping`, with each scalar key node
    read as a str node of its text before the key is stored: `1`, `1.0`
    and `true` are one Python key."""
    if isinstance(node, yaml.MappingNode):
        self.flatten_mapping(node)  # merge keys
        node.value = [(ScalarNode(_STR_TAG, _key_text(self.construct_object(k)))
                       if k.__class__ is ScalarNode else k, v) for k, v in node.value]
    return yaml.constructor.BaseConstructor.construct_mapping(self, node, deep)


def _json_loader(loader: type) -> type:
    """A subclass of `loader` whose plain scalars never resolve to a date,
    whose tagged nodes build only JSON values and whose keys are text."""
    resolvers = {
        first: [(tag, regexp) for tag, regexp in pairs if tag != _TIMESTAMP_TAG]
        for first, pairs in loader.yaml_implicit_resolvers.items()
    }
    untagged = {_TIMESTAMP_TAG: loader.construct_scalar,
                "tag:yaml.org,2002:binary": loader.construct_scalar,
                "tag:yaml.org,2002:set": loader.yaml_constructors[_MAP_TAG],
                "tag:yaml.org,2002:omap": loader.yaml_constructors[_SEQ_TAG],
                "tag:yaml.org,2002:pairs": loader.yaml_constructors[_SEQ_TAG]}
    return type(loader.__name__, (loader,), {
        "yaml_implicit_resolvers": resolvers,
        "yaml_constructors": {**loader.yaml_constructors, **untagged},
        "construct_mapping": _construct_mapping,
    })


_PureLoader = _json_loader(yaml.SafeLoader)
_FastLoader = (_json_loader(yaml.CSafeLoader)  # None without libyaml
               if hasattr(yaml, "CSafeLoader") else None)


def _load_yaml(text: str) -> Any:
    """`yaml.safe_load(text)`, with plain dates as text. With libyaml, the
    tree is built from its parse events; a libyaml error is re-raised by
    the pure loader, so the message is the same either way. A scalar that
    its tag's constructor cannot read (`!!int abc`, `!!bool abc`, an int
    past Python's digit limit) raises yaml.YAMLError, as a parse error
    does, not the constructor's ValueError or KeyError."""
    try:
        if _libyaml_reads(text):
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
        return yaml.load(text, Loader=_PureLoader)
    except (ValueError, KeyError) as exc:
        raise yaml.YAMLError(f"{type(exc).__name__}: {exc}") from exc


def _libyaml_reads(text: str) -> bool:
    """Whether libyaml is present and the text has no BOM past its first
    character, which libyaml would skip and the pure loader would not."""
    return _FastLoader is not None and text.find("\ufeff", 1) < 0


class _Unbuilt(Exception):
    """The event stream holds something `_tree_from_events` leaves to
    PyYAML's own constructor."""


class _TooDeep(Exception):
    """The event stream nests deeper than `_LIBYAML_MAX_DEPTH`."""


_NO_KEY = object()  # a mapping's key slot while it waits for a key
# a collection's start event -> the tags under which it is a plain dict or list
_PLAIN_TAGS = {
    MappingStartEvent: (None, "!", _MAP_TAG),
    SequenceStartEvent: (None, "!", _SEQ_TAG),
}


def _tree_from_events(loader: Any) -> Any:
    """The tree `loader.get_single_data()` would construct, built straight
    from the loader's parse events: dicts, lists and scalars, with each
    alias sharing the object its anchor names. A scalar's tag is resolved
    and constructed by the loader itself, so ints, floats, bools and
    nulls come out as PyYAML makes them, and timestamps and binary as
    the loader's constructors read them (as text), and keys as their
    text (`_key_text`).

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
    # a plain scalar's text -> its value, resolved and constructed once
    # per load; the implicit tags construct ints, floats, bools, None
    # and strs, so sharing a value shares nothing mutable
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
                if tag is None or tag == "!":
                    # with no path resolvers, a quoted scalar is a str
                    if event.implicit[0]:
                        value = plain.get(node, _NO_KEY)
                        if value is _NO_KEY:
                            value = plain[node] = _construct(
                                loader, constructors,
                                resolve(ScalarNode, node, (True, False)), node)
                        node = value
                else:
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
                key = node if node.__class__ is str else _key_text(node)
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


SCALAR, MAPPING, SEQUENCE, ALIAS = ScalarEvent, MappingStartEvent, SequenceStartEvent, AliasEvent


class Node:
    """A node as written, a record of what `splice` reads: its `kind`, the
    class of the event that opens it; its `value`, a scalar's text, a
    sequence's items, a mapping's keys and values in turn, or the node an
    alias (a node of its own, at its `*name`) names; `anchor` as written
    (an alias's: the name it names); `start`, `end` and `column` as PyYAML's
    composer marks them; `flow`; `style` (falsy if plain); and `key`, the
    text a mapping key or an anchored scalar loads to as a key in
    `_load_yaml`'s tree (`_Unbuilt` for a merge key), an alias's target's,
    else None. An `empty` plain scalar's marks sit at the next token; a
    `block` node is a block collection or a literal or folded scalar."""

    __slots__ = ("kind", "value", "anchor", "start", "end", "column", "flow", "style", "key")

    def __init__(self, kind: type, value: Any, anchor: str | None, start: int, end: int,
                 column: int, flow: bool, style: str | None, key: Any) -> None:
        self.kind, self.value, self.anchor, self.start, self.end = kind, value, anchor, start, end
        self.column, self.flow, self.style, self.key = column, flow, style, key

    empty = property(lambda self: self.kind is SCALAR and self.start == self.end)
    block = property(lambda self: self.style in ("|", ">") if self.kind is SCALAR
                     else self.kind is not ALIAS and not self.flow)


def source_nodes(text: str) -> Node:
    """The node tree of `text`'s document, which `_load_yaml` has read,
    from the events of the parser it picks, or the pure one's on a libyaml
    error. Raises yaml.YAMLError, or _TooDeep past the depth bound."""
    if _libyaml_reads(text):
        # libyaml's marks do not count a leading BOM (the only one here); a
        # line break in its place keeps every offset, column and node
        try:
            return _nodes_from_events(_FastLoader(text.replace("\ufeff", "\n", 1)))
        except yaml.YAMLError:
            pass
    return _nodes_from_events(_PureLoader(text))


def _nodes_from_events(loader: Any) -> Node:
    """The tree of nodes `yaml.compose` would build from the loader's
    events, but with each alias a node of its own. No node keeps an event.
    A key's text is read as `_tree_from_events` reads it, a plain one's
    once per text."""
    get_event = loader.get_event
    plain: dict[str, Any] = {}  # a plain scalar's text -> its key
    anchors: dict[str, Node] = {}
    stack: list[Node] = []  # the open collections
    items = top = []  # the open collection's children, or the root
    append = items.append
    in_mapping = False  # whether the open collection is a mapping
    try:
        get_event()  # StreamStartEvent
        get_event()  # DocumentStartEvent
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent:
                text, anchor, mark = event.value, event.anchor, event.start_mark
                key = None
                if anchor is not None or (in_mapping and not len(items) % 2):
                    tag = event.tag
                    if tag is not None and tag != "!":
                        key = _key(loader, tag, text)
                    elif not event.implicit[0]:
                        key = text  # quoted: a str
                    elif (key := plain.get(text)) is None:
                        key = plain[text] = _key(loader, None, text)
                append(node := Node(SCALAR, text, anchor, mark.index, event.end_mark.index,
                                    mark.column, False, event.style, key))
                if anchor is not None:
                    anchors[anchor] = node
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                stack.pop().end = event.end_mark.index
                items = stack[-1].value if stack else top
                append = items.append
                in_mapping = bool(stack) and stack[-1].kind is MAPPING
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                mark = event.start_mark
                append(node := Node(kind, [], event.anchor, mark.index, mark.index,
                                    mark.column, bool(event.flow_style), None, None))
                if event.anchor is not None:
                    anchors[event.anchor] = node
                stack.append(node)
                if len(stack) > _LIBYAML_MAX_DEPTH:
                    raise _TooDeep
                items = node.value
                append = items.append
                in_mapping = kind is MappingStartEvent
            elif kind is AliasEvent:
                target = anchors.get(event.anchor)
                if target is None:
                    raise yaml.YAMLError(f"found undefined alias {event.anchor!r}")
                mark = event.start_mark
                append(Node(ALIAS, target, event.anchor, mark.index, event.end_mark.index,
                            mark.column, False, None, target.key))
            else:  # DocumentEndEvent
                return top[0]
    finally:
        loader.dispose()


def _key(loader: Any, tag: str | None, text: str) -> Any:
    """The text the scalar `text` under `tag` (None: plain) loads to as a
    key, or `_Unbuilt` for one `_tree_from_events` leaves to PyYAML (a
    merge key)."""
    tag = tag or loader.resolve(ScalarNode, text, (True, False))
    try:
        return _key_text(_construct(loader, loader.yaml_constructors, tag, text))
    except _Unbuilt:
        return _Unbuilt
