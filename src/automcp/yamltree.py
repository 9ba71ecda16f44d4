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
from yaml import (AliasEvent, DocumentEndEvent, MappingEndEvent, MappingStartEvent,
                  ScalarEvent, ScalarNode, SequenceEndEvent, SequenceStartEvent,
                  StreamEndEvent)

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
    """A node as written: its `kind`, the class of the event that opens it,
    and its `value`, a scalar's text, a sequence's items, a mapping's keys
    and values in turn, or the node an alias (a node of its own, at its
    `*name`) names. The rest is read from its events on use: `tag` and
    `anchor` as written (an alias's `anchor` is the name it names),
    `start`, `end` and `column` as PyYAML's composer marks them,
    `flow`, and `style` (falsy if plain). An `empty` plain scalar's marks
    sit at the next token; a `block` node is a block collection or a
    literal or folded scalar."""

    __slots__ = ("value", "_open", "_close")  # `_close`: a collection's end event

    def __init__(self, value: Any, event: Any) -> None:
        self.value, self._open = value, event

    kind = property(lambda self: self._open.__class__)
    tag = property(lambda self: getattr(self._open, "tag", None))
    anchor = property(lambda self: self._open.anchor)
    start = property(lambda self: self._open.start_mark.index)
    end = property(lambda self: getattr(self, "_close", self._open).end_mark.index)
    column = property(lambda self: self._open.start_mark.column)
    flow = property(lambda self: bool(getattr(self._open, "flow_style", False)))
    style = property(lambda self: getattr(self._open, "style", None))
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
    events, but with each alias a node of its own."""
    get_event = loader.get_event
    anchors: dict[str, Node] = {}
    stack: list[Node] = []  # the open collections
    items = top = []  # the open collection's children, or the root
    append = items.append
    try:
        get_event()  # StreamStartEvent
        get_event()  # DocumentStartEvent
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent:
                append(node := Node(event.value, event))
                if event.anchor is not None:
                    anchors[event.anchor] = node
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                stack.pop()._close = event
                items = stack[-1].value if stack else top
                append = items.append
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                append(node := Node([], event))
                if event.anchor is not None:
                    anchors[event.anchor] = node
                stack.append(node)
                if len(stack) > _LIBYAML_MAX_DEPTH:
                    raise _TooDeep
                items = node.value
                append = items.append
            elif kind is AliasEvent:
                if event.anchor not in anchors:
                    raise yaml.YAMLError(f"found undefined alias {event.anchor!r}")
                append(Node(anchors[event.anchor], event))
            else:  # DocumentEndEvent
                return top[0]
    finally:
        loader.dispose()


_KEYS = _PureLoader("")  # resolves and constructs keys for `key_value`


def scalar_tag(node: Node) -> str:
    """The tag a scalar node loads under, resolved as the composer does."""
    event = node._open
    if event.tag is not None and event.tag != "!":
        return event.tag
    return _KEYS.resolve(ScalarNode, event.value, event.implicit)


def key_value(node: Node) -> Any:
    """The text a mapping key node loads to in `_load_yaml`'s tree,
    through an alias; `_Unbuilt` itself for a merge key. (A collection
    key fails the load.)"""
    if node._open.__class__ is ALIAS:  # `kind`, without the property call
        node = node.value
    try:
        return _key_text(_construct(_KEYS, _KEYS.yaml_constructors, scalar_tag(node), node.value))
    except _Unbuilt:
        return _Unbuilt
