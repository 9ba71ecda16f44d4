"""Place pointer edits in a spec's source text, so that a repaired copy
keeps the author's comments, key order and quoting.

`SourceText.splice` reads the current text's nodes once, from the parse
events of the loader `ingest` reads YAML with (`yamltree.source_nodes`;
JSON is YAML's flow style), finds each edit's node and changes only that
node's text: it replaces a value's span, adds a mapping entry or appends
a sequence item; a replaced value that aliases name first moves, its
`&name` included, to the first of them. A new value is written on one
line: as JSON in a JSON document, and otherwise as YAML, in flow style
where it is a collection.
Each line of the text remembers the original line it still is, or the
lint class whose edit wrote it; the changed-line counts and the unified
diff come from that record, not from diffing the whole text.
`unified_diff` is the one hunk writer: `doctor.fix_loop`'s whole-document
fallback passes it a `difflib.SequenceMatcher`'s changed runs instead.

An edit with no safe place raises `Unplaceable`. The caller keeps the
tree-level edit as the oracle: it loads the spliced text and renders the
whole document instead when the two trees differ. So a layout the
splice does not read (an entry after a `? key`, an item below its `-`,
a pair in a flow sequence with no braces) needs no check here: the text
it misplaces fails the oracle.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from typing import TYPE_CHECKING, NamedTuple

import yaml

from .ingest import FORMAT_JSON, load_text
from .refs import pointer_segments
from .yamltree import ALIAS, MAPPING, SCALAR, SEQUENCE, Node, _TooDeep, _Unbuilt, source_nodes

if TYPE_CHECKING:
    from .doctor import PatchEdit

# the line breaks of str.splitlines, which the line counts use
_BREAK_RE = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# characters JSON may hold raw but YAML may not, or reads as line breaks;
# they occur only inside strings, where JSON escapes them
_JSON_ESCAPE_RE = re.compile("[\x7f-\x9f\u2028\u2029\ufffe\uffff]")
_DIFF_CONTEXT = 3


class Unplaceable(Exception):
    """An edit that has no safe place in the text."""


_Splice = NamedTuple("_Splice", [("start", int), ("end", int), ("text", str),
                                 ("lint_class", str)])


class SourceText:
    """A document's text under repair, with per-line provenance."""

    def __init__(self, text: str, fmt: str) -> None:
        self.original = text
        self.text = text
        self.format = fmt
        self._original_lines = len(text.splitlines())
        # per current line: the original line index it still is, or the
        # lint class whose edit wrote it
        self._origin: list[int | str] = list(range(self._original_lines))
        self._removed: dict[int, str] = {}  # original line -> class that removed it

    def splice(self, edits: list[tuple[str, PatchEdit]]) -> None:
        """Place one iteration's (lint class, edit) pairs, all located in
        the current text. Raises Unplaceable, leaving the text as it was,
        when one of them cannot be placed."""
        try:
            root = source_nodes(self.text)
        except (yaml.YAMLError, _TooDeep) as exc:
            raise Unplaceable(f"text does not compose: {exc}") from exc
        splices = sorted((s for cls, edit in edits for s in self._place(root, edit, cls)),
                         key=lambda s: (s.start, s.end))
        for before, after in zip(splices, splices[1:]):
            if after.start < before.end:
                raise Unplaceable("two edits overlap")
        self._apply(splices)

    def loads_to(self, tree: dict) -> bool:
        """Whether the text reads, as `ingest` reads it, to `tree`."""
        try:
            return load_text(self.text, self.format) == tree
        except (ValueError, yaml.YAMLError):
            return False

    # -- placing one edit ---------------------------------------------------

    def _place(self, root: Node, edit: PatchEdit, cls: str) -> list[_Splice]:
        *path, leaf = pointer_segments(edit.pointer)
        node = root
        for segment in path:
            node, _ = self._child(node, segment)
            if node is None:
                raise Unplaceable(f"{edit.pointer}: no node at {segment!r}")
        if node.kind is SEQUENCE and leaf == "-":
            return [self._append(node, edit.value, cls)]
        child, key = self._child(node, leaf)
        if child is None:
            return [self._add_entry(node, leaf, edit.value, cls)]
        return [self._replace(node, key, child, edit.value, cls),
                *self._kept_anchor(root, child, cls)]

    def _child(self, node: Node, segment: str) -> tuple[Node | None, Node | None]:
        """(value, key node) under `segment`; (None, None) for a missing
        mapping key, one whose `key` (the text it loads to) is not
        `segment`. The last duplicate wins, as in the loaded tree. An
        alias is refused."""
        if node.kind is SEQUENCE and segment.isdigit() and int(segment) < len(node.value):
            key, value = None, node.value[int(segment)]
        elif node.kind is MAPPING:
            key, value = next(((k, v) for k, v in zip(node.value[-2::-2], node.value[::-2])
                               if k.key == segment), (None, None))
            if key is None and any(k.key is _Unbuilt for k in node.value[::2]):
                raise Unplaceable(f"{segment!r} may come from a merge key")
        else:
            raise Unplaceable(f"no node at {segment!r}")
        if value is not None and value.kind is ALIAS:
            raise Unplaceable(f"{segment!r} is an alias")
        return value, key

    def _replace(self, parent: Node, key: Node | None, node: Node, value: object,
                 cls: str) -> _Splice:
        rendered = self._render(value, parent.flow)
        if node.empty or (not parent.flow and node.block):
            if key is None:
                # a block item starts after its `- `: only its span goes
                return _Splice(node.start, self._content_end(node), rendered, cls)
            # the value moves up onto its key's line
            colon = self._colon_after(key)
            end = colon + 1 if node.empty else self._content_end(node)
            return _Splice(colon + 1, end, " " + rendered, cls)
        return _Splice(node.start, node.end, rendered, cls)

    def _kept_anchor(self, root: Node, node: Node, cls: str) -> list[_Splice]:
        """The replaced node's text, its `&name` included, in place of the
        first alias to it, so that the aliases after it still resolve; []
        when no alias names it. Only a node written on one line moves."""
        if node.anchor is None:
            return []
        aliases, stack = [], [root]
        while stack:
            other = stack.pop()
            if other.kind is ALIAS:
                if other.value is node:
                    aliases.append(other)
            elif other.kind is not SCALAR:
                stack += other.value
        if not aliases:
            return []
        first = min(aliases, key=lambda alias: alias.start)
        moved = self.text[node.start:node.end]
        if first.start < node.end or any(ch in _BREAKS for ch in moved):
            raise Unplaceable("an anchored node that its aliases name")
        return [_Splice(first.start, first.end, moved, cls)]

    def _add_entry(self, mapping: Node, key: str, value: object, cls: str) -> _Splice:
        flow = mapping.flow
        entry = f"{self._render(key, flow)}: {self._render(value, flow)}"
        if flow:
            return self._flow_insert(mapping, entry, cls)
        indent = " " * mapping.value[0].column
        return self._new_line(self._content_end(mapping), indent + entry, cls)

    def _append(self, seq: Node, value: object, cls: str) -> _Splice:
        rendered = self._render(value, seq.flow)
        items = seq.value
        if seq.flow:
            if not items:
                return self._flow_insert(seq, rendered, cls)
            last = items[-1]
            sep = self._separator(seq, items[-2] if len(items) > 1 else None, last)
            return _Splice(last.end, last.end, sep + rendered, cls)
        dash = self._dash(items[0])
        indent = " " * (items[0].column - (items[0].start - dash))
        return self._new_line(self._content_end(seq), indent + "- " + rendered, cls)

    # -- text positions -------------------------------------------------------

    def _content_end(self, node: Node) -> int:
        """Where the node's own text ends. A block collection's end mark
        lies at the next token, past any comments and blank lines, so this
        follows its last entry down to a scalar or a flow collection."""
        while node.block and node.kind is not SCALAR:
            key, node = node.value[-2:] if node.kind is MAPPING else (None, node.value[-1])
            if key is not None and node.empty:
                return self._colon_after(key) + 1
        if node.empty:
            raise Unplaceable("ends in an empty item")
        start, end = node.start, node.end
        if node.kind is SCALAR and node.style in ("|", ">"):
            while end > start and self.text[end - 1] in " \t" + _BREAKS:
                end -= 1
        return end

    def _colon_after(self, key: Node) -> int:
        colon = key.end
        while colon < len(self.text) and self.text[colon] in " \t":
            colon += 1
        if not self.text.startswith(":", colon):
            raise Unplaceable("no `:` after the key")
        return colon

    def _dash(self, item: Node) -> int:
        """The offset of the `-` that opens a block sequence item written on
        its line; for one written below it, a wrong offset, and the text it
        misplaces fails the oracle."""
        dash = item.start - 1
        while dash >= 0 and self.text[dash] == " ":
            dash -= 1
        return dash

    def _new_line(self, content_end: int, line: str, cls: str) -> _Splice:
        """A whole new line after the line where `content_end` falls, which
        is past a node's last character: never at a line's start."""
        match = _BREAK_RE.search(self.text, content_end)
        if match is None:  # the last line, with no break at its end
            return _Splice(len(self.text), len(self.text), "\n" + line, cls)
        return _Splice(match.end(), match.end(), line + "\n", cls)

    def _flow_insert(self, node: Node, text: str, cls: str) -> _Splice:
        """`text` placed first in a flow collection."""
        if not node.value:
            pos = self._opener(node) + 1
            return _Splice(pos, pos, text, cls)
        first = node.value[0]
        return _Splice(first.start, first.start, text + self._separator(node, None, first), cls)

    def _separator(self, node: Node, before: Node | None, item: Node) -> str:
        """`,` plus the layout between `item` and what precedes it in a
        flow collection: a line break and its indentation, or a space."""
        gap_start = before.end if before else self._opener(node) + 1
        if any(ch in _BREAKS for ch in self.text[gap_start:item.start]):
            return ",\n" + " " * item.column
        return ", "

    def _opener(self, node: Node) -> int:
        """The offset of the `{` or `[` that opens a flow collection. A pair
        written in a flow sequence with no braces has none: the offset is
        then a later one, or -1, and the text it misplaces fails the oracle."""
        return self.text.find("{" if node.kind is MAPPING else "[", node.start)

    def _render(self, value: object, flow: bool) -> str:
        """`value` on one line, for a flow or a block context."""
        if self.format == FORMAT_JSON:
            return _JSON_ESCAPE_RE.sub(lambda m: f"\\u{ord(m[0]):04x}",
                                       json.dumps(value, ensure_ascii=False))
        if flow or isinstance(value, (dict, list)):
            rendered = yaml.safe_dump(
                [value], default_flow_style=True, width=math.inf, allow_unicode=True
            )[1:-2]
        else:  # a block context leaves more scalars plain
            rendered = yaml.safe_dump(
                {"k": value}, default_flow_style=False, width=math.inf, allow_unicode=True
            )[3:-1]
        if any(ch in _BREAKS for ch in rendered):
            raise Unplaceable("value renders on several lines")
        return rendered

    # -- applying splices and accounting for lines -----------------------------

    def _apply(self, splices: list[_Splice]) -> None:
        """Apply sorted, non-overlapping splices. Splices that share a line
        form one region; the lines a region leaves as they were at either
        end keep their provenance, and every other line in it is new and
        counts for the class of the region's first splice."""
        text = self.text
        starts = [0] + [m.end() for m in _BREAK_RE.finditer(text)]

        def line_of(pos: int) -> int:
            return bisect_right(starts, pos) - 1

        out: list[str] = []
        origin: list[int | str] = []
        pos = line = i = 0
        while i < len(splices):
            first_line, last_line = line_of(splices[i].start), line_of(splices[i].end)
            j = i + 1
            while j < len(splices) and line_of(splices[j].start) <= last_line:
                last_line = max(last_line, line_of(splices[j].end))
                j += 1
            group, i = splices[i:j], j
            a = starts[first_line]
            b = starts[last_line + 1] if last_line + 1 < len(starts) else len(text)
            pieces, cursor = [], a
            for s in group:
                pieces += [text[cursor:s.start], s.text]
                cursor = s.end
            pieces.append(text[cursor:b])
            region = "".join(pieces)

            old_lines, new_lines = text[a:b].splitlines(), region.splitlines()
            head = 0
            while (head < min(len(old_lines), len(new_lines))
                   and old_lines[head] == new_lines[head]):
                head += 1
            tail = 0
            while (tail < min(len(old_lines), len(new_lines)) - head
                   and old_lines[-1 - tail] == new_lines[-1 - tail]):
                tail += 1
            tags = self._origin[first_line:first_line + len(old_lines)]
            cls = group[0].lint_class
            for tag in tags[head:len(tags) - tail]:
                if isinstance(tag, int):
                    self._removed[tag] = cls
            out += [text[pos:a], region]
            origin += self._origin[line:first_line] + tags[:head]
            origin += [cls] * (len(new_lines) - head - tail) + tags[len(tags) - tail:]
            pos, line = b, first_line + len(old_lines)
        out.append(text[pos:])
        origin += self._origin[line:]
        self.text = "".join(out)
        self._origin = origin

    def _blocks(self) -> list[tuple[int, int, int, int]]:
        """(i1, i2, j1, j2) for each run of original lines i1:i2 that the
        current lines j1:j2 replace; one of the two may be empty."""
        blocks = []
        i = j = 0
        for jj, tag in enumerate([*self._origin, self._original_lines]):
            if isinstance(tag, int):
                if tag > i or jj > j:
                    blocks.append((i, tag, j, jj))
                i, j = tag + 1, jj + 1
        return blocks

    def changed_lines_by_class(self) -> dict[str, int]:
        """Changed lines as a line diff counts them (a replaced run counts
        its longer side, an inserted or deleted run its length), each line
        for the class that wrote it or, where more lines went than came,
        removed it."""
        counts: dict[str, int] = {}
        for i1, i2, j1, j2 in self._blocks():
            added = self._origin[j1:j2]
            removed = [self._removed[i] for i in range(i1, i2)]
            for cls in added if len(added) >= len(removed) else removed:
                counts[cls] = counts.get(cls, 0) + 1
        return counts

    def unified_diff(self, fromfile: str, tofile: str) -> str:
        """The unified diff from the original text to the current one."""
        return unified_diff(self.original.splitlines(), self.text.splitlines(),
                            self._blocks(), fromfile, tofile)


def unified_diff(old: list[str], new: list[str], blocks: list[tuple[int, int, int, int]],
                 fromfile: str, tofile: str) -> str:
    """The unified diff from `old` to `new` whose changed runs are
    `blocks`, (i1, i2, j1, j2) in order, in difflib's format (three lines
    of context, no line terminators): over a `difflib.SequenceMatcher`'s
    non-`equal` opcodes, byte for byte `difflib.unified_diff`."""
    hunks: list[list[tuple[int, int, int, int]]] = []
    for block in blocks:
        if hunks and block[0] - hunks[-1][-1][1] <= 2 * _DIFF_CONTEXT:
            hunks[-1].append(block)
        else:
            hunks.append([block])
    if not hunks:
        return ""
    lines = [f"--- {fromfile}", f"+++ {tofile}"]
    for hunk in hunks:
        i1 = max(0, hunk[0][0] - _DIFF_CONTEXT)
        j1 = hunk[0][2] - (hunk[0][0] - i1)
        i2 = min(len(old), hunk[-1][1] + _DIFF_CONTEXT)
        j2 = hunk[-1][3] + (i2 - hunk[-1][1])
        lines.append(f"@@ -{_hunk_range(i1, i2)} +{_hunk_range(j1, j2)} @@")
        i = i1
        for b_i1, b_i2, b_j1, b_j2 in hunk:
            lines += [" " + line for line in old[i:b_i1]]
            lines += ["-" + line for line in old[b_i1:b_i2]]
            lines += ["+" + line for line in new[b_j1:b_j2]]
            i = b_i2
        lines += [" " + line for line in old[i:i2]]
    return "\n".join(lines)


def _hunk_range(start: int, stop: int) -> str:
    """A unified-diff range, as difflib writes it."""
    length = stop - start
    if length == 1:
        return str(start + 1)
    return f"{start if length == 0 else start + 1},{length}"

