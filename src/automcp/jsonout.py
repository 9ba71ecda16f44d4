"""JSON text for every line and file automcp writes, all of them UTF-8."""

from __future__ import annotations

import json


def dumps(value: object, indent: int | None = None) -> str:
    """`json.dumps(value, indent=indent, ensure_ascii=False)`, unless that
    text holds a lone surrogate (valid JSON, RFC 8259 §8.2), which UTF-8
    cannot encode: then the same value with every non-ASCII character as
    a `\\u` escape."""
    text = json.dumps(value, indent=indent, ensure_ascii=False)
    if encodes(text):
        return text
    return json.dumps(value, indent=indent)


def encodes(text: str, codec: str = "utf-8") -> bool:
    """Whether `text` encodes in `codec`; as UTF-8, whether it holds no
    lone surrogate."""
    try:
        text.encode(codec)
    except UnicodeEncodeError:
        return False
    return True
