#!/usr/bin/env python3
"""Write the benchmark's generated spec with class E gaps.

Usage: python scripts/gap_spec.py OUT N FORMAT...

The spec is perfbench/specgen.py's `crud_spec(1, N)` with no
document-level `security`, and with each bearer resource's `delete`
stripped of the `security` its siblings declare, so that `lint --fix`
adds it back. Each FORMAT (`json`, `yaml`) writes one file to the
directory OUT: `generated<N>-gaps.json`, indented by two spaces, or
`generated<N>-gaps.yaml`, in specgen's block style.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from specgen import crud_spec, to_yaml  # noqa: E402


def main(argv: list[str]) -> int:
    out, ops, formats = Path(argv[1]), int(argv[2]), argv[3:]
    crud = crud_spec(1, ops)
    del crud["security"]
    for item in crud["paths"].values():
        if "security" in item.get("delete", {}):
            del item["delete"]["security"]
    writers = {"json": lambda tree: json.dumps(tree, indent=2), "yaml": to_yaml}
    out.mkdir(parents=True, exist_ok=True)
    for fmt in formats:
        (out / f"generated{ops}-gaps.{fmt}").write_text(writers[fmt](crud), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
