"""The package root exports exactly the names README documents."""

from __future__ import annotations

import re
from pathlib import Path

import automcp

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = {
    "__version__",
    "OAuth2Flows",
    "acquire_oauth_token",
    "evaluate_spec_file",
    "load_order_file",
    "load_exclusions_file",
}


def readme_api_names() -> set[str]:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`", section, re.MULTILINE))


def test_all_matches_readme_python_api():
    assert readme_api_names() == DOCUMENTED
    assert set(automcp.__all__) == DOCUMENTED
    for name in automcp.__all__:
        assert getattr(automcp, name) is not None, name
