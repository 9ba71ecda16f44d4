"""The package root exports exactly the names README documents, each
loaded from its submodule on first access."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_fresh(code: str) -> None:
    """Run `code` in a new interpreter, where nothing is imported yet."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(DOCUMENTED))
def test_each_export_imports_in_a_fresh_interpreter(name):
    run_fresh(f"from automcp import {name}; assert {name} is not None")


def test_unknown_attribute_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'automcp' has no attribute 'nonexistent'"):
        automcp.nonexistent


def test_dir_lists_every_export_before_its_first_access():
    run_fresh("import automcp; assert set(automcp.__all__) <= set(dir(automcp))")
