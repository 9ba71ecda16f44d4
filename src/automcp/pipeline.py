"""End-to-end compilation: spec file in, manifest + env bindings out."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .compiler import ToolManifest, compile_manifest
from .errors import nesting_guard
from .ingest import RawDocument, load_document, normalize, operations, resolve_base_url
from .refs import FlattenedContract, flatten, validate
from .security import EnvBinding, build_env_map, declared_schemes, extract_security

if TYPE_CHECKING:
    from .doctor import FixReport, VendorRule


@dataclass
class CompiledApi:
    raw: RawDocument
    contract: FlattenedContract
    manifest: ToolManifest
    bindings: list[EnvBinding]
    env_template: str
    fix_report: FixReport | None = None


@nesting_guard()
def compile_file(
    path: str | Path,
    fix: bool = False,
    rules: list[VendorRule] | None = None,
) -> CompiledApi:
    """Load, (optionally) repair, flatten, normalize, validate, and
    compile one spec file. `$ref`s are inlined first, so normalization
    sees none; with `fix`, the fix loop's last contract is compiled.
    The repair code (`doctor`, `splice`) is imported only with `fix`.

    Raises ParseError/DialectError, BaseUrlError, SchemeError,
    NestingError or FatalValidationError on defects that block
    compilation.
    """
    raw = load_document(path)
    fix_report = None
    if fix:
        fix_report = fix_loop(raw, rules)
        raw = fix_report.document

    base_url = resolve_base_url(raw)
    declared_schemes(raw.tree, raw.dialect)  # a SchemeError names the source's pointer
    if fix:  # the fix loop's last lint pass read the repaired document's contract
        contract = fix_report.contract
    else:
        contract = flatten(raw.tree)
        contract.tree = normalize(contract)
    validate(contract)

    schemes = extract_security(contract)
    manifest = compile_manifest(contract, schemes, base_url=base_url)
    bindings, env_template = build_env_map(schemes, manifest.api_title)
    return CompiledApi(
        raw=raw,
        contract=contract,
        manifest=manifest,
        bindings=bindings,
        env_template=env_template,
        fix_report=fix_report,
    )


def fix_loop(raw: RawDocument, rules: list[VendorRule] | None) -> FixReport:
    """`doctor.fix_loop`, imported on first call. `compile_file` looks it
    up here at call time, so a caller may rebind it in this module."""
    from .doctor import fix_loop

    return fix_loop(raw, rules)


def count_operations(tree: dict) -> int:
    """Operation count straight off a parsed document; usable even when
    compilation fails (for failure-rate denominators)."""
    return sum(1 for _ in operations(tree))
