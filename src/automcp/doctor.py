"""Contract linting and minimal repair for the five defect classes that
break automation:

  A  incorrect or missing security schemes
  B  malformed or relative base URLs
  C  undocumented runtime headers / token prefixes (advisory only)
  D  parameter type mismatches
  E  missing endpoint-level auth

A finding carries its repair as pointer edits ([] when it has none).
`fix_loop` applies them to the tree until nothing patchable is left, and
splices the same edits into the source text (`splice`), so the repaired
copy is the author's file with only the repair changed. The tree-level
result is the oracle: where the spliced text does not read back to it,
or there is no source text, the repaired tree is rendered canonically.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .compiler import requirements
from .errors import BaseUrlError, NonConvergence, ParseError, PointerError, SchemeError
from .ingest import (
    DIALECT_2_0,
    FORMAT_JSON,
    RawDocument,
    normalize,
    operations,
    parameters,
    resolve_base_url,
)
from .refs import FlattenedContract, escape_token, flatten, pointer_segments
from .sampling import path_group
from .security import declared_schemes, parse_scheme
from .splice import SourceText, Unplaceable

CLASS_LABELS = {
    "A": "Incorrect or missing security schemes",
    "B": "Malformed or relative base URLs",
    "C": "Undocumented runtime headers and token prefixes",
    "D": "Parameter type mismatches",
    "E": "Missing endpoint-level auth",
}

MAX_FIX_ITERATIONS = 5
_FALLBACK_BASE_URL = "https://api.example.com"
_ID_NAME_RE = re.compile(r"(^id$|_id$)", re.IGNORECASE)


@dataclass
class PatchEdit:
    pointer: str  # "#/..." JSON pointer
    op: str       # add | replace
    value: Any


@dataclass
class LintFinding:
    lint_class: str
    location: str
    message: str
    edits: list[PatchEdit] = field(default_factory=list)  # [] when unpatchable
    suggested_headers: dict[str, str] | None = None

    def to_dict(self) -> dict:
        doc = {
            "class": self.lint_class,
            "label": CLASS_LABELS[self.lint_class],
            "location": self.location,
            "message": self.message,
            "patchable": bool(self.edits),
        }
        if self.suggested_headers is not None:
            doc["suggested_extra_headers"] = self.suggested_headers
        return doc


@dataclass
class VendorRule:
    title_pattern: str
    required_headers: dict[str, str] = field(default_factory=dict)
    base_url: str | None = None
    token_url: str | None = None
    string_path_params: list[str] = field(default_factory=list)


def load_vendor_rules(path: str | Path) -> list[VendorRule]:
    """Rules file: JSON object mapping an api-title regex to per-vendor
    knowledge (required headers, replacement URLs, known string ids).
    Raises ParseError when the file is not JSON, not such an object, a
    title pattern does not compile, or a field has the wrong type."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: rules file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(b, dict) for b in raw.values()):
        raise ParseError(f"{path}: rules file must map title patterns to objects")
    rules = []
    for pattern, body in raw.items():
        try:
            re.compile(pattern)
        except re.error as exc:
            raise ParseError(
                f"{path}: title pattern {pattern!r} is not a regex: {exc}"
            ) from exc
        headers = body.get("required_headers", {})
        names = body.get("string_path_params", [])
        shape = {  # JSON object keys are strings already
            "`required_headers` must map strings to strings": isinstance(headers, dict)
            and all(isinstance(v, str) for v in headers.values()),
            "`base_url` must be a string or null":
                isinstance(body.get("base_url"), (str, type(None))),
            "`token_url` must be a string or null":
                isinstance(body.get("token_url"), (str, type(None))),
            "`string_path_params` must be a list of strings": isinstance(names, list)
            and all(isinstance(n, str) for n in names),
        }
        for problem, ok in shape.items():
            if not ok:
                raise ParseError(f"{path}: rule {pattern!r}: {problem}")
        rules.append(
            VendorRule(
                title_pattern=pattern,
                required_headers=dict(headers),
                base_url=body.get("base_url"),
                token_url=body.get("token_url"),
                string_path_params=list(names),
            )
        )
    return rules


def _matching_rules(rules: list[VendorRule] | None, title: str) -> list[VendorRule]:
    return [
        r for r in rules or [] if re.search(r.title_pattern, title, re.IGNORECASE)
    ]


# -- lint ----------------------------------------------------------------------


def lint(
    contract: FlattenedContract,
    raw: RawDocument,
    rules: list[VendorRule] | None = None,
) -> list[LintFinding]:
    """Scan for the five defect classes. Patch edits target the raw
    (original-dialect) document, not the normalized view."""
    info = raw.tree.get("info")
    title = str((info.get("title") if isinstance(info, dict) else None) or "")
    matched_rules = _matching_rules(rules, title)
    findings: list[LintFinding] = []
    findings.extend(_lint_class_a(contract, raw, matched_rules))
    findings.extend(_lint_class_b(raw, matched_rules))
    findings.extend(_lint_class_c(matched_rules))
    findings.extend(_lint_class_d(raw, matched_rules))
    findings.extend(_lint_class_e(raw))
    findings.sort(key=lambda f: (f.lint_class, f.location))
    return findings


def _lint_class_a(
    contract: FlattenedContract, raw: RawDocument, rules: list[VendorRule]
) -> list[LintFinding]:
    findings: list[LintFinding] = []
    try:
        container_ptr, declared = declared_schemes(raw.tree, raw.dialect)
        # judge the nodes the compiler reads: 3.x shaped, `$ref`s resolved
        _, judged = declared_schemes(contract.tree)
    except SchemeError as exc:  # no patch: nothing says what was meant
        return [LintFinding("A", exc.pointer, str(exc))]

    # each operation's first undeclared scheme, as the compiler resolves
    # requirements; no patch: nothing says how that credential is sent
    doc_security = contract.tree.get("security") or []
    undeclared: set[str] = set()
    for _, _, _, op in operations(contract.tree):
        try:
            requirements(op, doc_security, judged)
        except SchemeError as exc:
            undeclared.add(str(exc))
    findings.extend(LintFinding("A", container_ptr, m) for m in sorted(undeclared))

    for scheme_id, node in judged.items():
        try:
            parse_scheme(scheme_id, node)
        except SchemeError as exc:
            ptr = f"{container_ptr}/{escape_token(scheme_id)}"
            location, edits = _scheme_repair(raw, ptr, declared.get(scheme_id), rules)
            findings.append(
                LintFinding("A", location, str(exc), edits)
            )
    return findings


def _scheme_repair(
    raw: RawDocument, ptr: str, node: Any, rules: list[VendorRule]
) -> tuple[str, list[PatchEdit]]:
    """Where to report a scheme the compiler rejects, and the edits to the
    original-dialect node that make it usable. There are none when the
    contract does not say how the credential is sent: an incomplete
    apiKey, an unsupported http scheme, an unknown or missing type."""
    if not isinstance(node, dict) or "$ref" in node:
        return ptr, []
    kind = node.get("type")
    if kind == "oauth2":
        if raw.dialect == DIALECT_2_0:
            return ptr, _oauth2_repair_2_0(ptr, node, rules)
        return _oauth2_repair_3_x(ptr, node, rules)
    if (
        isinstance(kind, str)
        and kind != "apiKey"
        and kind.lower() == "apikey"
        and node.get("in")
        and node.get("name")
    ):
        # common casing mistake; the declaration is otherwise complete
        return ptr, [PatchEdit(f"{ptr}/type", "replace", "apiKey")]
    return ptr, []


def _oauth2_repair_3_x(
    ptr: str, node: dict, rules: list[VendorRule]
) -> tuple[str, list[PatchEdit]]:
    flows = node.get("flows")
    flows = flows if isinstance(flows, dict) else {}
    code_flow = flows.get("authorizationCode")
    if isinstance(code_flow, dict):
        token_url = _derive_token_url(code_flow.get("authorizationUrl"), rules)
        return f"{ptr}/flows/authorizationCode", [
            PatchEdit(f"{ptr}/flows/authorizationCode/tokenUrl", "add", token_url)
        ]
    if isinstance(flows.get("clientCredentials"), dict):
        token_url = _derive_token_url(None, rules)
        return f"{ptr}/flows/clientCredentials", [
            PatchEdit(f"{ptr}/flows/clientCredentials/tokenUrl", "add", token_url)
        ]
    implicit = flows.get("implicit")
    if isinstance(implicit, dict):
        migrated = {
            "authorizationUrl": implicit.get("authorizationUrl", ""),
            "tokenUrl": _derive_token_url(implicit.get("authorizationUrl"), rules),
            "scopes": implicit.get("scopes", {}),
        }
        return f"{ptr}/flows", [
            PatchEdit(f"{ptr}/flows/authorizationCode", "add", migrated)
        ]
    password = flows.get("password")
    if isinstance(password, dict) and password.get("tokenUrl"):
        moved = {"tokenUrl": password["tokenUrl"], "scopes": password.get("scopes", {})}
        return f"{ptr}/flows", [
            PatchEdit(f"{ptr}/flows/clientCredentials", "add", moved)
        ]
    return f"{ptr}/flows", []


def _oauth2_repair_2_0(
    ptr: str, node: dict, rules: list[VendorRule]
) -> list[PatchEdit]:
    flow = node.get("flow", "implicit")  # as ingest reads a missing flow
    token_url = _derive_token_url(node.get("authorizationUrl"), rules)
    add_token_url = [PatchEdit(f"{ptr}/tokenUrl", "add", token_url)]
    if flow in ("accessCode", "application"):
        return add_token_url
    if flow == "password":
        # a password grant needs the user's own password; the client
        # credentials grant exchanges at the same token endpoint
        edits = [PatchEdit(f"{ptr}/flow", "replace", "application")]
        return edits if node.get("tokenUrl") else edits + add_token_url
    if flow == "implicit":
        return [PatchEdit(f"{ptr}/flow", "add", "accessCode")] + add_token_url
    return []


def _derive_token_url(authorization_url: str | None, rules: list[VendorRule]) -> str:
    for rule in rules:
        if rule.token_url:
            return rule.token_url
    if authorization_url:
        if "/authorize" in authorization_url:
            return re.sub(r"/authorize\b", "/token", authorization_url)
        return authorization_url.rstrip("/") + "/token"
    return _FALLBACK_BASE_URL + "/oauth/token"


def _lint_class_b(raw: RawDocument, rules: list[VendorRule]) -> list[LintFinding]:
    try:
        resolve_base_url(raw)
        return []
    except BaseUrlError as exc:
        replacement = next((r.base_url for r in rules if r.base_url), None)
        replacement = replacement or _FALLBACK_BASE_URL
        if raw.dialect == DIALECT_2_0:
            host = re.sub(r"^https?://", "", replacement).rstrip("/")
            edits = [PatchEdit("#/host", "add", host)]
            location = "#/host"
        else:
            servers = raw.tree.get("servers")
            if not isinstance(servers, list) or not servers:
                edits = [PatchEdit("#/servers", "add", [{"url": replacement}])]
            elif isinstance(servers[0], dict) and isinstance(
                servers[0].get("variables") or {}, dict
            ):
                edits = [PatchEdit("#/servers/0/url", "add", replacement)]
            else:  # servers[0], or its `variables`, is not a mapping
                edits = [PatchEdit("#/servers/0", "replace", {"url": replacement})]
            location = "#/servers/0/url"
        return [LintFinding("B", location, str(exc), edits)]


def _lint_class_c(rules: list[VendorRule]) -> list[LintFinding]:
    findings = []
    for rule in rules:
        if not rule.required_headers:
            continue
        suggestion = json.dumps(rule.required_headers, ensure_ascii=False)
        findings.append(
            LintFinding(
                "C",
                "#/info/title",
                "vendor requires runtime headers not declared in the contract; "
                f"set EXTRA_HEADERS={suggestion} in the server .env",
                suggested_headers=dict(rule.required_headers),
            )
        )
    return findings


def _lint_class_d(raw: RawDocument, rules: list[VendorRule]) -> list[LintFinding]:
    override_names = {
        name for rule in rules for name in rule.string_path_params
    }
    paths = raw.tree.get("paths")
    holders = [
        (item, f"#/paths/{escape_token(path)}")
        for path, item in (paths.items() if isinstance(paths, dict) else ())
        if isinstance(item, dict)
    ] + [
        (op, f"#/paths/{escape_token(path)}/{method}")
        for path, _, method, op in operations(raw.tree)
    ]
    findings: list[LintFinding] = []
    for holder, holder_ptr in holders:
        params = holder.get("parameters")
        # pointers index the raw list, entries that are not mappings included
        for i, param in enumerate(params if isinstance(params, list) else []):
            if not isinstance(param, dict) or param.get("in") != "path":
                continue
            finding = _check_path_param_type(
                param, f"{holder_ptr}/parameters/{i}", override_names
            )
            if finding:
                findings.append(finding)
    return findings


def _check_path_param_type(
    param: dict, ptr: str, override_names: set[str]
) -> LintFinding | None:
    name = str(param.get("name", ""))
    schema = param.get("schema") if isinstance(param.get("schema"), dict) else None
    declared = (schema or param).get("type")
    if declared not in ("integer", "number"):
        return None
    example = param.get("example", (schema or {}).get("example"))
    looks_like_string_id = (
        _ID_NAME_RE.search(name) and isinstance(example, str)
    ) or name in override_names
    if not looks_like_string_id:
        return None
    type_ptr = f"{ptr}/schema/type" if schema is not None else f"{ptr}/type"
    return LintFinding(
        "D",
        type_ptr,
        f"path parameter {name!r} is typed {declared} but callers pass string "
        f"identifiers",
        [PatchEdit(type_ptr, "replace", "string")],
    )


def _lint_class_e(raw: RawDocument) -> list[LintFinding]:
    try:
        _, declared = declared_schemes(raw.tree, raw.dialect)
    except SchemeError:
        return []  # class A reports it
    if not declared:
        return []
    doc_security = raw.tree.get("security") or []
    api_key_params = {
        (str(node.get("name")), str(node.get("in"))): scheme_id
        for scheme_id, node in declared.items()
        if isinstance(node, dict) and node.get("type") == "apiKey"
    }

    groups: dict[str, list[tuple[str, str, dict, bool, str | None]]] = {}
    for path, item, method, op in operations(raw.tree):
        covered, scheme_id = _op_coverage(
            op, parameters(item), doc_security, api_key_params
        )
        groups.setdefault(path_group(path), []).append(
            (path, method, op, covered, scheme_id)
        )

    findings: list[LintFinding] = []
    for group, ops in groups.items():
        covered = [entry for entry in ops if entry[3]]
        uncovered = [entry for entry in ops if not entry[3]]
        scheme_id = next((e[4] for e in covered if e[4]), None)
        if not covered or not uncovered or scheme_id is None:
            continue
        scheme = declared.get(scheme_id) or {}
        for path, method, op, _, _ in uncovered:
            op_ptr = f"#/paths/{escape_token(path)}/{method}"
            findings.append(
                _class_e_finding(raw, op_ptr, path, method, op, scheme_id, scheme, group)
            )
    return findings


def _op_coverage(
    op: dict,
    path_level_params: list[dict],
    doc_security: list,
    api_key_params: dict,
) -> tuple[bool, str | None]:
    """(is the operation covered, id of the scheme protecting it).

    An explicit empty `security: []` counts as covered: the author
    deliberately marked the operation public. A `security` value that is
    not a list is read as absent, as the compiler reads it.
    """
    explicit = isinstance(op.get("security"), list)
    security = op["security"] if explicit else doc_security
    for requirement in security or []:
        if isinstance(requirement, dict) and requirement:
            return True, next(iter(requirement))
    if explicit and security == []:
        return True, None
    for param in parameters(op) + path_level_params:
        scheme_id = api_key_params.get((str(param.get("name")), str(param.get("in"))))
        if scheme_id:
            return True, scheme_id
    if not explicit and doc_security:
        return True, None
    return False, None


def _class_e_finding(
    raw: RawDocument,
    op_ptr: str,
    path: str,
    method: str,
    op: dict,
    scheme_id: str,
    scheme: dict,
    group: str,
) -> LintFinding:
    message = (
        f"{method.upper()} {path} has no auth requirement while sibling "
        f"operations under /{group} require scheme {scheme_id!r}"
    )
    if scheme.get("type") == "apiKey" and scheme.get("in") == "query":
        entry: dict = {
            "name": scheme.get("name", scheme_id),
            "in": "query",
            "required": True,
        }
        if raw.dialect == DIALECT_2_0:
            entry["type"] = "string"
        else:
            entry["schema"] = {"type": "string"}
        if isinstance(op.get("parameters"), list):
            edits = [PatchEdit(f"{op_ptr}/parameters/-", "add", entry)]
        else:
            edits = [PatchEdit(f"{op_ptr}/parameters", "add", [entry])]
    else:
        edits = [PatchEdit(f"{op_ptr}/security", "add", [{scheme_id: []}])]
    return LintFinding("E", op_ptr, message, edits)


# -- patching ------------------------------------------------------------------


def apply_patch(raw: RawDocument, edits: list[PatchEdit]) -> RawDocument:
    """A copy of `raw` with the edits applied and no source text. Only the
    root and the containers along each edit's pointer are copied: `raw` is
    untouched, and an edit under a YAML alias changes only its own node."""
    tree = dict(raw.tree)
    copied = {id(tree)}  # containers this call made, safe to change
    for edit in edits:
        _apply_edit(tree, edit, copied)
    return dataclasses.replace(raw, tree=tree, text=None)


def render_document(tree: dict, fmt: str) -> str:
    if fmt == FORMAT_JSON:
        return json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
    return yaml.safe_dump(tree, sort_keys=False, allow_unicode=True)


def _apply_edit(tree: dict, edit: PatchEdit, copied: set[int]) -> None:
    """Apply one edit, first copying each container on its pointer not in `copied`."""
    if not edit.pointer.startswith("#"):
        raise PointerError(edit.pointer, "pointer must start with '#'")
    segments = pointer_segments(edit.pointer)
    if not segments:
        raise PointerError(edit.pointer, "cannot edit the document root")
    parent = tree
    for segment in segments[:-1]:
        if isinstance(parent, dict):
            if segment not in parent:
                if edit.op != "add":
                    raise PointerError(edit.pointer, f"missing segment {segment!r}")
                parent[segment] = {}
            key = segment
        elif isinstance(parent, list):
            if not segment.isdigit() or int(segment) >= len(parent):
                raise PointerError(edit.pointer, f"bad list index {segment!r}")
            key = int(segment)
        else:
            raise PointerError(edit.pointer, f"segment {segment!r} is a scalar")
        child = parent[key]
        if isinstance(child, (dict, list)) and id(child) not in copied:
            child = parent[key] = type(child)(child)
            copied.add(id(child))
        parent = child

    leaf = segments[-1]
    if isinstance(parent, dict):
        if edit.op == "replace" and leaf not in parent:
            raise PointerError(edit.pointer, f"nothing to replace at {leaf!r}")
        parent[leaf] = edit.value
    elif isinstance(parent, list):
        if leaf == "-":
            parent.append(edit.value)
        elif leaf.isdigit() and int(leaf) <= len(parent):
            if edit.op == "replace":
                if int(leaf) >= len(parent):
                    raise PointerError(edit.pointer, "index out of range")
                parent[int(leaf)] = edit.value
            else:
                parent.insert(int(leaf), edit.value)
        else:
            raise PointerError(edit.pointer, f"bad list index {leaf!r}")
    else:
        raise PointerError(edit.pointer, "parent is a scalar")


def _unified_diff(before: str, after: str, name: str) -> str:
    lines = difflib.unified_diff(
        before.splitlines(),
        after.splitlines(),
        fromfile=name,
        tofile=f"{name} (patched)",
        lineterm="",
    )
    return "\n".join(lines)


def _count_changed_lines(before: str, after: str) -> int:
    """Lines touched by the patch: a replacement counts once, pure
    insertions and deletions count per line."""
    matcher = difflib.SequenceMatcher(
        a=before.splitlines(), b=after.splitlines(), autojunk=False
    )
    changed = 0
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "replace":
            changed += max(i2 - i1, j2 - j1)
        elif op == "delete":
            changed += i2 - i1
        elif op == "insert":
            changed += j2 - j1
    return changed


# -- fix loop ------------------------------------------------------------------


@dataclass
class FixReport:
    document: RawDocument
    # `document` flattened and normalized, as the last lint pass read it
    contract: FlattenedContract | None = None
    iterations: int = 0
    findings_by_class: dict[str, int] = field(default_factory=dict)
    loc_changed_by_class: dict[str, int] = field(default_factory=dict)
    total_loc_changed: int = 0
    # every finding left without a patch, class C advisories included
    residual_advisories: list[LintFinding] = field(default_factory=list)
    diff: str = ""  # from the original text to `text`
    text: str = ""  # the repaired document
    # `text` is a canonical rendering of the repaired tree, not the source
    # text with the edits spliced in
    whole_document_render: bool = False

    @property
    def changed(self) -> bool:
        return self.iterations > 0

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "changed": self.changed,
            "findings_by_class": self.findings_by_class,
            "loc_changed_by_class": self.loc_changed_by_class,
            "total_loc_changed": self.total_loc_changed,
            "whole_document_render": self.whole_document_render,
            "residual_advisories": [f.to_dict() for f in self.residual_advisories],
        }


def fix_loop(raw: RawDocument, rules: list[VendorRule] | None = None) -> FixReport:
    """lint -> patch -> re-lint until nothing patchable remains.

    Each iteration's edits go to the tree (`apply_patch`) and into the
    source text at their nodes. The text, its diff from the original and
    the changed lines per class come from those splices. When an edit has
    no place in the text, the text does not read back to the patched tree,
    or the document has no text, the original and repaired trees are
    rendered canonically instead and diffed whole; the report says so in
    `whole_document_render`, and shares the changed lines out among the
    classes by their edits.

    Raises NonConvergence when patchable findings remain after
    MAX_FIX_ITERATIONS iterations.
    """
    report = FixReport(document=raw)
    source = SourceText(raw.text, raw.format) if raw.text is not None else None
    edits_by_class: dict[str, int] = {}
    while True:
        doc = report.document
        report.contract = flatten(doc.tree)
        report.contract.tree = normalize(report.contract)
        findings = lint(report.contract, doc, rules)
        patchable = [f for f in findings if f.edits]
        report.residual_advisories = [f for f in findings if not f.edits]
        if not patchable:
            break
        if report.iterations >= MAX_FIX_ITERATIONS:
            raise NonConvergence(
                f"{len(patchable)} patchable finding(s) remain after "
                f"{MAX_FIX_ITERATIONS} iterations"
            )
        report.iterations += 1
        for f in patchable:
            cls = f.lint_class
            report.findings_by_class[cls] = report.findings_by_class.get(cls, 0) + 1
            edits_by_class[cls] = edits_by_class.get(cls, 0) + len(f.edits)
        edits = [(f.lint_class, e) for f in patchable for e in f.edits]
        report.document = apply_patch(doc, [e for _, e in edits])
        if source is not None:
            try:
                source.splice(edits)
            except Unplaceable:
                source = None

    if not report.changed:
        return report
    name = raw.source_path.name
    if source is not None and source.loads_to(report.document.tree):
        report.text = source.text
        report.diff = source.unified_diff(name, f"{name} (patched)")
        report.loc_changed_by_class = dict.fromkeys(edits_by_class, 0)
        report.loc_changed_by_class.update(source.changed_lines_by_class())
    else:
        report.whole_document_render = True
        before = render_document(raw.tree, raw.format)
        report.text = render_document(report.document.tree, raw.format)
        report.diff = _unified_diff(before, report.text, name)
        report.loc_changed_by_class = _apportion(
            _count_changed_lines(before, report.text), edits_by_class
        )
    report.total_loc_changed = sum(report.loc_changed_by_class.values())
    report.document = dataclasses.replace(report.document, text=report.text)
    return report


def _apportion(total: int, weights: dict[str, int]) -> dict[str, int]:
    """`total` shared out in proportion to `weights` by largest remainder,
    so that the shares sum to `total`."""
    whole = sum(weights.values())
    shares = {key: total * weight // whole for key, weight in weights.items()}
    by_remainder = sorted(weights, key=lambda key: -(total * weights[key] % whole))
    for key in by_remainder[:total - sum(shares.values())]:
        shares[key] += 1
    return shares
