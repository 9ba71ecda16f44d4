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
Either way `splice.unified_diff` writes the diff, from the changed runs
that the changed-line counts come from.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .compiler import operation_auth
from .errors import BaseUrlError, NonConvergence, ParseError, PointerError, SchemeError
from .ingest import DIALECT_2_0, FORMAT_JSON, HTTP_URL, RawDocument, api_title, mapping
from .ingest import normalize, operations, resolve_base_url, sequence, swagger_scheme
from .ingest import text
from .jsonout import dumps
from .refs import FlattenedContract, escape_token, flatten, pointer_segments
from .sampling import path_group
from .security import SecurityScheme, declared_schemes, parse_scheme

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
    """Set `value` at `pointer` (`#/...`): a mapping key, present or not,
    or an existing sequence item; a last token of `-` appends to a
    sequence. Every parent on the pointer exists."""

    pointer: str
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
            "`base_url` must be an absolute http(s) URL or null":
                body.get("base_url") is None or isinstance(body["base_url"], str)
                and bool(HTTP_URL.match(body["base_url"])),
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
    (original-dialect) document, not the normalized view. Classes A and E
    judge the schemes the compiler reads: `contract`'s, by `parse_scheme`,
    and each operation's auth as the compiler reads it, in one walk of
    `operation_auth`."""
    matched_rules = _matching_rules(rules, api_title(raw.tree))
    try:
        container_ptr, declared = declared_schemes(raw.tree, raw.dialect)
        _, judged = declared_schemes(contract.tree)
    except SchemeError as exc:  # no patch: nothing says what was meant
        findings = [LintFinding("A", exc.pointer, str(exc))]
    else:
        findings = _lint_auth(contract, raw, matched_rules, container_ptr, declared,
                              judged)
    findings.extend(_lint_class_b(raw, matched_rules))
    findings.extend(_lint_class_c(matched_rules))
    findings.extend(_lint_class_d(raw, matched_rules))
    findings.sort(key=lambda f: (f.lint_class, f.location))
    return findings


def _lint_auth(contract: FlattenedContract, raw: RawDocument, rules: list[VendorRule],
               container_ptr: str, declared: dict, judged: dict) -> list[LintFinding]:
    """Classes A and E. `declared` holds the raw document's scheme
    declarations, at `container_ptr`, and `judged` the contract's. Class
    A: each of `judged` that `parse_scheme` rejects, and each operation's
    first undeclared scheme, with no patch: nothing says how that
    credential is sent. Class E: the other operations' auth, in sibling
    groups."""
    parsed: dict[str, SecurityScheme | SchemeError] = {}
    findings = []
    for scheme_id, node in judged.items():
        try:
            parsed[scheme_id] = parse_scheme(scheme_id, node)
        except SchemeError as exc:
            parsed[scheme_id] = exc
            ptr = f"{container_ptr}/{escape_token(scheme_id)}"
            location, edits = _scheme_repair(raw, ptr, mapping(declared, scheme_id), rules)
            findings.append(LintFinding("A", location, str(exc), edits))
    undeclared: set[str] = set()
    groups: dict[str, list[tuple[str, str, list[dict], bool]]] = {}
    for path, method, op, _, auth in operation_auth(contract.tree, parsed):
        if isinstance(auth, SchemeError):
            undeclared.add(str(auth))
        else:
            public = sequence(op, "security", None) == []
            groups.setdefault(path_group(path), []).append((path, method, auth, public))
    findings += [LintFinding("A", container_ptr, m) for m in sorted(undeclared)]
    return findings + _lint_class_e(raw, groups, parsed)


def _scheme_repair(
    raw: RawDocument, ptr: str, node: dict, rules: list[VendorRule]
) -> tuple[str, list[PatchEdit]]:
    """Where to report a scheme the compiler rejects, and the edits to the
    original-dialect node that make it usable. There are none when the
    contract does not say how the credential is sent: an incomplete
    apiKey, an unsupported http scheme, an unknown or missing type, a
    declaration that is not a mapping."""
    if "$ref" in node:
        return ptr, []
    kind = text(node, "type")
    if kind == "oauth2":
        if raw.dialect == DIALECT_2_0:
            return ptr, _oauth2_repair_2_0(ptr, node, rules)
        return _oauth2_repair_3_x(ptr, node, rules)
    if (
        kind != "apiKey"
        and kind.lower() == "apikey"
        and node.get("in")
        and node.get("name")
    ):
        # common casing mistake; the declaration is otherwise complete
        return ptr, [PatchEdit(f"{ptr}/type", "apiKey")]
    return ptr, []


def _oauth2_repair_3_x(
    ptr: str, node: dict, rules: list[VendorRule]
) -> tuple[str, list[PatchEdit]]:
    flows = mapping(node, "flows")
    for name in ("authorizationCode", "clientCredentials"):
        flow = mapping(flows, name, None)
        if flow is not None:  # as `security._parse_flows` picks it
            code = name == "authorizationCode"
            token_url = _derive_token_url(
                text(flow, "authorizationUrl") if code else "", rules)
            return f"{ptr}/flows/{name}", [
                PatchEdit(f"{ptr}/flows/{name}/tokenUrl", token_url)
            ]
    implicit = mapping(flows, "implicit", None)
    if implicit is not None:
        authorization_url = text(implicit, "authorizationUrl")
        migrated = {
            "authorizationUrl": authorization_url,
            "tokenUrl": _derive_token_url(authorization_url, rules),
            "scopes": mapping(implicit, "scopes"),
        }
        return f"{ptr}/flows", [
            PatchEdit(f"{ptr}/flows/authorizationCode", migrated)
        ]
    password = mapping(flows, "password")
    if text(password, "tokenUrl"):
        moved = {"tokenUrl": password["tokenUrl"], "scopes": mapping(password, "scopes")}
        return f"{ptr}/flows", [
            PatchEdit(f"{ptr}/flows/clientCredentials", moved)
        ]
    return f"{ptr}/flows", []


def _oauth2_repair_2_0(
    ptr: str, node: dict, rules: list[VendorRule]
) -> list[PatchEdit]:
    flow = text(node, "flow", "implicit")  # as ingest reads a missing flow
    token_url = _derive_token_url(text(node, "authorizationUrl"), rules)
    add_token_url = [PatchEdit(f"{ptr}/tokenUrl", token_url)]
    if flow in ("accessCode", "application"):
        return add_token_url
    if flow == "password":
        # a password grant needs the user's own password; the client
        # credentials grant exchanges at the same token endpoint
        edits = [PatchEdit(f"{ptr}/flow", "application")]
        return edits if text(node, "tokenUrl") else edits + add_token_url
    if flow == "implicit":
        return [PatchEdit(f"{ptr}/flow", "accessCode")] + add_token_url
    return []


def _derive_token_url(authorization_url: str, rules: list[VendorRule]) -> str:
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
            edits, location = _swagger_base_url_repair(raw, replacement)
        else:
            servers = sequence(raw.tree, "servers")
            if not servers:
                edits = [PatchEdit("#/servers", [{"url": replacement}])]
            elif mapping(servers, 0, None) is None:
                edits = [PatchEdit("#/servers/0", {"url": replacement})]
            else:
                edits = [PatchEdit("#/servers/0/url", replacement)]
            location = "#/servers/0/url"
        return [LintFinding("B", location, str(exc), edits)]


def _swagger_base_url_repair(
    raw: RawDocument, replacement: str
) -> tuple[list[PatchEdit], str]:
    """The edits that give a 2.0 document `replacement`'s base URL, and
    where to report them. `schemes` is replaced when it lists no http(s)
    scheme, and `host` only when it is still wrong after that: `host`
    gets the URL's host and port, and `basePath` its path when that
    differs (a URL with no path keeps `basePath`)."""
    scheme, host, path = HTTP_URL.match(replacement).groups()
    edits = []
    tree = raw.tree
    if swagger_scheme(tree) not in ("http", "https"):
        edits.append(PatchEdit("#/schemes", [scheme]))
        tree = {**tree, "schemes": [scheme]}
    try:
        resolve_base_url(dataclasses.replace(raw, tree=tree))
    except BaseUrlError:
        edits.append(PatchEdit("#/host", host))
        if path.rstrip("/") not in ("", text(tree, "basePath")):
            edits.append(PatchEdit("#/basePath", path.rstrip("/")))
    return edits, edits[0].pointer


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
    paths = mapping(raw.tree, "paths")
    holders = [
        (mapping(paths, path), f"#/paths/{escape_token(path)}") for path in paths
    ] + [
        (op, f"#/paths/{escape_token(path)}/{method}")
        for path, _, method, op in operations(raw.tree)
    ]
    # pointers index the raw list, entries that are not mappings included
    params = [
        (param, f"{holder_ptr}/parameters/{i}")
        for holder, holder_ptr in holders
        for i, param in enumerate(sequence(holder, "parameters"))
    ]
    # each reusable definition once, at its own pointer, however many
    # operations `$ref` it
    shared, shared_ptr = ((raw.tree, "#") if raw.dialect == DIALECT_2_0
                          else (mapping(raw.tree, "components"), "#/components"))
    reusable = mapping(shared, "parameters")
    params += [(reusable[name], f"{shared_ptr}/parameters/{escape_token(name)}")
               for name in reusable]
    findings = [_check_path_param_type(param, ptr, override_names)
                for param, ptr in params if text(param, "in") == "path"]
    return [finding for finding in findings if finding]


def _check_path_param_type(
    param: dict, ptr: str, override_names: set[str]
) -> LintFinding | None:
    name = text(param, "name")
    # the type the compiler reads: the schema's whenever there is one
    schema = mapping(param, "schema") if "schema" in param else None
    declared = (param if schema is None else schema).get("type")
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
        [PatchEdit(type_ptr, "string")],
    )


def _lint_class_e(raw: RawDocument, groups: dict[str, list[tuple]],
                  parsed: dict) -> list[LintFinding]:
    """Operations with no auth among siblings that have some. `groups`
    holds (path, method, auth, public) for each operation whose auth the
    compiler reads, by `path_group`; `security: []` marks one public.
    `parsed` holds the compiler's reading of each declared scheme (a
    SchemeError when it rejects one). There is no edit where the raw
    document has no such operation."""
    raw_paths = mapping(raw.tree, "paths")
    findings: list[LintFinding] = []
    for group, ops in groups.items():
        scheme_id = next((next(iter(requirement)) for _, _, security, _ in ops
                          for requirement in security if requirement), None)
        for path, method, security, public in ops:
            if scheme_id is None or security or public:
                continue
            op_ptr = f"#/paths/{escape_token(path)}/{method}"
            raw_op = mapping(mapping(raw_paths, path), method, None)
            message = (f"{method.upper()} {path} has no auth requirement while sibling "
                       f"operations under /{group} require scheme {scheme_id!r}")
            edits = _class_e_edits(raw, raw_op, op_ptr, scheme_id, parsed[scheme_id])
            findings.append(LintFinding("E", op_ptr, message, edits))
    return findings


def _class_e_edits(raw: RawDocument, op: dict | None, op_ptr: str, scheme_id: str,
                   scheme: SecurityScheme | SchemeError) -> list[PatchEdit]:
    """The edits that make the raw operation `op` send the scheme: its
    parameter for a query apiKey, else a `security` requirement."""
    if op is None:
        return []
    if isinstance(scheme, SecurityScheme) and scheme.location == "query":
        entry: dict = {"name": scheme.parameter_name, "in": "query", "required": True}
        if raw.dialect == DIALECT_2_0:
            entry["type"] = "string"
        else:
            entry["schema"] = {"type": "string"}
        if sequence(op, "parameters", None) is not None:
            return [PatchEdit(f"{op_ptr}/parameters/-", entry)]
        return [PatchEdit(f"{op_ptr}/parameters", [entry])]
    return [PatchEdit(f"{op_ptr}/security", [{scheme_id: []}])]


# -- patching ------------------------------------------------------------------


def apply_patch(raw: RawDocument, edits: list[PatchEdit]) -> RawDocument:
    """A copy of `raw` with the edits applied, each setting the value at
    its pointer or appending at `-`, and no source text. Only the root and
    the containers along each edit's pointer are copied: `raw` is
    untouched, and an edit under a YAML alias changes only its own node.
    Raises PointerError for a pointer the tree does not hold."""
    tree = dict(raw.tree)
    copied = {id(tree)}  # containers this call made, safe to change
    for edit in edits:
        _apply_edit(tree, edit, copied)
    return dataclasses.replace(raw, tree=tree, text=None)


def render_document(tree: dict, fmt: str) -> str:
    if fmt == FORMAT_JSON:
        return dumps(tree, indent=2) + "\n"
    import yaml

    return yaml.safe_dump(tree, sort_keys=False, allow_unicode=True)


def _apply_edit(tree: dict, edit: PatchEdit, copied: set[int]) -> None:
    """Apply one edit, first copying each container on its pointer not in
    `copied`. Raises PointerError when the tree has no such place: a
    missing key or item on the way, a bad index or a scalar parent."""
    try:
        *path, leaf = pointer_segments(edit.pointer)
        parent = tree
        for segment in path:
            key = int(segment) if isinstance(parent, list) and segment.isdecimal() else segment
            child = parent[key]
            if isinstance(child, (dict, list)) and id(child) not in copied:
                child = parent[key] = type(child)(child)
                copied.add(id(child))
            parent = child
        if isinstance(parent, list) and leaf == "-":
            parent.append(edit.value)
        else:
            key = int(leaf) if isinstance(parent, list) and leaf.isdecimal() else leaf
            parent[key] = edit.value
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise PointerError(edit.pointer, "the document has no such place") from exc


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
    rendered canonically instead and diffed whole, by the one
    `difflib.SequenceMatcher` that `difflib.unified_diff` would run, so the
    changed lines are those the diff shows. The report says so in
    `whole_document_render`, and shares the changed lines out among the
    classes by their edits.

    Raises NonConvergence when patchable findings remain after
    MAX_FIX_ITERATIONS iterations.
    """
    from .splice import SourceText, Unplaceable, unified_diff

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
        import difflib

        report.whole_document_render = True
        report.text = render_document(report.document.tree, raw.format)
        before = render_document(raw.tree, raw.format).splitlines()
        after = report.text.splitlines()
        # the matcher `difflib.unified_diff` runs; a changed run counts its longer side
        blocks = [(i1, i2, j1, j2) for tag, i1, i2, j1, j2
                  in difflib.SequenceMatcher(None, before, after).get_opcodes()
                  if tag != "equal"]
        report.diff = unified_diff(before, after, blocks, name, f"{name} (patched)")
        report.loc_changed_by_class = _apportion(
            sum(max(i2 - i1, j2 - j1) for i1, i2, j1, j2 in blocks), edits_by_class
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
