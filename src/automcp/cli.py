"""Command-line entry points: generate, serve, lint, sample.

Exit codes: 0 success, 1 parse/dialect error, 2 validation error,
3 I/O error, 4 lint findings remain. Under `serve`, stdout carries
protocol messages only; every diagnostic goes to stderr.

Each `cmd_*` imports the modules that only it runs, so start-up pays
for one command: `generate` on a JSON spec loads no HTTP client or
server, no YAML parser, no repair code and no `logging`. `serve` loads
no repair code, and no HTTP client until its first `tools/call`.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from ._version import __version__
from .errors import (
    AutoMcpError,
    DialectError,
    NonConvergence,
    ParseError,
    nesting_guard,
)
from .jsonout import dumps
from .pipeline import compile_file
from .sampling import DEFAULT_THRESHOLD, sample

if TYPE_CHECKING:
    from .doctor import FixReport, VendorRule

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_FINDINGS = 4

ENV_PREFIX = "AUTOMCP_"


def main(argv: list[str] | None = None) -> int:
    cfg = _parse_args(argv if argv is not None else sys.argv[1:])
    handlers = {
        "generate": cmd_generate,
        "serve": cmd_serve,
        "lint": cmd_lint,
        "sample": cmd_sample,
    }
    try:
        with nesting_guard():
            return handlers[cfg.subcommand](cfg)
    except (ParseError, DialectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except AutoMcpError as exc:
        prefix = f"class {exc.lint_class}: " if exc.lint_class else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="automcp",
        description="Compile OpenAPI contracts into runnable MCP servers.",
    )
    parser.add_argument("--version", action="version", version=f"automcp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, rules: bool = False) -> None:
        p.add_argument("spec", type=Path, help="OpenAPI 2.0/3.x spec file")
        if rules:  # read only by lint and repair
            p.add_argument("--rules", type=Path, default=_env("RULES"),
                           help="vendor rules JSON (class C/D knowledge)")

    gen = sub.add_parser("generate", help="compile and write server artifacts")
    add_common(gen, rules=True)
    gen.add_argument("--out", type=Path, required=True, help="output directory")
    gen.add_argument("--fix", action="store_true",
                     help="repair patchable spec defects before compiling")
    gen.add_argument("--emit-stub", action="store_true",
                     help="also write the self-describing manifest for external codegen")
    gen.add_argument("--port", type=int, default=_env("PORT", 8765),
                     help="OAuth redirect port recorded in oauth_config.json")

    srv = sub.add_parser("serve", help="serve the compiled tools over stdio")
    add_common(srv)
    srv.add_argument("--env", type=Path,
                     default=_env("ENV_PATH", ".env"),
                     help="path to the .env credential store")
    srv.add_argument("--timeout", type=float,
                     default=_env("TIMEOUT_SECONDS", 30.0),
                     help="upstream HTTP timeout in seconds")

    ln = sub.add_parser("lint", help="detect and optionally repair spec defects")
    add_common(ln, rules=True)
    ln.add_argument("--fix", action="store_true", help="write a repaired copy + diff")
    ln.add_argument("--out", type=Path, default=None,
                    help="directory for repaired output (default: spec directory)")

    smp = sub.add_parser("sample", help="print the stratified evaluation sample")
    add_common(smp)
    smp.add_argument("--threshold", type=int,
                     default=_env("THRESHOLD", DEFAULT_THRESHOLD),
                     help="max endpoint count evaluated exhaustively")

    return parser.parse_args(argv)


def _env(name: str, default=None):
    """Flag default: the text of `AUTOMCP_<name>` when set and non-empty,
    which the flag's `type` converts as it would the flag's own value (a
    bad one is a usage error, exit 2, for the command that has the flag)."""
    return os.environ.get(ENV_PREFIX + name) or default


def cmd_generate(cfg: argparse.Namespace) -> int:
    from .compiler import manifest_to_dict
    from .security import KIND_OAUTH2

    rules = _load_rules(cfg.rules)
    compiled = compile_file(cfg.spec, fix=cfg.fix, rules=rules)
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)

    if compiled.fix_report and compiled.fix_report.changed:
        repaired, _ = _write_repair(compiled.fix_report, cfg.spec, out)
        print(f"repaired spec written to {repaired}", file=sys.stderr)

    (out / "manifest.json").write_text(
        dumps(manifest_to_dict(compiled.manifest), indent=2) + "\n", encoding="utf-8"
    )
    if cfg.emit_stub:
        (out / "stub.json").write_text(
            dumps(manifest_to_dict(compiled.manifest, include_bindings=True), indent=2)
            + "\n",
            encoding="utf-8",
        )

    env_file = out / ".env"
    if env_file.exists():
        print(f"{env_file} already exists; leaving it untouched", file=sys.stderr)
    else:
        # a lone surrogate in the title goes out as a `\u` escape
        env_file.write_text(compiled.env_template, encoding="utf-8",
                            errors="backslashreplace")

    slug = compiled.manifest.api_title.lower().replace(" ", "-") or "api"
    launch = {
        "mcpServers": {
            slug: {
                "command": "python",
                "args": [
                    "-m",
                    "automcp",
                    "serve",
                    str(cfg.spec.resolve()),
                    "--env",
                    str(env_file.resolve()),
                ],
            }
        }
    }
    (out / "mcp_config.json").write_text(dumps(launch, indent=2) + "\n", encoding="utf-8")

    oauth_schemes = [s for s in compiled.manifest.schemes if s.kind == KIND_OAUTH2]
    if oauth_schemes:
        scheme = oauth_schemes[0]
        binding = next(b for b in compiled.bindings if b.scheme_id == scheme.id)
        oauth_doc = {
            "scheme": scheme.id,
            "authorizationUrl": scheme.flows.authorization_url,
            "tokenUrl": scheme.flows.token_url,
            "scopes": scheme.flows.scopes,
            "envVar": binding.env_var,
            "redirectPort": cfg.port,
            "envPath": str(env_file.resolve()),
        }
        (out / "oauth_config.json").write_text(
            dumps(oauth_doc, indent=2) + "\n", encoding="utf-8"
        )

    print(
        f"{compiled.manifest.api_title}: {len(compiled.manifest.tools)} tools -> {out}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_serve(cfg: argparse.Namespace) -> int:
    import logging  # only `runtime` logs

    from .envfile import load_env
    from .runtime import serve

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    compiled = compile_file(cfg.spec)
    serve(compiled.manifest, load_env(cfg.env), timeout=cfg.timeout)
    return EXIT_OK


def cmd_lint(cfg: argparse.Namespace) -> int:
    from .doctor import fix_loop, lint
    from .ingest import load_document, normalize
    from .refs import flatten

    rules = _load_rules(cfg.rules)
    raw = load_document(cfg.spec)

    if cfg.fix:
        report = fix_loop(raw, rules)
        out_dir = cfg.out or cfg.spec.parent
        payload = report.to_dict()
        repaired_count = sum(report.findings_by_class.values())
        payload["summary"] = (
            f"{repaired_count} findings repaired, "
            f"{len(report.residual_advisories)} advisories"
        )
        if report.changed:
            repaired, diff_file = _write_repair(report, cfg.spec, out_dir)
            payload["repaired_spec"] = str(repaired)
            payload["diff_file"] = str(diff_file)
        print(dumps(payload, indent=2))
        return _lint_exit(report.residual_advisories)

    contract = flatten(raw.tree)
    contract.tree = normalize(contract)
    findings = lint(contract, raw, rules)
    payload = {
        "summary": f"{len(findings)} findings",
        "findings": [f.to_dict() for f in findings],
        "counts_by_class": dict(Counter(f.lint_class for f in findings)),
        "clean": not findings,
    }
    print(dumps(payload, indent=2))
    return _lint_exit(findings)


def _load_rules(path: Path | None) -> list[VendorRule] | None:
    """The vendor rules `--rules` names; None without the flag."""
    if path is None:
        return None
    from .doctor import load_vendor_rules

    return load_vendor_rules(path)


def _write_repair(report: FixReport, spec: Path, out_dir: Path) -> tuple[Path, Path]:
    """Write the repaired spec and its diff into `out_dir`; their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    repaired = out_dir / f"{spec.stem}.fixed{spec.suffix}"
    repaired.write_text(report.text, encoding="utf-8")
    diff_file = out_dir / f"{spec.stem}.patch.diff"
    diff_file.write_text(report.diff + "\n", encoding="utf-8")
    return repaired, diff_file


def _lint_exit(findings: list) -> int:
    """4 while a finding other than a class C advisory remains (a class C
    fix lives in the server's `.env`, not in the contract)."""
    return EXIT_FINDINGS if any(f.lint_class != "C" for f in findings) else EXIT_OK


def cmd_sample(cfg: argparse.Namespace) -> int:
    compiled = compile_file(cfg.spec)
    report = sample(compiled.manifest, threshold=cfg.threshold)
    print(dumps(report.to_dict(), indent=2))
    return EXIT_OK
