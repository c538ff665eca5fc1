"""The lint engine: files → AST → rules → report.

Per file the engine parses once and runs every AST rule of the pack.
Across files it produces a :class:`LintReport` with stable ordering
(path, line, column, rule), so text and JSON output — and the exit code
— are deterministic for a given tree.  Every finding fails the run.
The linter holds itself to the invariants it checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.lint.findings import Finding, sort_findings
from repro.analysis.lint.rules import (
    AST_RULES,
    REGISTRY,
    RULE_PACK_VERSION,
    SYNTAX_RULE_ID,
    LintContext,
)


class LintUsageError(Exception):
    """Bad invocation (missing or unreadable path): the CLI maps this to
    exit code 2, never to a finding."""


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    paths: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def summary(self) -> dict:
        return {"files": self.files, "findings": len(self.findings)}

    def to_dict(self) -> dict:
        """The ``--out`` JSON document (see docs/static-analysis.md)."""
        return {
            "version": 2,
            "rule_pack_version": RULE_PACK_VERSION,
            "rules": [
                {"id": rule.id, "title": rule.title}
                for rule in REGISTRY.values()
            ],
            "paths": list(self.paths),
            "findings": [f.to_dict() for f in self.findings],
            "summary": self.summary(),
        }


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """All findings for one source blob."""
    path = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(
            path=path, line=error.lineno or 1, col=error.offset or 0,
            rule=SYNTAX_RULE_ID,
            message=f"file does not parse: {error.msg}",
        )]
    context = LintContext(path, tree)
    findings: list[Finding] = []
    for rule in AST_RULES:
        findings.extend(rule.check(context))
    return sort_findings(findings)


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint every ``*.py`` file under ``paths`` with the whole pack."""
    files = collect_files(paths)
    findings: list[Finding] = []
    for file_path, display in files:
        try:
            source = file_path.read_text()
        except OSError as error:
            raise LintUsageError(f"cannot read {display}: {error}")
        findings.extend(lint_source(source, display))
    return LintReport(
        findings=sort_findings(findings),
        files=len(files),
        paths=[str(p) for p in paths],
    )


def collect_files(paths: Sequence[str]) -> list[tuple[Path, str]]:
    """Expand the CLI's path arguments to ``(file, display_path)`` pairs.

    Directories recurse to ``*.py`` in sorted order; a missing path is a
    usage error.  Display paths stay relative to what the caller typed,
    so reports do not depend on the absolute checkout location.
    """
    collected: list[tuple[Path, str]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            collected.append((path, path.as_posix()))
        elif path.is_dir():
            collected.extend(
                (child, child.as_posix())
                for child in sorted(path.rglob("*.py"))
            )
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    return collected
