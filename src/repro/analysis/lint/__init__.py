"""``repro.analysis.lint``: the determinism & contract linter.

A custom AST-based static-analysis pass (stdlib ``ast`` only) that lifts
this repo's reproducibility invariants — seeded randomness, no wall-clock
reads, no hash-order leaks, no silently swallowed faults, typed trace
events, no mutable defaults — into checks that run before any test does.
One fixed rule pack applies to every file it is given, and any finding
fails the run.  Driven by ``repro lint`` (see ``docs/static-analysis.md``).
"""

from repro.analysis.lint.engine import (
    LintReport,
    LintUsageError,
    collect_files,
    lint_paths,
    lint_source,
)
from repro.analysis.lint.findings import Finding, sort_findings
from repro.analysis.lint.report import (
    explain_rule,
    format_json,
    format_text,
    rule_pack_lines,
    version_stamp,
)
from repro.analysis.lint.rules import REGISTRY, RULE_PACK_VERSION, RULES

__all__ = [
    "Finding",
    "LintReport",
    "LintUsageError",
    "REGISTRY",
    "RULES",
    "RULE_PACK_VERSION",
    "collect_files",
    "explain_rule",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
    "rule_pack_lines",
    "sort_findings",
    "version_stamp",
]
