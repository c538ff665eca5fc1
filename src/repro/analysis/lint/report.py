"""Rendering: lint reports as terminal text, JSON, and ``--explain`` pages."""

from __future__ import annotations

import json
import textwrap

from repro.analysis.lint.engine import LintReport
from repro.analysis.lint.rules import REGISTRY, RULE_PACK_VERSION


def version_stamp() -> str:
    """The one-line rule-pack identity used by ``repro lint --version``."""
    return f"repro lint rule-pack v{RULE_PACK_VERSION} ({len(REGISTRY)} rules)"


def rule_pack_lines() -> list[str]:
    """The stamped rule listing printed by ``repro lint --version``."""
    lines = [version_stamp()]
    for rule_id in sorted(REGISTRY):
        lines.append(f"  {rule_id}  {REGISTRY[rule_id].title}")
    return lines


def explain_rule(rule_id: str) -> str:
    """The ``--explain RULE`` page; raises ``KeyError`` on unknown ids."""
    rule = REGISTRY[rule_id]
    body = textwrap.dedent(rule.explain).strip()
    return f"{rule.id} — {rule.title}\n\n{body}\n"


def format_text(report: LintReport) -> list[str]:
    """Terminal lines: findings first, then the summary footer."""
    lines = [finding.render() for finding in report.findings]
    lines.append("")
    lines.append(
        f"{report.files} files checked: {len(report.findings)} finding(s)"
    )
    return lines


def format_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2)
