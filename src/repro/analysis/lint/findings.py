"""Lint findings: the one value every rule produces.

A :class:`Finding` is deliberately line-number-light in its *identity*:
the baseline fingerprint (:meth:`Finding.fingerprint`) is built from
``path``, ``rule``, and ``message`` only, so moving code around a file
does not churn a ratcheting baseline — only genuinely new findings do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    """Posix-style path of the offending file, as handed to the engine."""
    line: int
    """1-based source line."""
    col: int
    """0-based column (``ast`` convention)."""
    rule: str
    """Rule identifier, e.g. ``"DET001"``."""
    message: str
    """Human-readable description; stable across line moves (no line
    numbers inside) so it can serve as a baseline fingerprint part."""
    severity: str = SEVERITY_ERROR
    baselined: bool = field(default=False, compare=False)
    """True when a ratcheting baseline absorbed this finding."""

    def fingerprint(self) -> str:
        """The baseline identity: where + what, but not which line."""
        return f"{self.path}::{self.rule}::{self.message}"

    def as_baselined(self) -> "Finding":
        return replace(self, baselined=True)

    def to_dict(self) -> dict:
        """JSON-report shape (see ``docs/static-analysis.md``)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "baselined": self.baselined,
        }

    def render(self) -> str:
        """The one-line text format: ``path:line:col: RULE message``."""
        tag = " (baselined)" if self.baselined else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"


def sort_findings(findings) -> list[Finding]:
    """Stable report order: path, then line, then column, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
