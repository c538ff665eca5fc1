"""Lint findings: the one value every rule produces."""

from __future__ import annotations

from dataclasses import dataclass


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
    """Human-readable description."""

    def to_dict(self) -> dict:
        """JSON-report shape (see ``docs/static-analysis.md``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line text format: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def sort_findings(findings) -> list[Finding]:
    """Stable report order: path, then line, then column, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
