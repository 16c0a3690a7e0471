"""Source positions and diagnostics shared by the parsers and analyses."""

from __future__ import annotations

from typing import NamedTuple


class SourcePos(NamedTuple):
    """A 1-based line and column in a named file."""

    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class SourceDiagnostic(NamedTuple):
    """One error or warning, printed as ``file:line:col: severity[code]: message``."""

    severity: str  # "error" or "warning"
    code: str
    message: str
    pos: SourcePos | None = None

    def format(self) -> str:
        where = str(self.pos) if self.pos else "<unknown>:0:0"
        return f"{where}: {self.severity}[{self.code}]: {self.message}"


def error(code: str, message: str, pos: SourcePos | None = None) -> SourceDiagnostic:
    return SourceDiagnostic("error", code, message, pos)


def warning(code: str, message: str, pos: SourcePos | None = None) -> SourceDiagnostic:
    return SourceDiagnostic("warning", code, message, pos)


def has_errors(diags) -> bool:
    return any(d.severity == "error" for d in diags)
