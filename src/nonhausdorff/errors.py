"""Exceptions and the structured validation report shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass, field


class NonHausdorffError(Exception):
    """Base class for library errors."""


class PreconditionError(NonHausdorffError):
    """An operation was called on input that violates its stated hypotheses."""


class InvariantError(PreconditionError):
    """An identity that every valid input satisfies failed to hold.

    Raised where the code cross-checks one computation against another, so
    the check survives ``python -O``; reaching it means the input bypassed a
    hypothesis that is not checked up front (e.g. a hand-built, incompatible
    global cochain, or a triangle too close to degenerate for the float
    budget).
    """


class IncompatibleCochainError(NonHausdorffError):
    """Per-piece cochains disagree on a shared cell and cannot be assembled."""

    def __init__(self, left: tuple[int, str], right: tuple[int, str], message: str):
        super().__init__(message)
        self.left = left
        self.right = right


class SchemaError(NonHausdorffError):
    """A document does not conform to the repository JSON schema."""


@dataclass(frozen=True)
class ValidationIssue:
    rule: str
    location: str
    message: str

    def render(self) -> str:
        return f"[{self.rule}] {self.location}: {self.message}"


@dataclass
class ValidationReport:
    """Accumulates invariant violations; an empty report means 'valid'."""

    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, rule: str, location: str, message: str) -> None:
        self.issues.append(ValidationIssue(rule, location, message))

    def merge(self, other: "ValidationReport", prefix: str = "") -> None:
        for issue in other.issues:
            location = f"{prefix}{issue.location}" if prefix else issue.location
            self.issues.append(ValidationIssue(issue.rule, location, issue.message))

    def render(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(issue.render() for issue in self.issues)

    def require(self, context: str) -> None:
        """Raise PreconditionError if the report is not clean."""
        if not self.ok:
            first = self.issues[0].render()
            raise PreconditionError(
                f"{context}: validation failed ({len(self.issues)} issue(s)); first: {first}"
            )
