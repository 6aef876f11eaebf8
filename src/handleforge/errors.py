"""Failure types shared across the package: positioned parse errors and
exhausted search budgets."""

from __future__ import annotations


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class BudgetExceeded(RuntimeError):
    """A search reached its state budget before it could answer."""
