"""Failure types shared across the package, positioned parse errors and
exhausted search budgets, and the reader of every integer and sign token."""

from __future__ import annotations


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class BudgetExceeded(RuntimeError):
    """A search reached its state budget before it could answer."""


def read_int(tok: str, signed: bool = False) -> int:
    """The integer a token spells: ASCII digits, leading zeros read, and,
    only where signed, a leading '-' before a nonzero value.  Any other
    token raises ValueError."""
    if tok.isascii() and tok.isdecimal():
        try:
            return int(tok)
        except ValueError:  # past int()'s digit limit
            raise ValueError(f"an integer of {len(tok)} digits is too long") from None
    body = tok[1:]
    if signed and tok[:1] == "-" and body.isascii() and body.isdecimal() and body.strip("0"):
        return -read_int(body)
    raise ValueError(f"expected an integer, got {tok!r}")


def read_sign(tok: str) -> int:
    """1 for the token '+', -1 for '-'; any other token raises ValueError."""
    if tok in ("+", "-"):
        return 1 if tok == "+" else -1
    raise ValueError(f"expected + or -, got {tok!r}")


def sign_text(sign: int) -> str:
    """The token of a sign: '+' when positive, '-' otherwise."""
    return "+" if sign > 0 else "-"
