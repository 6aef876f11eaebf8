"""Failure types shared across the package, positioned parse errors and
exhausted search budgets, and the readers of every text line and of every
integer and sign token."""

from __future__ import annotations


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class TokenError(ValueError):
    """A bad token of a text line, by its index in the line's split(); each
    format's reader raises it as the ParseError `at` the token's column."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index

    def at(self, line: int, raw: str) -> ParseError:
        """The ParseError at line `line`, text `raw`, where the token starts."""
        rest = raw.split(None, self.index)[-1]  # the text from the token on
        return ParseError(line, len(raw) - len(rest) + 1, str(self))


def read_lines(text: str):
    """(line number, line, line.split()) of each line of text that is not blank."""
    for line, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if toks:
            yield line, raw, toks


def read_token(read, index: int, text: str, prefix: str = ""):
    """read(text) of token `index`, its ValueError raised as a TokenError."""
    try:
        return read(text)
    except ValueError as exc:
        raise TokenError(index, prefix + str(exc)) from None


class IntegerTooLong(ValueError):
    """An integer token past int()'s digit limit; every reader passes it on
    where it refuses other bad tokens with a message of its own."""


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
            raise IntegerTooLong(f"an integer of {len(tok)} digits is too long") from None
    body = tok[1:]
    if signed and tok[:1] == "-" and body.isascii() and body.isdecimal() and body.strip("0"):
        return -read_int(body)
    raise ValueError(f"expected an integer, got {tok!r}")


def read_header_ints(m, line: int, raw: str, expected: str) -> list[int]:
    """read_int of groups 1 and 2 of m, the match of a file's header line
    `line`, text `raw`, in which they spell the values of tokens 1 and 2.
    A too-long integer is the ParseError at its token; any other refusal,
    or no match (m is None), is ParseError(line, 1, expected)."""
    values = []
    for i in (1, 2):
        try:
            values.append(read_int(m[i] if m else ""))
        except IntegerTooLong as exc:
            raise TokenError(i, str(exc)).at(line, raw) from None
        except ValueError:
            raise ParseError(line, 1, expected) from None
    return values


def read_ints(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list, each read by read_int."""
    return tuple(map(read_int, text.split(",")))


def read_sign(tok: str) -> int:
    """1 for the token '+', -1 for '-'; any other token raises ValueError."""
    if tok in ("+", "-"):
        return 1 if tok == "+" else -1
    raise ValueError(f"expected + or -, got {tok!r}")


def sign_text(sign: int) -> str:
    """The token of a sign: '+' when positive, '-' otherwise."""
    return "+" if sign > 0 else "-"
