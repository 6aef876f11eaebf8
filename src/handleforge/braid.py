"""Words in the braid group on a fixed number of strands.

Letters are the standard generators s1 .. s(N-1) and their inverses
(written S1 .. S(N-1) in the text format).  Everything downstream treats a
word as a value: all operations return new words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .kernels import _TABLES
from .errors import IntegerTooLong, read_int


class DegreeMismatch(ValueError):
    """Two words that should live on the same number of strands do not."""


def _check(degree: int, letters: tuple[int, ...]) -> None:
    """The refusals of every BraidWord: a degree that is not an integer or
    is below 2, a letter that is not an integer of +-1 .. +-(degree-1) by
    value.

    For an int degree whose tables are built (kernels._TABLES), one lookup
    in its legal-letter set accepts the letters; anything else goes through
    the full check.
    """
    if type(degree) is int and degree > 1:
        # the kernels keep tables for int degrees below 2 too; no word has one
        tables = _TABLES.get(degree)
        try:
            if tables is not None and tables[0].issuperset(letters):
                return
        except TypeError:  # an unhashable letter: the full check names it
            pass
    elif kernels.degree_index(degree) < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    kernels.check_letters(letters, degree)


@dataclass(frozen=True, slots=True)
class BraidWord:
    degree: int  # number of strands, at least 2
    letters: tuple[int, ...] = ()  # +i for si, -i for Si

    def __post_init__(self) -> None:
        _check(self.degree, self.letters)

    @classmethod
    def from_signed(cls, degree: int, values: Iterable[int]) -> BraidWord:
        """Build a word from signed integers: +i for si, -i for Si.

        The value is built here, as the frozen __init__ would build it,
        without that call and its __post_init__ call.
        """
        letters = tuple(values)
        _check(degree, letters)
        word = _new(cls)
        _set_degree(word, degree)
        _set_letters(word, letters)
        return word

    def signed(self) -> tuple[int, ...]:
        return self.letters

    def inverse(self) -> BraidWord:
        return BraidWord(self.degree, tuple(-v for v in reversed(self.letters)))

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot multiply words of degree {self.degree} and {other.degree}"
            )
        return BraidWord(self.degree, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters


# the slot descriptors set a frozen word's fields past its __setattr__,
# cheaper than object.__setattr__ by name
_new = object.__new__
_set_degree = BraidWord.__dict__["degree"].__set__
_set_letters = BraidWord.__dict__["letters"].__set__

_LETTER_RE = re.compile(r"^([sS])(.+)$")


def parse_word(text: str, degree: int) -> BraidWord:
    """Parse the whitespace-separated letter format; "e" is the empty word."""
    stripped = text.strip()
    if stripped == "e":
        return BraidWord(degree, ())
    letters = []
    for token in stripped.split():
        m = _LETTER_RE.match(token)
        try:
            index = read_int(m.group(2)) if m else 0
        except IntegerTooLong:
            raise
        except ValueError:
            index = 0
        if not index:
            raise ValueError(f"bad braid letter {token!r}")
        letters.append(index if m.group(1) == "s" else -index)
    return BraidWord(degree, tuple(letters))


def format_word(word: BraidWord) -> str:
    if not word.letters:
        return "e"
    # int(): a letter accepted by value (True, 1.0) is written as its integer
    return " ".join(f"s{v}" if v > 0 else f"S{-v}" for v in map(int, word.letters))


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    return BraidWord(word.degree, tuple(kernels.free_cancel(word.letters)))


def permutation_of(word: BraidWord) -> tuple[int, ...]:
    """Image of each strand under the word, as a 1-based tuple.

    Letters act left to right (kernels.strand_permutation).
    """
    return tuple(kernels.strand_permutation(word.letters, word.degree)[1:])


def reduce_far_commutation(word: BraidWord) -> BraidWord:
    """Normal form under free cancellation plus far commutation.

    Letters whose indices differ by at least 2 commute; bubble each such pair
    into ascending index order, re-reducing freely, until a fixed point.
    """
    vals = kernels.free_cancel(word.letters)
    changed = True
    while changed:
        changed = False
        for t in range(len(vals) - 1):
            a, b = vals[t], vals[t + 1]
            if abs(abs(a) - abs(b)) >= 2 and abs(a) > abs(b):
                vals[t], vals[t + 1] = b, a
                changed = True
        if changed:
            vals = kernels.free_cancel(vals)
    return BraidWord(word.degree, tuple(vals))


def is_identity(word: BraidWord) -> bool:
    """Exact triviality test (kernels.dehornoy_trivial): up to degree
    kernels.TABLE_DEGREE, a walk of the step table that also checks the
    letters, then the exponent sum, then handle reduction."""
    # called through the module attribute, so that a replaced
    # kernels.dehornoy_trivial (a timing wrapper) is the one that runs
    return kernels.dehornoy_trivial(word.letters, word.degree)


def conjugate(word: BraidWord, by: BraidWord) -> BraidWord:
    """Freely reduced conjugate by * word * by^-1."""
    if word.degree != by.degree:
        raise DegreeMismatch(
            f"cannot conjugate across degrees {word.degree} and {by.degree}"
        )
    return free_reduce(by * word * by.inverse())


def oracle_is_identity(
    word: BraidWord,
    excursion_cap: int | None = None,
    max_states: int = 2_000_000,
) -> bool:
    """Independent triviality check by bounded rewriting search.

    Explores the component of the word under free cancellation/insertion,
    far commutation swaps, and length-preserving 3-letter relator rewrites,
    never letting intermediate words exceed excursion_cap letters.  Sound for
    any cap (all moves preserve the group element); completeness grows with
    the cap.  Raises BudgetExceeded once more than max_states words are seen.
    """
    reduced = free_reduce(word)
    if reduced.is_empty:
        return True
    cap = excursion_cap if excursion_cap is not None else len(reduced) + 4
    return kernels.word_reaches_identity(reduced.letters, reduced.degree, cap, max_states)
