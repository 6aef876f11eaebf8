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
from .errors import BudgetExceeded


class DegreeMismatch(ValueError):
    """Two words that should live on the same number of strands do not."""


@dataclass(frozen=True)
class BraidLetter:
    index: int  # generator subscript, 1-based
    sign: int  # +1 or -1

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"generator index must be positive, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> BraidLetter:
        return BraidLetter(self.index, -self.sign)


class _LetterCache(dict):
    """One shared BraidLetter per signed value, built on first use."""

    def __missing__(self, value: int) -> BraidLetter:
        letter = BraidLetter(abs(value), 1 if value > 0 else -1)
        self[value] = letter
        return letter


_LETTERS = _LetterCache()


@dataclass(frozen=True)
class BraidWord:
    degree: int  # number of strands, at least 2
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ValueError(f"degree must be at least 2, got {self.degree}")
        for letter in self.letters:
            if letter.index >= self.degree:
                raise ValueError(
                    f"letter index {letter.index} out of range for degree {self.degree}"
                )
        object.__setattr__(
            self, "_signed", tuple(l.index * l.sign for l in self.letters)
        )

    @classmethod
    def from_signed(cls, degree: int, values: Iterable[int]) -> BraidWord:
        """Build a word from signed integers: +i for si, -i for Si."""
        signed = tuple(values)
        letters = tuple(map(_LETTERS.__getitem__, signed))
        if degree < 2 or (signed and max(map(abs, signed)) >= degree):
            return cls(degree, letters)  # the checked constructor raises
        # in range: skip the per-letter checks of __post_init__
        word = object.__new__(cls)
        object.__setattr__(word, "degree", degree)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "_signed", signed)
        return word

    def signed(self) -> tuple[int, ...]:
        return self._signed

    def inverse(self) -> BraidWord:
        return BraidWord(self.degree, tuple(l.inverse() for l in reversed(self.letters)))

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


_LETTER_RE = re.compile(r"^([sS])([1-9][0-9]*)$")


def parse_word(text: str, degree: int) -> BraidWord:
    """Parse the whitespace-separated letter format; "e" is the empty word."""
    stripped = text.strip()
    if stripped == "e":
        return BraidWord(degree, ())
    letters = []
    for token in stripped.split():
        m = _LETTER_RE.match(token)
        if m is None:
            raise ValueError(f"bad braid letter {token!r}")
        index = int(m.group(2))
        if index >= degree:
            raise ValueError(f"letter index {index} out of range for degree {degree}")
        letters.append(BraidLetter(index, 1 if m.group(1) == "s" else -1))
    return BraidWord(degree, tuple(letters))


def format_word(word: BraidWord) -> str:
    if not word.letters:
        return "e"
    return " ".join(
        f"{'s' if l.sign > 0 else 'S'}{l.index}" for l in word.letters
    )


def free_reduce(word: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for v in word.signed():
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return BraidWord.from_signed(word.degree, stack)


def permutation_of(word: BraidWord) -> tuple[int, ...]:
    """Image of each strand under the word, as a 1-based tuple.

    Letters act left to right, so the image of strand x is what the leftmost
    letter sends x to, pushed through the rest of the word.
    """
    n = word.degree
    perm = list(range(n + 1))  # perm[x] = image of x, slot 0 unused
    for letter in word.letters:
        i = letter.index
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm[1:])


def reduce_far_commutation(word: BraidWord) -> BraidWord:
    """Normal form under free cancellation plus far commutation.

    Letters whose indices differ by at least 2 commute; bubble each such pair
    into ascending index order, re-reducing freely, until a fixed point.
    """
    vals = list(free_reduce(word).signed())
    changed = True
    while changed:
        changed = False
        for t in range(len(vals) - 1):
            a, b = vals[t], vals[t + 1]
            if abs(abs(a) - abs(b)) >= 2 and abs(a) > abs(b):
                vals[t], vals[t + 1] = b, a
                changed = True
        if changed:
            reduced = free_reduce(BraidWord.from_signed(word.degree, vals))
            vals = list(reduced.signed())
    return BraidWord.from_signed(word.degree, vals)


def is_identity(word: BraidWord) -> bool:
    """Exact triviality test via handle reduction."""
    return kernels.dehornoy_trivial(word.signed(), word.degree)


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
    try:
        return kernels.word_reaches_identity(
            list(reduced.signed()), reduced.degree, cap, max_states
        )
    except RuntimeError as exc:
        raise BudgetExceeded(str(exc)) from exc
