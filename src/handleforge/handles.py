"""Decorated 1-handle systems and their move calculus.

A system is an ordered list of handles, each carrying a free-group label and
two integer decorations (m, n).  Six move families rewrite systems in place
of geometric isotopy; every move is exactly reversible.  The normalizers
reduce systems to canonical shapes and emit replayable traces as proof
objects.  Each move's (m, n) action and integer gate are stated once
(`one_handle_moves`, `two_handle_moves`), both reachability searches run on
`kernels.breadth_first`, and `repeat` emits every run of equal unit moves,
for the normal forms and for the engine's coil.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import Iterable, Union

from . import kernels
from .braid import BraidWord, format_word, parse_word
from .errors import (
    BudgetExceeded, IntegerTooLong, ParseError, TokenError, read_header_ints, read_int, read_lines,
    read_sign, read_token, sign_text,
)


class IndexOutOfRange(ValueError):
    pass


class PreconditionViolated(ValueError):
    def __init__(self, variant: str, reason: str) -> None:
        super().__init__(f"{variant}: {reason}")
        self.variant = variant
        self.reason = reason


class DegenerateAllZero(ValueError):
    pass


class NonTrivialLabel(ValueError):
    pass


class IllegalStep(ValueError):
    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class HandleLabel:
    """Freely reduced word in the free group on handle generators g1..gg."""

    word: tuple[tuple[int, int], ...] = ()  # (generator, sign) pairs

    def __post_init__(self) -> None:
        for g, s in self.word:
            if g < 1:
                raise ValueError(f"generator index must be positive, got {g}")
            if s not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {s}")
        for a, b in zip(self.word, self.word[1:]):
            if a[0] == b[0] and a[1] == -b[1]:
                raise ValueError("label word is not freely reduced")

    @classmethod
    def reduce(cls, word: Iterable[tuple[int, int]]) -> HandleLabel:
        stack: list[tuple[int, int]] = []
        for g, s in word:
            if stack and stack[-1][0] == g and stack[-1][1] == -s:
                stack.pop()
            else:
                stack.append((g, s))
        return cls(tuple(stack))

    @property
    def is_trivial(self) -> bool:
        return not self.word

    @property
    def max_generator(self) -> int:
        return max((g for g, _ in self.word), default=0)

    def inverse(self) -> HandleLabel:
        return HandleLabel(tuple((g, -s) for g, s in reversed(self.word)))

    def __mul__(self, other: HandleLabel) -> HandleLabel:
        return HandleLabel.reduce(self.word + other.word)

    def abelianized(self, generator_count: int) -> tuple[int, ...]:
        counts = [0] * generator_count
        for g, s in self.word:
            counts[g - 1] += s
        return tuple(counts)


@dataclass(frozen=True)
class DecoratedHandle:
    label: HandleLabel
    m: int  # cocore power
    n: int  # core-loop power


@dataclass(frozen=True)
class HandleSystem:
    generator_count: int
    handles: tuple[DecoratedHandle, ...] = ()
    pattern_braid: BraidWord = BraidWord(2, ())

    def __post_init__(self) -> None:
        if self.generator_count < 0:
            raise ValueError("generator count must be non-negative")
        for hd in self.handles:
            if hd.label.max_generator > self.generator_count:
                raise ValueError(
                    f"label uses generator {hd.label.max_generator} "
                    f"but the system has only {self.generator_count}"
                )


# ---------------------------------------------------------------------------
# moves

# The rule of each checked move field, run as the __post_init__ of every move
# class with that field; no class has two.  Transfer7 and Transfer9 share the
# noun "transfer".
def _sign_rule(mv) -> None:
    if mv.sign not in (1, -1):
        raise ValueError(f"{type(mv).__name__.lower().rstrip('79')} sign must be +1 or -1")


def _direction_rule(mv) -> None:
    if mv.direction not in ("cw", "ccw"):
        raise ValueError("rotation direction must be 'cw' or 'ccw'")


def _variant_rule(mv) -> None:
    if mv.variant not in ("A", "B"):
        raise ValueError("slide variant must be 'A' or 'B'")


_FIELD_RULES = {"sign": _sign_rule, "direction": _direction_rule, "variant": _variant_rule}


def _move(cls):
    """A frozen dataclass checked by the rule of its one checked field, if any."""
    rules = [_FIELD_RULES[name] for name in cls.__annotations__ if name in _FIELD_RULES]
    if rules:
        (cls.__post_init__,) = rules  # a class with two fails here
    return dataclass(frozen=True)(cls)


@_move
class Invert:
    k: int


@_move
class Twist:
    k: int
    sign: int


@_move
class Rotate:
    k: int
    direction: str


@_move
class Slide:
    k: int
    over: int
    variant: str


@_move
class Transfer7:
    k: int
    l: int
    sign: int


@_move
class Transfer9:
    k: int
    l: int
    sign: int


HandleMove = Union[Invert, Twist, Rotate, Slide, Transfer7, Transfer9]


def one_handle_moves(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (m, n) of a handle after Invert, Twist +1, Twist -1, Rotate cw and
    Rotate ccw, in that order: the one statement of these rules, which have
    no integer gate (Rotate's gate is on the label)."""
    return (-m, -n), (m, n + 2 * m), (m, n - 2 * m), (-n, m), (n, -m)


def two_handle_moves(hk: tuple[int, int], hl: tuple[int, int]) -> tuple:
    """The (m, n) of handles k and l, as a pair of pairs, after Slide(k, l)
    A and B, Transfer7(k, l) + and -, and Transfer9(k, l) + and -, in that
    order: the one statement of these rules.  None where the move's integer
    gate (_ZERO_GATES) refuses: Transfer7 needs n_l = 0 and Transfer9
    m_k = 0."""
    (m, n), (ml, nl) = hk, hl
    return (
        ((m, n + nl), (ml - m, nl)),
        ((m, n - nl), (ml + m, nl)),
        (hk, (ml + m, 0)) if nl == 0 else None,
        (hk, (ml - m, 0)) if nl == 0 else None,
        ((0, n + ml), hl) if m == 0 else None,
        ((0, n - ml), hl) if m == 0 else None,
    )


# why each gated family refuses when two_handle_moves gives None
_ZERO_GATES = {
    "Transfer7": "target core-loop power must be 0",
    "Transfer9": "moving handle must have m = 0",
}


def twisted(m: int, n: int, sign: int) -> int:
    """The core-loop power of a handle (m, n) after one twist of sign +1 or -1."""
    return one_handle_moves(m, n)[1 if sign > 0 else 2][1]


def twists_into(m: int, n: int, low: int) -> int:
    """The signed number of twists that take the core-loop power n of a
    handle with cocore power m into [low, low + 2|m|); 0 when m = 0."""
    q = (n - low) // (2 * abs(m)) if m else 0
    return -q if m > 0 else q


def repeat(run, move, count: int) -> None:
    """One run of unit moves: run.do(move(sign)) |count| times, sign the
    sign of count.  run is a handle _TraceBuilder or an engine _Runner."""
    mv = move(1 if count > 0 else -1)
    for _ in range(abs(count)):
        run.do(mv)


def apply_handle_move(s: HandleSystem, mv: HandleMove) -> HandleSystem:
    """One rewriting step; raises instead of guessing on any violated rule.
    The (m, n) results and integer gates are those of one_handle_moves and
    two_handle_moves; the labels and their gates are stated here."""
    handles = list(s.handles)
    count = len(handles)

    def at(k: int) -> DecoratedHandle:
        if not 1 <= k <= count:
            raise IndexOutOfRange(f"handle index {k} not in 1..{count}")
        return handles[k - 1]

    if isinstance(mv, (Invert, Twist, Rotate)):
        hd = at(mv.k)
        label = hd.label
        if isinstance(mv, Invert):
            label, slot = label.inverse(), 0
        elif isinstance(mv, Twist):
            slot = 1 if mv.sign > 0 else 2
        else:
            if not label.is_trivial:
                raise PreconditionViolated("Rotate", "label must be trivial")
            slot = 3 if mv.direction == "cw" else 4
        handles[mv.k - 1] = DecoratedHandle(label, *one_handle_moves(hd.m, hd.n)[slot])
        return HandleSystem(s.generator_count, tuple(handles), s.pattern_braid)
    if isinstance(mv, Slide):
        l, slot = mv.over, 0 if mv.variant == "A" else 1
    elif isinstance(mv, Transfer7):
        l, slot = mv.l, 2 if mv.sign > 0 else 3
    elif isinstance(mv, Transfer9):
        l, slot = mv.l, 4 if mv.sign > 0 else 5
    else:
        raise TypeError(f"not a handle move: {mv!r}")
    variant = type(mv).__name__
    if mv.k == l:
        raise PreconditionViolated(variant, "the two handles must be distinct")
    hk, hl = at(mv.k), at(l)
    label = hk.label
    if isinstance(mv, Slide):
        label = hk.label * hl.label if slot == 0 else hl.label.inverse() * hk.label
    elif isinstance(mv, Transfer7) and not hl.label.is_trivial:
        raise PreconditionViolated(variant, "target label must be trivial")
    ik, il = (hk.m, hk.n), (hl.m, hl.n)
    pairs = two_handle_moves(ik, il)[slot]
    if pairs is None:
        raise PreconditionViolated(variant, _ZERO_GATES[variant])
    # a transfer hands back the pair of the handle it leaves alone (k for
    # Transfer7, l for Transfer9), whose label it keeps too
    if pairs[0] is not ik:
        handles[mv.k - 1] = DecoratedHandle(label, *pairs[0])
    if pairs[1] is not il:
        handles[l - 1] = DecoratedHandle(hl.label, *pairs[1])
    return HandleSystem(s.generator_count, tuple(handles), s.pattern_braid)


def inverse_moves(mv: HandleMove) -> list[HandleMove]:
    """Moves that undo mv exactly, in application order."""
    if isinstance(mv, Invert):
        return [mv]
    if isinstance(mv, Twist):
        return [Twist(mv.k, -mv.sign)]
    if isinstance(mv, Rotate):
        return [Rotate(mv.k, "ccw" if mv.direction == "cw" else "cw")]
    if isinstance(mv, Slide):
        # conjugating the slid-over handle turns the slide into its own undo
        return [Invert(mv.over), Slide(mv.k, mv.over, mv.variant), Invert(mv.over)]
    if isinstance(mv, Transfer7):
        return [Transfer7(mv.k, mv.l, -mv.sign)]
    if isinstance(mv, Transfer9):
        return [Transfer9(mv.k, mv.l, -mv.sign)]
    raise TypeError(f"not a handle move: {mv!r}")


# ---------------------------------------------------------------------------
# invariants

@dataclass(frozen=True)
class SystemInvariants:
    d: int  # gcd of every m and n entry
    pairing: int  # sum of m_j * n_j
    residue: int | None  # pairing mod 2d^2, None when d = 0


def system_invariants(s: HandleSystem) -> SystemInvariants:
    vals = [v for hd in s.handles for v in (hd.m, hd.n)]
    d = math.gcd(*vals) if vals else 0
    pairing = sum(hd.m * hd.n for hd in s.handles)
    residue = pairing % (2 * d * d) if d > 0 else None
    return SystemInvariants(d, pairing, residue)


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class HandleTrace:
    initial: HandleSystem
    steps: tuple[HandleMove, ...] = ()


def replay_trace(t: HandleTrace) -> HandleSystem:
    s = t.initial
    for idx, mv in enumerate(t.steps):
        try:
            s = apply_handle_move(s, mv)
        except (IndexOutOfRange, PreconditionViolated) as exc:
            raise IllegalStep(idx, str(exc)) from exc
    return s


class _TraceBuilder:
    def __init__(self, initial: HandleSystem) -> None:
        self.initial = initial
        self.state = initial
        self.moves: list[HandleMove] = []

    def do(self, mv: HandleMove) -> None:
        self.state = apply_handle_move(self.state, mv)
        self.moves.append(mv)

    def trace(self) -> HandleTrace:
        return HandleTrace(self.initial, tuple(self.moves))


_EMPTY_TRACE = HandleTrace(HandleSystem(0, ()), ())


@dataclass(frozen=True)
class NormalFormTag:
    kind: str  # "diagonal" | "off" | "zero"
    k: int
    trace: HandleTrace = field(default=_EMPTY_TRACE, compare=False, repr=False)


# ---------------------------------------------------------------------------
# normalizers

def _ext_gcd_pos(a: int, b: int) -> tuple[int, int, int]:
    # a, b >= 0, not both 0; returns (g, x, y) with x*a + y*b = g > 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _bezout(values: list[int]) -> tuple[int, list[int]]:
    """gcd g >= 0 and coefficients c with sum(c_i * values_i) = g."""
    g = 0
    coeffs = [0] * len(values)
    for idx, v in enumerate(values):
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            coeffs = [0] * len(values)
            coeffs[idx] = 1 if v > 0 else -1
        else:
            gg, x, y = _ext_gcd_pos(g, abs(v))
            coeffs = [x * c for c in coeffs]
            coeffs[idx] = y if v > 0 else -y
            g = gg
    return g, coeffs


def _variant_toward_zero(target: int, delta_a: int, delta_b: int) -> str:
    # pick the slide variant whose delta shrinks |target| most; ties prefer A
    return "A" if abs(target + delta_a) <= abs(target + delta_b) else "B"


def _euclid_m_into_first(tb: _TraceBuilder) -> None:
    # zero every m_j (j >= 2) into slot 1, leaving m_1 = gcd{m_j} >= 0
    count = len(tb.state.handles)
    for j in range(2, count + 1):
        while tb.state.handles[j - 1].m != 0:
            m1 = tb.state.handles[0].m
            mj = tb.state.handles[j - 1].m
            if m1 != 0 and abs(m1) > abs(mj):
                # Slide(j over 1): m_1 -= m_j (A) or m_1 += m_j (B)
                tb.do(Slide(j, 1, _variant_toward_zero(m1, -mj, mj)))
            elif m1 == 0:
                tb.do(Slide(j, 1, "A"))
            else:
                tb.do(Slide(1, j, _variant_toward_zero(mj, -m1, m1)))
    if tb.state.handles and tb.state.handles[0].m < 0:
        tb.do(Invert(1))


def _euclid_n_into_second(tb: _TraceBuilder) -> None:
    # with m_j = 0 for j >= 2, slides act purely on n there; gather into slot 2
    count = len(tb.state.handles)
    for j in range(3, count + 1):
        while tb.state.handles[j - 1].n != 0:
            n2 = tb.state.handles[1].n
            nj = tb.state.handles[j - 1].n
            if n2 != 0 and abs(n2) > abs(nj):
                # Slide(2 over j): n_2 += n_j (A) or n_2 -= n_j (B)
                tb.do(Slide(2, j, _variant_toward_zero(n2, nj, -nj)))
            elif n2 == 0:
                tb.do(Slide(2, j, "A"))
            else:
                tb.do(Slide(j, 2, _variant_toward_zero(nj, n2, -n2)))
    if count >= 2 and tb.state.handles[1].n < 0:
        tb.do(Invert(2))


def normalize_general(s: HandleSystem) -> tuple[HandleSystem, HandleTrace]:
    """Gather cocore powers into slot 1 and core-loop powers into slot 2.

    Result shape: [h1'(m, n1'), h2'(0, n2'), h3'(0,0), ...] with m the gcd of
    the original m-entries.  Uses only inversions and slides, so it works on
    arbitrary labels.
    """
    if not s.handles:
        raise ValueError("cannot normalize an empty system")
    tb = _TraceBuilder(s)
    _euclid_m_into_first(tb)
    _euclid_n_into_second(tb)
    return tb.state, tb.trace()


def stabilized(s: HandleSystem, k: int) -> HandleSystem:
    """s with k trivial handles 1(0,0) appended (none when k <= 0): the start
    of a stabilizing normal form's trace (k = 1) and of any replayed trace."""
    trivial = DecoratedHandle(HandleLabel(()), 0, 0)
    return HandleSystem(s.generator_count, s.handles + (trivial,) * k, s.pattern_braid)


def _clear_onto_last(tb: _TraceBuilder, d: int) -> None:
    """With d = m of the appended handle dividing every m_j, slide it over
    each other handle until m_j = 0, then bring each n_j into {0..d-1}."""
    G = len(tb.state.handles)
    for j in range(1, G):
        mj = tb.state.handles[j - 1].m
        repeat(tb, lambda sign: Slide(G, j, "A" if sign > 0 else "B"), mj // d)
    for j in range(1, G):
        nj = tb.state.handles[j - 1].n
        repeat(tb, partial(Transfer9, j, G), (nj % d - nj) // d)


def normalize_with_stabilizer(s: HandleSystem) -> tuple[HandleSystem, HandleTrace]:
    """Concentrate all cocore weight on one appended trivial handle.

    Appends 1(0,0), builds m = gcd{m_j} on it by transfers, then slides it
    over each handle until every original m_j is zero; finally reduces each
    n_j into {0..m-1}.  The appended handle ends as h(m, pairing/m) with
    abelianized exponents (m_1/m, ..., m_g/m).
    """
    if not s.handles or all(hd.m == 0 for hd in s.handles):
        raise DegenerateAllZero("every cocore power is zero")
    tb = _TraceBuilder(stabilized(s, 1))
    d, coeffs = _bezout([hd.m for hd in s.handles])
    for j, c in enumerate(coeffs, start=1):
        repeat(tb, partial(Transfer7, j, len(tb.state.handles)), c)
    _clear_onto_last(tb, d)
    return tb.state, tb.trace()


def _require_trivial_labels(s: HandleSystem) -> None:
    for hd in s.handles:
        if not hd.label.is_trivial:
            raise NonTrivialLabel("every handle label must be trivial")


def classify_standard(s: HandleSystem) -> NormalFormTag:
    """Classify an all-trivial system by (gcd, parity) and emit a witness trace.

    The trace starts from s with a fresh trivial handle appended and ends at
    [(0,0) x g, (d, d)] when pairing/d^2 is odd, [(0,0) x g, (d, 0)] when
    even, or the all-zero system when d = 0.
    """
    _require_trivial_labels(s)
    tb = _TraceBuilder(stabilized(s, 1))
    G = len(tb.state.handles)
    inv = system_invariants(s)
    d = inv.d
    if d == 0:
        return NormalFormTag("zero", 0, tb.trace())
    q = inv.pairing // (d * d)
    _, coeffs = _bezout([v for hd in s.handles for v in (hd.m, hd.n)])
    for j in range(1, G):
        cm, cn = coeffs[2 * j - 2], coeffs[2 * j - 1]
        repeat(tb, partial(Transfer7, j, G), cm)
        if cn:
            # rotate so the n-entry sits in the m slot, transfer, rotate back
            tb.do(Rotate(j, "ccw"))
            repeat(tb, partial(Transfer7, j, G), cn)
            tb.do(Rotate(j, "cw"))
    # d divides every n_j, so the reduction into {0..d-1} zeroes them; the
    # appended handle is left at (d, n) with n = d * q (mod 2d)
    _clear_onto_last(tb, d)
    repeat(tb, partial(Twist, G), twists_into(d, tb.state.handles[G - 1].n, 0))
    kind = "diagonal" if q % 2 else "off"
    return NormalFormTag(kind, d, tb.trace())


def normalize_hirose(s: HandleSystem) -> NormalFormTag:
    """Reduce an all-trivial system to 1(k,0) or 1(k,k) plus zero handles.

    Alternates cocore and core-loop gathering with rotations that feed
    residual core-loop weight back into the cocore gcd; finishes with a
    single-handle endgame of twists and rotations.  No transfers into a
    helper handle, so the handle count never changes.
    """
    _require_trivial_labels(s)
    tb = _TraceBuilder(s)
    count = len(s.handles)
    if count == 0:
        return NormalFormTag("zero", 0, tb.trace())
    while True:
        _euclid_m_into_first(tb)
        _euclid_n_into_second(tb)
        if count < 2:
            break
        n2 = tb.state.handles[1].n
        if n2 == 0:
            break
        m1 = tb.state.handles[0].m
        if m1 > 0:
            repeat(tb, partial(Transfer9, 2, 1), (n2 % m1 - n2) // m1)
            n2 = tb.state.handles[1].n
        if n2 == 0:
            break
        # feed the leftover core-loop weight back into the cocore side
        tb.do(Rotate(2, "ccw"))
    while True:
        hd = tb.state.handles[0]
        a, b = hd.m, hd.n
        if a < 0:
            tb.do(Invert(1))
            continue
        if a == 0:
            if b == 0:
                return NormalFormTag("zero", 0, tb.trace())
            tb.do(Rotate(1, "cw"))
            continue
        # twist n into (-a, a]
        repeat(tb, partial(Twist, 1), twists_into(a, b, 1 - a))
        t = tb.state.handles[0].n
        if t == a:
            return NormalFormTag("diagonal", a, tb.trace())
        if t == 0:
            return NormalFormTag("off", a, tb.trace())
        tb.do(Rotate(1, "cw"))  # (a, t) -> (-t, a), strictly shrinking |m|


# ---------------------------------------------------------------------------
# bounded reachability

def _canonical(s: HandleSystem) -> HandleSystem:
    order = sorted(s.handles, key=lambda hd: (hd.label.word, hd.m, hd.n))
    return HandleSystem(s.generator_count, tuple(order), s.pattern_braid)


@cache
def _moves(count: int) -> tuple[HandleMove, ...]:
    """Every move of a system of count handles, gates aside, in the order of
    one_handle_moves and two_handle_moves."""
    out: list[HandleMove] = []
    for k in range(1, count + 1):
        out += [Invert(k), Twist(k, 1), Twist(k, -1), Rotate(k, "cw"), Rotate(k, "ccw")]
        for l in range(1, count + 1):
            if l != k:
                out += [Slide(k, l, "A"), Slide(k, l, "B"), Transfer7(k, l, 1),
                        Transfer7(k, l, -1), Transfer9(k, l, 1), Transfer9(k, l, -1)]
    return tuple(out)


# the first of the two_handle_moves slots of each gated family
_GATE_SLOT = {Transfer7: 2, Transfer9: 4}


def enumerate_reachable(
    s: HandleSystem,
    move_budget: int,
    coeff_bound: int,
    *,
    max_states: int = 200_000,
    force_slow: bool = False,
) -> set[HandleSystem]:
    """Systems reachable in at most move_budget moves, entries within bound.

    Systems are compared up to handle reordering (canonical sort by label
    word, then m, then n).  All-trivial systems run on the (m, n) tuple
    kernel; anything else tries every move through apply_handle_move and
    skips those it refuses, which is only meant for small budgets.  Both run
    on kernels.breadth_first.  The start is kept even when an entry lies
    beyond the bound.
    """
    if not force_slow and all(hd.label.is_trivial for hd in s.handles):
        start = [(hd.m, hd.n) for hd in s.handles]
        ball = kernels.handle_ball(start, move_budget, coeff_bound, max_states)
        # one handle per distinct (m, n), shared by every state holding it
        triv = HandleLabel(())
        pairs = {mn for state in ball for mn in state}
        made = {mn: DecoratedHandle(triv, *mn) for mn in pairs}
        return {
            HandleSystem(
                s.generator_count, tuple(map(made.__getitem__, state)), s.pattern_braid
            )
            for state in ball
        }

    def step(state: HandleSystem):
        hs = state.handles
        for mv in _moves(len(hs)):
            # a transfer that two_handle_moves gates off is not tried
            slot = _GATE_SLOT.get(type(mv))
            if slot is not None:
                hk, hl = hs[mv.k - 1], hs[mv.l - 1]
                if two_handle_moves((hk.m, hk.n), (hl.m, hl.n))[slot] is None:
                    continue
            try:
                r = apply_handle_move(state, mv)
            except PreconditionViolated:
                continue
            if all(abs(hd.m) <= coeff_bound and abs(hd.n) <= coeff_bound for hd in r.handles):
                yield _canonical(r)

    return kernels.breadth_first(
        _canonical(s), move_budget, max_states, "reachability search", step
    )


def count_reachable(
    s: HandleSystem, move_budget: int, coeff_bound: int, *, max_states: int = 200_000
) -> int:
    """len(enumerate_reachable(s, move_budget, coeff_bound)), without making
    a system per state when the kernel's ball can be counted: all-trivial
    systems count the (m, n) states of the ball."""
    if all(hd.label.is_trivial for hd in s.handles):
        start = [(hd.m, hd.n) for hd in s.handles]
        return len(kernels.handle_ball(start, move_budget, coeff_bound, max_states))
    return len(enumerate_reachable(s, move_budget, coeff_bound, max_states=max_states))


# ---------------------------------------------------------------------------
# text formats

_HEADER_RE = re.compile(r"handles g=(\S*) degree=(\S*) pattern=(.+)")
_LABEL_TOKEN_RE = re.compile(r"^g(.+?)(\^-1)?$")


def _parse_label(token: str, generator_count: int) -> HandleLabel:
    if token == "1":
        return HandleLabel(())
    word = []
    for piece in token.split("."):
        m = _LABEL_TOKEN_RE.match(piece)
        try:
            g = read_int(m.group(1)) if m else 0
        except IntegerTooLong:
            raise
        except ValueError:
            g = 0
        if not g:
            raise ValueError(f"bad label token {piece!r}")
        if g > generator_count:
            raise ValueError(f"label generator g{g} exceeds system count {generator_count}")
        word.append((g, -1 if m.group(2) else 1))
    return HandleLabel.reduce(word)


def _format_label(label: HandleLabel) -> str:
    if label.is_trivial:
        return "1"
    return ".".join(f"g{g}" + ("^-1" if s < 0 else "") for g, s in label.word)


def parse_handles(text: str) -> HandleSystem:
    return _read_system(list(read_lines(text)))


def _read_system(rows) -> HandleSystem:
    """The handle system of read_lines rows: a header, then `label m n` lines."""
    if not rows:
        raise ParseError(1, 1, "empty handle file")
    lineno, raw, _ = rows[0]
    m = _HEADER_RE.fullmatch(raw.strip())
    generator_count, degree = read_header_ints(
        m, lineno, raw, "expected header 'handles g=<int> degree=<int> pattern=<word>'"
    )
    try:
        pattern = parse_word(m.group(3), degree)
    except ValueError as exc:
        raise ParseError(lineno, 1, f"bad pattern braid: {exc}") from exc
    handles = []
    for lineno, raw, _ in rows[1:]:
        try:
            handles.append(_parse_handle(raw, generator_count))
        except TokenError as exc:
            raise exc.at(lineno, raw) from None
    return HandleSystem(generator_count, tuple(handles), pattern)


@lru_cache(maxsize=4096)
def _parse_handle(line: str, generator_count: int) -> DecoratedHandle:
    """The handle a `label m n` line names under generator_count generators,
    decoded once per line and count (handles are frozen)."""
    toks = line.split()
    if len(toks) != 3:
        raise TokenError(0, "expected 'label m n'")
    signed = partial(read_int, signed=True)
    readers = (partial(_parse_label, generator_count=generator_count), signed, signed)
    return DecoratedHandle(*(
        read_token(read, i, toks[i], "bad handle: ") for i, read in enumerate(readers)
    ))


def format_handles(s: HandleSystem) -> str:
    lines = [
        f"handles g={s.generator_count} degree={s.pattern_braid.degree} "
        f"pattern={format_word(s.pattern_braid)}"
    ]
    for hd in s.handles:
        lines.append(f"{_format_label(hd.label)} {hd.m} {hd.n}")
    return "\n".join(lines) + "\n"


# The trace line of each move.  The first word is the move's verb, a {field}
# is written as the field's value (a sign as + or -), and any other word is
# literal.  The fields appear in the class's field order.
_TRACE_LINES = {
    Invert: "invert {k}",
    Twist: "twist {k} {sign}",
    Rotate: "rotate {k} {direction}",
    Slide: "slide {k} over {over} {variant}",
    Transfer7: "transfer7 {k} {l} {sign}",
    Transfer9: "transfer9 {k} {l} {sign}",
}
# verb -> (move class, operand words)
_VERBS = {
    line.split()[0]: (cls, tuple(line.split()[1:])) for cls, line in _TRACE_LINES.items()
}
# how a field word reads its operand; any other field is an integer
_READ = {"{sign}": read_sign, "{direction}": str, "{variant}": str}


@lru_cache(maxsize=4096)
def _parse_move(line: str) -> HandleMove:
    """The move a trace line names, decoded once per line (moves are immutable)."""
    parts = line.split()
    cls, words = _VERBS.get(parts[0], (None, ()))
    if cls is None or len(parts) != len(words) + 1:
        raise TokenError(0, "bad move: unrecognized move syntax")
    values = []
    for i, word in enumerate(words, 1):
        if word[0] == "{":
            values.append(read_token(_READ.get(word, read_int), i, parts[i], "bad move: "))
        elif word != parts[i]:
            raise TokenError(i, "bad move: unrecognized move syntax")
    try:
        return cls(*values)
    except ValueError as exc:  # the rule of the class's one checked field
        i = next(i for i, word in enumerate(words, 1) if word[1:-1] in _FIELD_RULES)
        raise TokenError(i, f"bad move: {exc}") from None


def format_trace(t: HandleTrace) -> str:
    """The trace file of t: its start system, then one move per line."""
    lines = []
    for mv in t.steps:
        line = _TRACE_LINES.get(type(mv))
        if line is None:
            raise TypeError(f"not a handle move: {mv!r}")
        values = vars(mv)
        if "sign" in values:
            values = {**values, "sign": sign_text(mv.sign)}
        lines.append(line.format_map(values) + "\n")
    return format_handles(t.initial) + "".join(lines)


def parse_trace(text: str) -> tuple[HandleSystem | None, tuple[HandleMove, ...]]:
    """Read a trace file: an optional start system, then one move per line.

    The moves begin at the first line whose first word is a verb.  A text of
    move lines only gives None as its start.
    """
    rows = list(read_lines(text))
    cut = next((k for k, (_, _, toks) in enumerate(rows) if toks[0] in _VERBS), len(rows))
    start = _read_system(rows[:cut]) if cut else None
    moves: list[HandleMove] = []
    for lineno, raw, _ in rows[cut:]:
        try:
            moves.append(_parse_move(raw))
        except TokenError as exc:
            raise exc.at(lineno, raw) from None
    return start, tuple(moves)
