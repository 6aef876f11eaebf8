"""Decorated 1-handle systems and their move calculus.

A system is an ordered list of handles, each carrying a free-group label and
two integer decorations (m, n).  Six move families rewrite systems in place
of geometric isotopy; every move is exactly reversible.  The normalizers
reduce systems to canonical shapes and emit replayable traces as proof
objects.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Union

from . import kernels
from .braid import BraidWord, format_word, parse_word
from .errors import BudgetExceeded, ParseError


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

@dataclass(frozen=True)
class Invert:
    k: int


@dataclass(frozen=True)
class Twist:
    k: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("twist sign must be +1 or -1")


@dataclass(frozen=True)
class Rotate:
    k: int
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("cw", "ccw"):
            raise ValueError("rotation direction must be 'cw' or 'ccw'")


@dataclass(frozen=True)
class Slide:
    k: int
    over: int
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in ("A", "B"):
            raise ValueError("slide variant must be 'A' or 'B'")


@dataclass(frozen=True)
class Transfer7:
    k: int
    l: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("transfer sign must be +1 or -1")


@dataclass(frozen=True)
class Transfer9:
    k: int
    l: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("transfer sign must be +1 or -1")


HandleMove = Union[Invert, Twist, Rotate, Slide, Transfer7, Transfer9]


def apply_handle_move(s: HandleSystem, mv: HandleMove) -> HandleSystem:
    """One rewriting step; raises instead of guessing on any violated rule."""
    handles = list(s.handles)
    count = len(handles)

    def at(k: int) -> DecoratedHandle:
        if not 1 <= k <= count:
            raise IndexOutOfRange(f"handle index {k} not in 1..{count}")
        return handles[k - 1]

    def distinct(k: int, l: int, variant: str) -> None:
        if k == l:
            raise PreconditionViolated(variant, "the two handles must be distinct")

    if isinstance(mv, Invert):
        hd = at(mv.k)
        handles[mv.k - 1] = DecoratedHandle(hd.label.inverse(), -hd.m, -hd.n)
    elif isinstance(mv, Twist):
        hd = at(mv.k)
        handles[mv.k - 1] = DecoratedHandle(hd.label, hd.m, hd.n + mv.sign * 2 * hd.m)
    elif isinstance(mv, Rotate):
        hd = at(mv.k)
        if not hd.label.is_trivial:
            raise PreconditionViolated("Rotate", "label must be trivial")
        if mv.direction == "cw":
            handles[mv.k - 1] = DecoratedHandle(hd.label, -hd.n, hd.m)
        else:
            handles[mv.k - 1] = DecoratedHandle(hd.label, hd.n, -hd.m)
    elif isinstance(mv, Slide):
        distinct(mv.k, mv.over, "Slide")
        hk = at(mv.k)
        hl = at(mv.over)
        if mv.variant == "A":
            handles[mv.k - 1] = DecoratedHandle(hk.label * hl.label, hk.m, hk.n + hl.n)
            handles[mv.over - 1] = DecoratedHandle(hl.label, hl.m - hk.m, hl.n)
        else:
            handles[mv.k - 1] = DecoratedHandle(
                hl.label.inverse() * hk.label, hk.m, hk.n - hl.n
            )
            handles[mv.over - 1] = DecoratedHandle(hl.label, hl.m + hk.m, hl.n)
    elif isinstance(mv, Transfer7):
        distinct(mv.k, mv.l, "Transfer7")
        hk = at(mv.k)
        hl = at(mv.l)
        if not hl.label.is_trivial:
            raise PreconditionViolated("Transfer7", "target label must be trivial")
        if hl.n != 0:
            raise PreconditionViolated("Transfer7", "target core-loop power must be 0")
        handles[mv.l - 1] = DecoratedHandle(hl.label, hl.m + mv.sign * hk.m, 0)
    elif isinstance(mv, Transfer9):
        distinct(mv.k, mv.l, "Transfer9")
        hk = at(mv.k)
        hl = at(mv.l)
        if hk.m != 0:
            raise PreconditionViolated("Transfer9", "moving handle must have m = 0")
        handles[mv.k - 1] = DecoratedHandle(hk.label, 0, hk.n + mv.sign * hl.m)
    else:
        raise TypeError(f"not a handle move: {mv!r}")
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


def DiagonalType(k: int, trace: HandleTrace = _EMPTY_TRACE) -> NormalFormTag:
    return NormalFormTag("diagonal", k, trace)


def OffType(k: int, trace: HandleTrace = _EMPTY_TRACE) -> NormalFormTag:
    return NormalFormTag("off", k, trace)


def ZeroType(trace: HandleTrace = _EMPTY_TRACE) -> NormalFormTag:
    return NormalFormTag("zero", 0, trace)


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


def normalize_with_stabilizer(s: HandleSystem) -> tuple[HandleSystem, HandleTrace]:
    """Concentrate all cocore weight on one appended trivial handle.

    Appends 1(0,0), builds m = gcd{m_j} on it by transfers, then slides it
    over each handle until every original m_j is zero; finally reduces each
    n_j into {0..m-1}.  The appended handle ends as h(m, pairing/m) with
    abelianized exponents (m_1/m, ..., m_g/m).
    """
    if not s.handles or all(hd.m == 0 for hd in s.handles):
        raise DegenerateAllZero("every cocore power is zero")
    count = len(s.handles)
    extended = HandleSystem(
        s.generator_count,
        s.handles + (DecoratedHandle(HandleLabel(()), 0, 0),),
        s.pattern_braid,
    )
    tb = _TraceBuilder(extended)
    G = count + 1
    d, coeffs = _bezout([hd.m for hd in s.handles])
    for j, c in enumerate(coeffs, start=1):
        sign = 1 if c > 0 else -1
        for _ in range(abs(c)):
            tb.do(Transfer7(j, G, sign))
    for j in range(1, count + 1):
        mj = tb.state.handles[j - 1].m
        variant = "A" if mj > 0 else "B"
        for _ in range(abs(mj) // d):
            tb.do(Slide(G, j, variant))
    for j in range(1, count + 1):
        nj = tb.state.handles[j - 1].n
        delta = (nj % d - nj) // d
        sign = 1 if delta > 0 else -1
        for _ in range(abs(delta)):
            tb.do(Transfer9(j, G, sign))
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
    count = len(s.handles)
    extended = HandleSystem(
        s.generator_count,
        s.handles + (DecoratedHandle(HandleLabel(()), 0, 0),),
        s.pattern_braid,
    )
    tb = _TraceBuilder(extended)
    G = count + 1
    vals = [v for hd in s.handles for v in (hd.m, hd.n)]
    d = math.gcd(*vals) if vals else 0
    if d == 0:
        return ZeroType(tb.trace())
    pairing = sum(hd.m * hd.n for hd in s.handles)
    q = pairing // (d * d)
    _, coeffs = _bezout(vals)
    for j in range(1, count + 1):
        cm = coeffs[2 * (j - 1)]
        cn = coeffs[2 * (j - 1) + 1]
        if cm:
            sign = 1 if cm > 0 else -1
            for _ in range(abs(cm)):
                tb.do(Transfer7(j, G, sign))
        if cn:
            # rotate so the n-entry sits in the m slot, transfer, rotate back
            tb.do(Rotate(j, "ccw"))
            sign = 1 if cn > 0 else -1
            for _ in range(abs(cn)):
                tb.do(Transfer7(j, G, sign))
            tb.do(Rotate(j, "cw"))
    for j in range(1, count + 1):
        mj = tb.state.handles[j - 1].m
        variant = "A" if mj > 0 else "B"
        for _ in range(abs(mj) // d):
            tb.do(Slide(G, j, variant))
    for j in range(1, count + 1):
        nj = tb.state.handles[j - 1].n
        sign = -1 if nj > 0 else 1
        for _ in range(abs(nj) // d):
            tb.do(Transfer9(j, G, sign))
    target = d * (q % 2)
    diff = tb.state.handles[G - 1].n - target
    sign = -1 if diff > 0 else 1
    for _ in range(abs(diff) // (2 * d)):
        tb.do(Twist(G, sign))
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
        return ZeroType(tb.trace())
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
            delta = (n2 % m1 - n2) // m1
            sign = 1 if delta > 0 else -1
            for _ in range(abs(delta)):
                tb.do(Transfer9(2, 1, sign))
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
                return ZeroType(tb.trace())
            tb.do(Rotate(1, "cw"))
            continue
        t = b % (2 * a)
        if t > a:
            t -= 2 * a
        if t != b:
            sign = 1 if t > b else -1
            for _ in range(abs(t - b) // (2 * a)):
                tb.do(Twist(1, sign))
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


def _all_moves(s: HandleSystem) -> list[HandleMove]:
    count = len(s.handles)
    out: list[HandleMove] = []
    for k in range(1, count + 1):
        hd = s.handles[k - 1]
        out.append(Invert(k))
        out.append(Twist(k, 1))
        out.append(Twist(k, -1))
        if hd.label.is_trivial:
            out.append(Rotate(k, "cw"))
            out.append(Rotate(k, "ccw"))
        for l in range(1, count + 1):
            if l == k:
                continue
            other = s.handles[l - 1]
            out.append(Slide(k, l, "A"))
            out.append(Slide(k, l, "B"))
            if other.label.is_trivial and other.n == 0:
                out.append(Transfer7(k, l, 1))
                out.append(Transfer7(k, l, -1))
            if hd.m == 0:
                out.append(Transfer9(k, l, 1))
                out.append(Transfer9(k, l, -1))
    return out


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
    word, then m, then n).  All-trivial systems with coeff_bound <= 15 and at
    most 6 handles run on the packed integer kernel; anything else walks the
    object-level moves directly, which is only meant for small budgets.
    """
    kernel_ok = (
        not force_slow
        and coeff_bound <= 15
        and len(s.handles) <= 6
        and all(hd.label.is_trivial for hd in s.handles)
        and all(abs(hd.m) <= 15 and abs(hd.n) <= 15 for hd in s.handles)
    )
    if kernel_ok:
        packed = kernels.pack_handle_state([(hd.m, hd.n) for hd in s.handles])
        try:
            ball = kernels.handle_ball(packed, move_budget, coeff_bound, max_states)
        except RuntimeError as exc:
            raise BudgetExceeded(str(exc)) from exc
        triv = HandleLabel(())
        return {
            HandleSystem(
                s.generator_count,
                tuple(DecoratedHandle(triv, m, n) for m, n in kernels.unpack_handle_state(p)),
                s.pattern_braid,
            )
            for p in ball
        }
    start = _canonical(s)
    seen = {start}
    frontier = [start]
    for _ in range(move_budget):
        nxt = []
        for state in frontier:
            for mv in _all_moves(state):
                r = apply_handle_move(state, mv)
                if any(abs(hd.m) > coeff_bound or abs(hd.n) > coeff_bound for hd in r.handles):
                    continue
                c = _canonical(r)
                if c not in seen:
                    seen.add(c)
                    if len(seen) > max_states:
                        raise BudgetExceeded("reachability search exceeded state cap")
                    nxt.append(c)
        frontier = nxt
        if not frontier:
            break
    return seen


# ---------------------------------------------------------------------------
# text formats

_HEADER_RE = re.compile(r"^handles g=(\d+) degree=(\d+) pattern=(.+)$")
_LABEL_TOKEN_RE = re.compile(r"^g([1-9][0-9]*)(\^-1)?$")


def _parse_label(token: str, generator_count: int, lineno: int) -> HandleLabel:
    if token == "1":
        return HandleLabel(())
    word = []
    for piece in token.split("."):
        m = _LABEL_TOKEN_RE.match(piece)
        if m is None:
            raise ParseError(lineno, 1, f"bad label token {piece!r}")
        g = int(m.group(1))
        if g > generator_count:
            raise ParseError(
                lineno, 1, f"label generator g{g} exceeds system count {generator_count}"
            )
        word.append((g, -1 if m.group(2) else 1))
    return HandleLabel.reduce(word)


def _format_label(label: HandleLabel) -> str:
    if label.is_trivial:
        return "1"
    return ".".join(f"g{g}" + ("^-1" if s < 0 else "") for g, s in label.word)


def parse_handles(text: str) -> HandleSystem:
    lines = text.splitlines()
    header_idx = None
    for idx, line in enumerate(lines):
        if line.strip():
            header_idx = idx
            break
    if header_idx is None:
        raise ParseError(1, 1, "empty handle file")
    m = _HEADER_RE.match(lines[header_idx].strip())
    if m is None:
        raise ParseError(
            header_idx + 1, 1, "expected header 'handles g=<int> degree=<int> pattern=<word>'"
        )
    generator_count = int(m.group(1))
    degree = int(m.group(2))
    try:
        pattern = parse_word(m.group(3), degree)
    except ValueError as exc:
        raise ParseError(header_idx + 1, 1, f"bad pattern braid: {exc}") from exc
    handles = []
    for idx in range(header_idx + 1, len(lines)):
        line = lines[idx].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(idx + 1, 1, "expected 'label m n'")
        label = _parse_label(parts[0], generator_count, idx + 1)
        try:
            mm, nn = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(idx + 1, 1, f"bad integer in {line!r}") from None
        handles.append(DecoratedHandle(label, mm, nn))
    return HandleSystem(generator_count, tuple(handles), pattern)


def format_handles(s: HandleSystem) -> str:
    lines = [
        f"handles g={s.generator_count} degree={s.pattern_braid.degree} "
        f"pattern={format_word(s.pattern_braid)}"
    ]
    for hd in s.handles:
        lines.append(f"{_format_label(hd.label)} {hd.m} {hd.n}")
    return "\n".join(lines) + "\n"


_SIGN = {"+": 1, "-": -1}


def parse_trace_moves(text: str) -> tuple[HandleMove, ...]:
    moves: list[HandleMove] = []
    for idx, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            moves.append(_parse_move(parts))
        except (ValueError, KeyError, IndexError) as exc:
            raise ParseError(idx + 1, 1, f"bad move {line!r}: {exc}") from None
    return tuple(moves)


def _parse_move(parts: list[str]) -> HandleMove:
    head = parts[0]
    if head == "invert" and len(parts) == 2:
        return Invert(int(parts[1]))
    if head == "twist" and len(parts) == 3:
        return Twist(int(parts[1]), _SIGN[parts[2]])
    if head == "rotate" and len(parts) == 3:
        return Rotate(int(parts[1]), parts[2])
    if head == "slide" and len(parts) == 5 and parts[2] == "over":
        return Slide(int(parts[1]), int(parts[3]), parts[4])
    if head == "transfer7" and len(parts) == 4:
        return Transfer7(int(parts[1]), int(parts[2]), _SIGN[parts[3]])
    if head == "transfer9" and len(parts) == 4:
        return Transfer9(int(parts[1]), int(parts[2]), _SIGN[parts[3]])
    raise ValueError("unrecognized move syntax")


def format_trace_moves(moves: Iterable[HandleMove]) -> str:
    lines = []
    for mv in moves:
        if isinstance(mv, Invert):
            lines.append(f"invert {mv.k}")
        elif isinstance(mv, Twist):
            lines.append(f"twist {mv.k} {'+' if mv.sign > 0 else '-'}")
        elif isinstance(mv, Rotate):
            lines.append(f"rotate {mv.k} {mv.direction}")
        elif isinstance(mv, Slide):
            lines.append(f"slide {mv.k} over {mv.over} {mv.variant}")
        elif isinstance(mv, Transfer7):
            lines.append(f"transfer7 {mv.k} {mv.l} {'+' if mv.sign > 0 else '-'}")
        elif isinstance(mv, Transfer9):
            lines.append(f"transfer9 {mv.k} {mv.l} {'+' if mv.sign > 0 else '-'}")
        else:
            raise TypeError(f"not a handle move: {mv!r}")
    return "\n".join(lines) + ("\n" if lines else "")
