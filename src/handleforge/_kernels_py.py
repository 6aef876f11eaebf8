"""Pure Python kernels: word triviality, rewriting search, handle-state search.

The compiled extension exports the same names with the same semantics; the
selector in kernels.py picks whichever is available.  Words travel as lists
or tuples of signed integers (+i for the i-th positive generator letter, -i
for its inverse) and, across kernel boundaries, as packed integers.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

# numpy is imported by the functions of the identity closure that use it,
# so that importing the package for charts, handles or the CLI does not
# load it (about 14 MB of resident memory and a tenth of a second)

BACKEND_KIND = "pure"


# ---------------------------------------------------------------------------
# word packing

def pack_word(values: Sequence[int], degree: int) -> int:
    """Pack a signed-letter word into one integer, leftmost letter first.

    The length lives in the low 6 bits, so words of 64 letters or more are
    refused with ValueError.
    """
    if len(values) >= 64:
        raise ValueError(f"cannot pack a word of {len(values)} letters (limit 63)")
    base = 2 * degree - 1
    acc = 0
    for v in values:
        code = 2 * abs(v) - (1 if v > 0 else 0)
        acc = acc * base + code
    # length prefix keeps distinct-length words distinct (codes never use 0)
    return acc * 64 + len(values)


def unpack_word(packed: int, degree: int) -> tuple[int, ...]:
    base = 2 * degree - 1
    acc, length = divmod(packed, 64)
    out = []
    for _ in range(length):
        acc, code = divmod(acc, base)
        v, r = divmod(code + 1, 2)
        out.append(v if r == 0 else -v)
    out.reverse()
    return tuple(out)


# ---------------------------------------------------------------------------
# handle reduction

def _free(values: list[int]) -> list[int]:
    stack: list[int] = []
    for v in values:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return stack


def _find_handle(w: list[int]) -> tuple[int, int] | None:
    # leftmost-closing critical segment: w[p] = inverse of w[q], every letter
    # strictly between them has larger index
    for q in range(len(w)):
        iq = abs(w[q])
        for p in range(q - 1, -1, -1):
            if abs(w[p]) <= iq:
                if w[p] == -w[q]:
                    return p, q
                break
    return None


def dehornoy_trivial(values: Sequence[int], degree: int) -> bool:
    """Decide triviality by repeated handle elimination.

    A handle is a segment e v e^-1 where e is a letter and every letter of v
    has strictly larger index.  Eliminating the leftmost-closing handle
    (delete the pair, push index i+1 letters through: x -> e^-1 x' e with the
    index dropped by the braid relation) terminates, and the result is empty
    exactly for words representing the identity.
    """
    w = _free(list(values))
    while w:
        hit = _find_handle(w)
        if hit is None:
            return False
        p, q = hit
        e = 1 if w[p] > 0 else -1
        i = abs(w[p])
        out = w[:p]
        for v in w[p + 1 : q]:
            if abs(v) == i + 1:
                out.append(-e * (i + 1))
                out.append(i if v > 0 else -i)
                out.append(e * (i + 1))
            else:
                out.append(v)
        out.extend(w[q + 1 :])
        w = _free(out)
    return True


# ---------------------------------------------------------------------------
# bounded rewriting search

def _word_neighbors(vals: tuple[int, ...], degree: int, cap: int) -> list[tuple[int, ...]]:
    n = len(vals)
    out = []
    for t in range(n - 1):
        if vals[t] == -vals[t + 1]:
            out.append(vals[:t] + vals[t + 2 :])
    if n + 2 <= cap:
        for t in range(n + 1):
            for i in range(1, degree):
                for v in (i, -i):
                    out.append(vals[:t] + (v, -v) + vals[t:])
    for t in range(n - 1):
        a, b = vals[t], vals[t + 1]
        if abs(abs(a) - abs(b)) >= 2:
            out.append(vals[:t] + (b, a) + vals[t + 2 :])
    for t in range(n - 2):
        a, b, c = vals[t], vals[t + 1], vals[t + 2]
        i, j = abs(a), abs(b)
        if abs(c) != i or abs(i - j) != 1:
            continue
        if (a > 0) == (c > 0):
            # i j i -> j i j needs all three signs equal
            if (a > 0) == (b > 0) and a == c:
                out.append(vals[:t] + (b, a, b) + vals[t + 3 :])
        else:
            # i^e j^d i^-e -> j^-e i^d j^e
            e = 1 if a > 0 else -1
            mid = i if b > 0 else -i
            out.append(vals[:t] + (-e * j, mid, e * j) + vals[t + 3 :])
    return out


def word_reaches_identity(
    values: Sequence[int], degree: int, excursion_cap: int, max_states: int
) -> bool:
    start = tuple(values)
    if not start:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for vals in frontier:
            for nb in _word_neighbors(vals, degree, excursion_cap):
                if not nb:
                    return True
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > max_states:
                        raise RuntimeError("rewriting search exceeded state budget")
                    nxt.append(nb)
        frontier = nxt
    return False


def _letter_tables(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables over the letter codes of pack_word, for _neighbour_blocks.

    Returns the inverse code of each code, whether two codes commute far,
    and, for each 3-letter window read as a base-(2N-1) number, the window
    after the relator move of _word_neighbors (0, never a valid window, when
    no relator move applies).
    """
    import numpy as np

    base = 2 * degree - 1
    letters = [v for i in range(1, degree) for v in (i, -i)]
    code = {v: pack_word((v,), degree) >> 6 for v in letters}
    inv = np.zeros(base, dtype=np.uint64)
    far = np.zeros((base, base), dtype=bool)
    rel = np.zeros(base**3, dtype=np.uint64)
    for a in letters:
        inv[code[a]] = code[-a]
        for b in letters:
            far[code[a], code[b]] = abs(abs(a) - abs(b)) >= 2
    for window in product(letters, repeat=3):
        a, b, c = window
        if far[code[a], code[b]] or far[code[b], code[c]]:
            continue
        # with no far pair to swap, a same-length rewrite is a relator move
        for nb in _word_neighbors(window, degree, 3):
            if len(nb) == 3:
                rel[pack_word(window, degree) >> 6] = pack_word(nb, degree) >> 6
    return inv, far, rel


def _neighbour_blocks(
    words: np.ndarray, n: int, base: int, cap: int, tables
) -> list[tuple[int, np.ndarray]]:
    """Neighbours of words of n letters, grouped as (length, values).

    Words are the base-(2N-1) values of their letter codes, leftmost letter
    most significant; the moves are those of _word_neighbors.
    """
    import numpy as np

    inv, far, rel = tables
    pw = [np.uint64(base**k) for k in range(n + 3)]
    digits = np.empty((n, words.size), dtype=np.uint64)
    suffix = [None] * (n + 1)  # suffix[t]: value of letters t..n-1
    suffix[n] = np.zeros(words.size, dtype=np.uint64)
    rest = words
    for t in range(n - 1, -1, -1):
        rest, digits[t] = np.divmod(rest, pw[1])
        suffix[t] = words % pw[n - t]
    prefix = [np.zeros(words.size, dtype=np.uint64)]  # prefix[t]: letters 0..t-1
    for t in range(n):
        prefix.append(prefix[t] * pw[1] + digits[t])

    out = []
    for t in range(n - 1):
        a, b = digits[t], digits[t + 1]
        hit = b == inv[a]
        if hit.any():
            out.append((n - 2, prefix[t][hit] * pw[n - t - 2] + suffix[t + 2][hit]))
        hit = far[a, b]
        if hit.any():
            head = (prefix[t][hit] * pw[1] + b[hit]) * pw[1] + a[hit]
            out.append((n, head * pw[n - t - 2] + suffix[t + 2][hit]))
    for t in range(n - 2):
        window = (digits[t] * pw[1] + digits[t + 1]) * pw[1] + digits[t + 2]
        swapped = rel[window]
        hit = swapped != 0
        if hit.any():
            head = prefix[t][hit] * pw[3] + swapped[hit]
            out.append((n, head * pw[n - t - 3] + suffix[t + 3][hit]))
    if n + 2 <= cap:
        codes = np.arange(1, base, dtype=np.uint64)
        pairs = codes * pw[1] + inv[codes]  # the inserted letter and its inverse
        for t in range(n + 1):
            head = (prefix[t] * pw[2])[:, None] + pairs[None, :]
            out.append((n + 2, (head * pw[n - t] + suffix[t][:, None]).ravel()))
    return out


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    # sorting beats np.unique, which hashes uint64 input before sorting it
    import numpy as np

    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _drop_known(values: np.ndarray, known: np.ndarray | None) -> np.ndarray:
    """The sorted values that do not occur in the sorted array known."""
    import numpy as np

    if known is None or not known.size or not values.size:
        return values
    at = np.searchsorted(known, values)
    at[at == known.size] = 0
    return values[known[at] != values]


# candidate neighbours generated per chunk of layer words (32 MB of uint64)
_CHUNK_CANDIDATES = 1 << 22


def identity_component(
    degree: int, universe_len: int, excursion_cap: int, max_states: int
) -> list[int]:
    """All words of length <= universe_len reachable from the empty word.

    Breadth-first closure under the rewriting moves, with intermediate words
    allowed up to excursion_cap letters.  Returns packed words.

    Each breadth-first layer is held as one sorted uint64 array per word
    length and expanded a whole array at a time.  The moves are invertible,
    so a neighbour of layer d lies in layer d-1, d or d+1: new words are the
    neighbours found in neither of the two latest layers.  Raises ValueError
    when words of excursion_cap letters cannot be packed exactly in 64 bits,
    and RuntimeError once more than max_states words have been reached.
    """
    base = 2 * degree - 1
    if excursion_cap >= 64 or base ** max(excursion_cap, 0) * 64 > 1 << 64:
        raise ValueError(
            f"excursion cap {excursion_cap} does not pack exactly into 64 bits "
            f"at degree {degree}"
        )
    import numpy as np

    tables = _letter_tables(degree)
    total = 1
    previous: dict[int, np.ndarray] = {}
    layer = {0: np.zeros(1, dtype=np.uint64)}
    found = list(layer.items()) if universe_len >= 0 else []
    while layer:
        parts: dict[int, list[np.ndarray]] = {}
        for length, words in layer.items():
            # at most: inserts, plus one cancel, swap or relator per position
            per_word = (length + 1) * (base - 1) + 3 * length + 1
            step = max(1, _CHUNK_CANDIDATES // per_word)
            for lo in range(0, words.size, step):
                blocks: dict[int, list[np.ndarray]] = {}
                for to, values in _neighbour_blocks(
                    words[lo : lo + step], length, base, excursion_cap, tables
                ):
                    blocks.setdefault(to, []).append(values)
                fresh = 0
                for to, values in blocks.items():
                    new = _sorted_unique(np.concatenate(values))
                    new = _drop_known(_drop_known(new, layer.get(to)), previous.get(to))
                    parts.setdefault(to, []).append(new)
                    fresh += new.size
                if fresh and total + fresh > max_states:
                    raise RuntimeError("component search exceeded state budget")
        previous, layer = layer, {}
        for to, values in parts.items():
            new = _sorted_unique(np.concatenate(values))
            if new.size:
                layer[to] = new
                total += new.size
                if to <= universe_len:
                    found.append((to, new))
        if total > max_states:
            raise RuntimeError("component search exceeded state budget")
    return [
        packed
        for length, words in found
        for packed in (words * np.uint64(64) + np.uint64(length)).tolist()
    ]


def trivial_words(degree: int, max_len: int) -> list[int]:
    """Packed trivial words of length <= max_len, decided by handle reduction."""
    out = []
    if dehornoy_trivial((), degree):
        out.append(pack_word((), degree))
    letters = [v for i in range(1, degree) for v in (i, -i)]
    level: list[tuple[int, ...]] = [()]
    for n in range(1, max_len + 1):
        level = [t + (v,) for t in level for v in letters]
        if n % 2:
            continue  # odd-length words are never trivial
        for vals in level:
            if _permutation_is_identity(vals, degree) and dehornoy_trivial(vals, degree):
                out.append(pack_word(vals, degree))
    return out


def _permutation_is_identity(vals: Sequence[int], degree: int) -> bool:
    perm = list(range(degree + 1))
    for v in vals:
        i = abs(v)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return all(perm[x] == x for x in range(1, degree + 1))


# ---------------------------------------------------------------------------
# integer handle-state search

_COORD_LIMIT = 15  # packing uses 5 bits per signed coordinate
_MAX_HANDLES = 6


def pack_handle_state(pairs: Sequence[tuple[int, int]]) -> int:
    """Pack a sorted tuple of (m, n) pairs; coordinates must fit in [-15, 15]."""
    if len(pairs) > _MAX_HANDLES:
        raise ValueError(f"too many handles to pack: {len(pairs)}")
    chunks = []
    for m, n in pairs:
        if abs(m) > _COORD_LIMIT or abs(n) > _COORD_LIMIT:
            raise ValueError(f"coordinate out of packing range: ({m}, {n})")
        chunks.append(((m + 16) << 5) | (n + 16))
    chunks.sort()
    acc = len(pairs)
    for c in reversed(chunks):
        acc = (acc << 10) | c
    return acc


def unpack_handle_state(packed: int) -> tuple[tuple[int, int], ...]:
    chunks = []
    acc = packed
    while acc >= 1 << 10:
        chunks.append(acc & 0x3FF)
        acc >>= 10
    return tuple(((c >> 5) - 16, (c & 0x1F) - 16) for c in chunks)


def _state_neighbors(
    state: tuple[tuple[int, int], ...], bound: int
) -> list[tuple[tuple[int, int], ...]]:
    g = len(state)
    out = []

    def push(k: int, pair: tuple[int, int], l: int = -1, pair_l: tuple[int, int] = (0, 0)) -> None:
        if abs(pair[0]) > bound or abs(pair[1]) > bound:
            return
        if l >= 0 and (abs(pair_l[0]) > bound or abs(pair_l[1]) > bound):
            return
        s = list(state)
        s[k] = pair
        if l >= 0:
            s[l] = pair_l
        out.append(tuple(sorted(s)))

    for k in range(g):
        m, n = state[k]
        push(k, (-m, -n))
        push(k, (m, n + 2 * m))
        push(k, (m, n - 2 * m))
        push(k, (-n, m))
        push(k, (n, -m))
        for l in range(g):
            if l == k:
                continue
            ml, nl = state[l]
            push(k, (m, n + nl), l, (ml - m, nl))
            push(k, (m, n - nl), l, (ml + m, nl))
            if nl == 0:
                push(l, (ml + m, 0))
                push(l, (ml - m, 0))
            if m == 0:
                push(k, (0, n + ml))
                push(k, (0, n - ml))
    return out


def handle_ball(
    packed_state: int, budget: int, bound: int, max_states: int
) -> list[int]:
    """States reachable from packed_state in at most budget moves.

    Moves are the integer shadows of the handle moves (inversion, twisting,
    quarter rotation, slides both ways, and both transfer families, the
    latter gated by their zero preconditions).  States whose coordinates
    leave [-bound, bound] are pruned.  Returns packed states.
    """
    if bound > _COORD_LIMIT:
        raise ValueError(f"bound {bound} exceeds packing range {_COORD_LIMIT}")
    start = tuple(sorted(unpack_handle_state(packed_state)))
    seen = {start}
    frontier = [start]
    for _ in range(budget):
        nxt = []
        for s in frontier:
            for t in _state_neighbors(s, bound):
                if t not in seen:
                    seen.add(t)
                    if len(seen) > max_states:
                        raise RuntimeError("handle search exceeded state budget")
                    nxt.append(t)
        frontier = nxt
        if not frontier:
            break
    return [pack_handle_state(s) for s in seen]
