"""Kernels: word triviality, rewriting search, handle-state search.

Words travel as tuples of signed integers (+i for the i-th positive
generator letter, -i for its inverse), and handle states as sorted tuples
of (m, n) pairs.  Up to degree TABLE_DEGREE, each degree has two tables,
built on first use: the set of its legal letters, which checks a word's
letters in one lookup, and a step table over S_N, which gives a word's
strand permutation without a list per word.  The two rewriting searches (the identity closure and the
single-word search) share one breadth-first layer loop over numpy arrays of
packed words, in which the closure expands one word per symmetry orbit;
handle reduction and the handle-state search are plain Python.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cache
from itertools import permutations, product
from operator import eq
from typing import Sequence

from .errors import BudgetExceeded

# numpy is imported by the functions of the rewriting searches that use it,
# so that importing the package for charts, handles or the CLI does not
# load it (about 14 MB of resident memory and a tenth of a second)

BACKEND = "pure"


# ---------------------------------------------------------------------------
# letter checks and per-degree tables

# The per-degree tables cover S_N, of N! elements: 720 rows at degree 6,
# 5,040 at 7 and 3.6 million at 10.  Above this degree the kernels check
# letters by min/max and compute strand permutations as lists instead, so
# that no degree allocates a table that grows with N!.
TABLE_DEGREE = 6
_INT = frozenset((int,))


@cache
def _degree_tables(degree: int) -> tuple[frozenset, tuple[dict, ...]]:
    """The legal letters of a degree <= TABLE_DEGREE and its step table.

    The permutations of S_N are numbered, the identity as 0, and step[p][v]
    is the number of permutation p followed by letter v: p's strand images
    (as strand_permutation lists them) with entries |v| and |v|+1 swapped.
    Rows are dicts keyed by the signed letter, so any letter equal to a
    legal one (True, 1.0) indexes them.  Built once per degree, on first use.
    """
    perms = list(permutations(range(degree)))  # the identity first
    number = {p: k for k, p in enumerate(perms)}
    step = []
    for p in perms:
        row = {}
        for i in range(1, degree):
            q = list(p)
            q[i - 1], q[i] = q[i], q[i - 1]
            row[i] = row[-i] = number[tuple(q)]
        step.append(row)
    return frozenset(v for i in range(1, degree) for v in (i, -i)), tuple(step)


def check_letters(values: Sequence[int], degree: int) -> tuple[dict, ...] | None:
    """Refuse with ValueError a letter that is not an integer of +-1 ..
    +-(degree-1) by value (True and 1.0 are 1).

    Returns the degree's step table (_degree_tables), or None above
    TABLE_DEGREE, where the letters are checked by min/max instead.
    """
    if degree <= TABLE_DEGREE:
        legal, step = _degree_tables(degree)
        try:
            if legal.issuperset(values):
                return step
        except TypeError:  # an unhashable letter
            pass
    else:
        try:
            # map/min/max/in run in C: far cheaper than a per-letter loop;
            # letters are read by value only when one is not an int
            if (_INT.issuperset(map(type, values)) or all(map(eq, map(int, values), values))) and (
                not values or (0 not in values and max(values) < degree and -min(values) < degree)
            ):
                return None
        except (TypeError, ValueError, OverflowError):  # int() refused a letter
            pass
    raise _letter_error(values, degree)


def _letter_error(values: Sequence[int], degree: int) -> ValueError:
    """The ValueError naming the first letter check_letters refuses."""
    for v in values:
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != v:
            return ValueError(f"letter {v!r} is not an integer")
        if not 0 < abs(i) < degree:
            return ValueError(f"letter index {abs(i)} out of range for degree {degree}")
    return ValueError(f"the letters {tuple(values)!r} are not all of +-1 .. +-{degree - 1}")


# ---------------------------------------------------------------------------
# word packing

def pack_word(values: Sequence[int], degree: int) -> int:
    """Pack a signed-letter word into one integer, leftmost letter first.

    The length lives in the low 6 bits, so words of 64 letters or more are
    refused with ValueError, and so are letters outside +-1 .. +-(degree-1),
    which would pack as some other word.
    """
    if len(values) >= 64:
        raise ValueError(f"cannot pack a word of {len(values)} letters (limit 63)")
    check_letters(values, degree)
    base = 2 * degree - 1
    acc = 0
    for v in map(int, values):
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

def free_cancel(values: Sequence[int]) -> list[int]:
    """The word with adjacent inverse pairs cancelled until none remain."""
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


def strand_permutation(values: Sequence[int], degree: int) -> list[int]:
    """Image of each strand under the word: entry x is the image of strand x.

    Strands are 1-based and entry 0 is 0.  Letters act left to right, so the
    image of strand x is what the leftmost letter sends x to, pushed through
    the rest of the word.  The letters must pass check_letters.
    """
    perm = list(range(degree + 1))
    for i in map(abs, map(int, values)):
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def dehornoy_trivial(values: Sequence[int], degree: int) -> bool:
    """Decide triviality: two invariants first, then handle reduction.

    The letters are checked first (check_letters raises ValueError).  The
    exponent sum B_N -> Z and the strand permutation B_N -> S_N are
    homomorphisms, so a word is not the identity when its exponent sum is
    not 0 (as for every word of odd length, refused by parity) or when its
    permutation is not the identity.  One sort of the letters gives the
    exponent sum; the permutation is a walk of the degree's step table from
    the identity, no list per word (above TABLE_DEGREE, strand_permutation
    builds the list).  At degree 2, B_2 is infinite cyclic and the exponent
    sum decides the word on its own.

    The words that pass both go on to handle reduction.  A handle is a
    segment e v e^-1 where e is a letter and every letter of v has strictly
    larger index.  Eliminating the leftmost-closing handle (delete the pair,
    push index i+1 letters through: x -> e^-1 x' e with the index dropped
    by the braid relation) terminates, and the result is empty exactly for
    words representing the identity.
    """
    step = check_letters(values, degree)
    if len(values) & 1:
        return False
    # with no letter 0, the exponent sum is len(values) - 2 * (negative letters)
    if 2 * bisect_left(sorted(values), 0) != len(values):
        return False
    if step is None:
        if strand_permutation(values, degree) != list(range(degree + 1)):
            return False
    else:
        p = 0
        for v in values:
            p = step[p][v]
        if p:
            return False
    w = free_cancel(values)
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
        w = free_cancel(out)
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


@cache
def _letter_tables(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables over the letter codes of pack_word, for _neighbour_blocks.

    Returns the inverse code of each code, whether two codes commute far,
    and, for each 3-letter window read as a base-(2N-1) number, the window
    after the relator move of _word_neighbors (0, never a valid window, when
    no relator move applies).  Built once per degree and read-only.
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
    for table in (inv, far, rel):
        table.flags.writeable = False
    return inv, far, rel


@cache
def _symmetry_tables(degree: int) -> tuple[int, np.ndarray]:
    """Lookup table over blocks of letter codes, for _orbit_images.

    The moves commute with three involutions of words: reverse-and-invert,
    the index flip i -> N-i and the mirror si -> Si.  The eight images of a
    word are its images under the four letter maps (identity, mirror, flip,
    both), read forwards or backwards.  Returns the letters per block, k,
    the largest with (2N-1)**k <= 2**16, and a table with one row per image
    and one column per k-letter block value: rows 0-3 hold the block's
    images forwards, rows 4-7 backwards.  Code 0, the padding above a word's
    top letter, maps to 0.  Built once per degree and read-only.
    """
    import numpy as np

    base = 2 * degree - 1
    k = 1
    while base ** (k + 1) <= 1 << 16:
        k += 1
    codes = np.arange(base)
    index, positive = (codes + 1) // 2, codes % 2 == 1
    mirror = np.where(positive, codes + 1, codes - 1)
    flip = 2 * (degree - index) - positive
    mirror[0] = flip[0] = 0
    maps = np.stack([codes, mirror, flip, mirror[flip]]).astype(np.uint64)[:, None]
    # append one letter at a time below the blocks built so far
    forward = backward = np.zeros((4, 1), dtype=np.uint64)
    for p in range(k):
        forward = (forward[:, :, None] * np.uint64(base) + maps).reshape(4, -1)
        backward = (backward[:, :, None] + maps * np.uint64(base**p)).reshape(4, -1)
    table = np.concatenate([forward, backward])
    table.flags.writeable = False
    return k, table


def _orbit_images(words: np.ndarray, length: int, degree: int) -> np.ndarray:
    """The eight images of each word of length letters, one row per image.

    The word is cut into k-letter blocks from its last letter; the top block
    may be shorter.  Block j lands at letter j*k of the forward images, and
    at letter length-(j+1)*k of the backward ones.  A short top block has
    its backward image looked up shifted up to k letters, which drops its
    padding.
    """
    import numpy as np

    base = 2 * degree - 1
    k, table = _symmetry_tables(degree)
    size = np.uint64(base**k)
    out = np.empty((8, words.size), dtype=np.uint64)
    part = np.empty(words.size, dtype=np.uint64)
    rest = words
    for j in range(max(1, -(-length // k))):
        high = rest // size
        block = (rest - high * size).astype(np.intp)
        rest = high
        back = length - (j + 1) * k
        shifted = block if back >= 0 else block * base**-back
        for row in range(8):
            at, index = (j * k, block) if row < 4 else (max(back, 0), shifted)
            into = part if j else out[row]
            np.take(table[row], index, out=into)
            if at:
                np.multiply(into, np.uint64(base**at), out=into)
            if j:
                np.add(out[row], part, out=out[row])
    return out


def _neighbour_blocks(
    words: np.ndarray, n: int, base: int, cap: int, tables
) -> list[tuple[int, np.ndarray]]:
    """Neighbours of words of n letters, grouped as (length, values).

    Words are the base-(2N-1) values of their letter codes, leftmost letter
    most significant; the moves are those of _word_neighbors.  Each move
    kind is computed for every position at once, as arrays with one row per
    position.
    """
    import numpy as np

    inv, far, rel = tables
    # powers up to base**n only: n may be the largest length that packs
    pw = np.array([base**k for k in range(max(n, 3) + 1)], dtype=np.uint64)
    # row t: the value of letters 0..t-1, of letters t..n-1, and letter t
    # (np.divmod and % are several times slower than // here)
    prefix = words // pw[n::-1, None]
    suffix = words - prefix * pw[n::-1, None]
    digits = prefix[1:] - prefix[:-1] * pw[1]

    def splice(cut: int, size: int, block) -> np.ndarray:
        # row t: the words with letters t..t+cut-1 replaced by the size
        # letters of block (row t of it)
        head = prefix[: n - cut + 1] * pw[size] + block
        return head * pw[n - cut :: -1, None] + suffix[cut:]

    out = []
    if n >= 2:
        a, b = digits[:-1], digits[1:]
        out.append((n - 2, splice(2, 0, 0)[b == inv[a]]))
        out.append((n, splice(2, 2, b * pw[1] + a)[far[a, b]]))
    if n >= 3:
        swapped = rel[(digits[:-2] * pw[1] + digits[1:-1]) * pw[1] + digits[2:]]
        out.append((n, splice(3, 3, swapped)[swapped != 0]))
    if n + 2 <= cap:
        codes = np.arange(1, base, dtype=np.uint64)
        pairs = codes * pw[1] + inv[codes]  # the inserted letter and its inverse
        head = (prefix * pw[2])[:, :, None] + pairs
        out.append((n + 2, (head * pw[n::-1, None, None] + suffix[:, :, None]).ravel()))
    return out


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, in increasing order.  Sorts values in place."""
    # sorting beats np.unique, which hashes uint64 input before sorting it;
    # sorting in place saves a copy of the largest arrays of the closure
    import numpy as np

    values.sort()
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


def _check_packs(degree: int, letters: int) -> None:
    """Refuse with ValueError a word length that pack_word cannot hold exactly."""
    if letters >= 64 or (2 * degree - 1) ** max(letters, 0) * 64 > 1 << 64:
        raise ValueError(
            f"words of {letters} letters do not pack exactly into 64 bits "
            f"at degree {degree}"
        )


def _over_budget(search: str, max_states: int, reached: int, layer: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"{search} exceeded its budget of {max_states} states: "
        f"at least {reached} states reached by layer {layer}"
    )


# candidate neighbours generated per chunk of layer words (2 MB of uint64):
# with one array row per position, chunks of 32 MB ran out of cache, made
# the closure about 15% slower and held twice the memory at its peak
_CHUNK_CANDIDATES = 1 << 18


def _each_word(new: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The unfold of _layers that expands every word of a layer."""
    return new, new


def _orbit_unfold(degree: int):
    """The unfold of _layers that expands one word per symmetry orbit.

    The new words of one length unfold to the union of their eight images,
    the layer's array of that length; the least image of each word is its
    orbit's representative, and the representatives are the words to expand.
    """

    def unfold(new: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
        images = _orbit_images(new, length, degree)
        expand = _sorted_unique(images.min(axis=0))
        return _sorted_unique(images.ravel()), expand

    return unfold


def _layers(degree: int, start: dict, cap: int, max_states: int, search: str, unfold):
    """Breadth-first layers of the rewriting moves, starting from start.

    A layer maps a word length to the sorted uint64 array of the base-(2N-1)
    values of its words of that length (the packed words without their
    length field).  Yields the start layer, then each following layer,
    expanded a whole array at a time, with intermediate words of at most cap
    letters.  The moves are invertible, so a neighbour of layer d lies in
    layer d-1, d or d+1: new words are the neighbours found in neither of
    the two latest layers.  unfold(new, length) takes the sorted new words
    of one length to the sorted array of that length in the layer and the
    words of it to expand; when the start and the moves are closed under a
    symmetry, expanding one word of each orbit finds every orbit of the
    next layer.  Raises BudgetExceeded, before yielding the layer, once
    more than max_states words have been reached.
    """
    import numpy as np

    base = 2 * degree - 1
    tables = _letter_tables(degree)
    layer: dict[int, np.ndarray] = {}
    expand: dict[int, np.ndarray] = {}
    for length, words in start.items():
        layer[length], expand[length] = unfold(words, length)
    total = sum(words.size for words in layer.values())
    previous: dict[int, np.ndarray] = {}
    depth = 0
    while layer:
        yield layer
        depth += 1
        parts: dict[int, list[np.ndarray]] = {}
        for length, words in expand.items():
            # at most: inserts, plus one cancel, swap or relator per position
            per_word = (length + 1) * (base - 1) + 3 * length + 1
            step = max(1, _CHUNK_CANDIDATES // per_word)
            for lo in range(0, words.size, step):
                blocks: dict[int, list[np.ndarray]] = {}
                for to, values in _neighbour_blocks(
                    words[lo : lo + step], length, base, cap, tables
                ):
                    blocks.setdefault(to, []).append(values)
                fresh = 0
                for to, values in blocks.items():
                    new = _sorted_unique(np.concatenate(values))
                    new = _drop_known(_drop_known(new, layer.get(to)), previous.get(to))
                    parts.setdefault(to, []).append(new)
                    fresh += new.size
                if fresh and total + fresh > max_states:
                    raise _over_budget(search, max_states, total + fresh, depth)
        previous, layer, expand = layer, {}, {}
        for to, values in parts.items():
            new = _sorted_unique(np.concatenate(values))
            if new.size:
                layer[to], expand[to] = unfold(new, to)
                total += layer[to].size
        if total > max_states:
            raise _over_budget(search, max_states, total, depth)


def identity_component(
    degree: int, universe_len: int, excursion_cap: int, max_states: int
) -> array:
    """All words of length <= universe_len reachable from the empty word.

    Breadth-first closure under the rewriting moves, with intermediate words
    allowed up to excursion_cap letters.  The closure is closed under
    reverse-and-invert, the index flip and the mirror, so each layer expands
    one word per orbit and unfolds the new words by their eight images.
    Returns the packed words as an array("Q"), layer by layer, each layer's
    words by length and then in increasing order.  Raises ValueError when
    words of excursion_cap letters cannot be packed exactly in 64 bits, and
    BudgetExceeded once more than max_states words have been reached.
    """
    _check_packs(degree, excursion_cap)
    import numpy as np

    start = {0: np.zeros(1, dtype=np.uint64)}
    out = array("Q")
    for layer in _layers(
        degree, start, excursion_cap, max_states, "component search", _orbit_unfold(degree)
    ):
        for length, words in layer.items():
            if length <= universe_len:
                out.frombytes((words * np.uint64(64) + np.uint64(length)).tobytes())
    return out


def word_reaches_identity(
    values: Sequence[int], degree: int, excursion_cap: int, max_states: int
) -> bool:
    """Whether the rewriting moves take the word to the empty word.

    Intermediate words have at most excursion_cap letters; the start word
    may be longer.  Only a 2-letter cancelling pair has the empty word as a
    neighbour, so the answer is True as soon as a layer holds one.  Raises
    ValueError when words of max(excursion_cap, len(values)) letters cannot
    be packed exactly in 64 bits, and BudgetExceeded once more than
    max_states words (the start word included) have been reached.
    """
    start = tuple(values)
    if not start:
        return True
    check_letters(start, degree)
    _check_packs(degree, max(excursion_cap, len(start)))
    import numpy as np

    base = np.uint64(2 * degree - 1)
    inv = _letter_tables(degree)[0]
    first = {len(start): np.array([pack_word(start, degree) >> 6], dtype=np.uint64)}
    for layer in _layers(degree, first, excursion_cap, max_states, "rewriting search", _each_word):
        pairs = layer.get(2)
        if pairs is not None and (pairs % base == inv[pairs // base]).any():
            return True
    return False


# ---------------------------------------------------------------------------
# integer handle-state search

State = tuple[tuple[int, int], ...]


def _inside(state: State, bound: int) -> bool:
    return all(abs(m) <= bound and abs(n) <= bound for m, n in state)


def _state_neighbors(state: State, bound: int) -> list[State]:
    """The states one move away with the pairs a move changed inside bound."""
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
    state: State, budget: int, bound: int, max_states: int
) -> list[State]:
    """States reachable from state in at most budget moves.

    States are sorted tuples of (m, n) pairs.  Moves are the integer shadows
    of the handle moves (inversion, twisting, quarter rotation, slides both
    ways, and both transfer families, the latter gated by their zero
    preconditions).  States with a coordinate outside [-bound, bound] are
    pruned; the start is kept even when it lies outside.  Raises
    BudgetExceeded once more than max_states states have been reached.
    """
    start = tuple(sorted(state))
    seen = {start}
    frontier = [start]
    for depth in range(1, budget + 1):
        nxt = []
        for s in frontier:
            neighbours = _state_neighbors(s, bound)
            if not _inside(s, bound):
                # only the start can lie outside, and a pair that no move
                # changed keeps it there
                neighbours = [t for t in neighbours if _inside(t, bound)]
            for t in neighbours:
                if t not in seen:
                    seen.add(t)
                    if len(seen) > max_states:
                        raise _over_budget("handle search", max_states, len(seen), depth)
                    nxt.append(t)
        frontier = nxt
        if not frontier:
            break
    return list(seen)
