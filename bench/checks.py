"""Correctness checks of the benchmark's outputs.

Every check compares a result with an independent computation or with a
property the method must have, never with a stored copy of earlier output,
and raises CheckFailed with the reason.  The checks take plain values so
that bench/test_checks.py can feed them wrong results.
"""

from __future__ import annotations

import math
from collections import Counter


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# braid words

def permutation(word, degree: int) -> tuple[int, ...]:
    perm = list(range(degree + 1))
    for v in word:
        i = abs(v)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm[1:])


def check_closure_agrees(trivial_packed, component) -> None:
    """Handle reduction and closure membership decide every word alike.

    Every word up to the closure's universe length was decided, so the two
    algorithms agree on every word exactly when the words decided trivial
    are the closure's words.
    """
    closure = set(component)
    require(len(closure) == len(component), "the closure lists a word twice")
    decided = set(trivial_packed)
    require(len(decided) == len(trivial_packed), "a word was decided twice")
    missing = len(closure - decided)
    extra = len(decided - closure)
    require(
        not missing and not extra,
        f"closure and handle reduction disagree: {missing} closure words decided "
        f"nontrivial, {extra} words decided trivial outside the closure",
    )


def check_identity_permutations(trivial_words, degree: int) -> None:
    identity = tuple(range(1, degree + 1))
    for word in trivial_words:
        require(permutation(word, degree) == identity,
                f"word {word} decided trivial has a nontrivial permutation")


def check_degree2(trivial_words, max_len: int) -> None:
    """In B_2 = Z a word is trivial exactly when its exponent sum is zero."""
    by_len = Counter(len(w) for w in trivial_words)
    for word in trivial_words:
        require(sum(word) == 0, f"degree-2 word {word} decided trivial, exponent sum {sum(word)}")
    for length in range(max_len + 1):
        want = math.comb(length, length // 2) if length % 2 == 0 else 0
        require(by_len[length] == want,
                f"degree 2, length {length}: {by_len[length]} trivial words, expected {want}")


def check_searches(results) -> None:
    """results: (word, search verdict, handle-reduction verdict) per searched word.

    The words are built trivial, so handle reduction must say so; a search
    that reports a word trivial must agree with handle reduction.
    """
    for word, search, reduction in results:
        require(reduction, f"word {word} built from a relator was decided nontrivial")
        require(not search or reduction, f"search reports {word} trivial, handle reduction not")


# ---------------------------------------------------------------------------
# charts and unbraiding

def vertex_kinds(chart) -> Counter:
    return Counter(v.kind for v in chart.vertices)


def check_handle_count(count: int, attach_steps: int, c_alg_total: int, chart) -> None:
    """Attach steps equal the count, which lies in [c_alg_total, w + 2c + N - 1]."""
    kinds = vertex_kinds(chart)
    upper = kinds["white"] + 2 * kinds["crossing"] + chart.degree - 1
    require(attach_steps == count,
            f"{attach_steps} attach steps for a reported handle count of {count}")
    require(c_alg_total <= count <= upper,
            f"handle count {count} outside [{c_alg_total}, {upper}]")


def check_final_chart(final) -> None:
    """No white or crossing vertex off the handles, and no loop records."""
    chart = final.chart
    require(not chart.loops and not chart.pattern_loops, "loop records remain")
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in chart.edges:
        parent[find(e.darts[0])] = find(e.darts[1])
    for v in chart.vertices:
        for d in v.cycle[1:]:
            parent[find(d)] = find(v.cycle[0])
    on_handles = {find(d) for h in final.handles if h.feet is not None for d in h.feet}
    for v in chart.vertices:
        if v.kind in ("white", "crossing"):
            require(bool(v.cycle) and find(v.cycle[0]) in on_handles,
                    f"a {v.kind} vertex remains off the handles")


def check_round_trip(steps, claims, parsed_steps, parsed_claims) -> None:
    require(tuple(parsed_steps) == tuple(steps), "the script round trip changed the steps")
    require(tuple(parsed_claims) == tuple(claims), "the script round trip changed the claims")


def tightened_claims(claims, count: int) -> tuple[str, ...]:
    """The claims with the handle bound replaced by one below the count."""
    return tuple(c for c in claims if not c.startswith("handle-count<=")) + (
        f"handle-count<={count - 1}",
    )


# ---------------------------------------------------------------------------
# handle systems (rows are (label, m, n))

def check_thm2(rows, final_rows) -> None:
    want = math.gcd(*(abs(m) for _, m, _ in rows))
    require(final_rows[0][1] == want,
            f"thm2: first handle has m={final_rows[0][1]}, gcd of |m| is {want}")


def check_thm3(rows, final_rows) -> None:
    d = math.gcd(*(abs(m) for _, m, _ in rows))
    pairing = sum(m * n for _, m, n in rows)
    _, m, n = final_rows[-1]
    require((m, n) == (d, pairing // d),
            f"thm3: last handle ({m}, {n}), expected ({d}, {pairing // d})")


def standard_type(rows) -> tuple[str, int]:
    """(type, k) of a trivially labelled system, from its gcd and pairing parity."""
    d = math.gcd(*(v for _, m, n in rows for v in (m, n)))
    if d == 0:
        return "zero", 0
    pairing = sum(m * n for _, m, n in rows)
    return ("diagonal" if (pairing // (d * d)) % 2 else "off"), d


def check_thm1_thm4(rows, thm1, thm4) -> None:
    """thm1 and thm4 report the same (type, k), the one gcd and parity give."""
    want = standard_type(rows)
    require(thm1 == thm4, f"thm1 reports {thm1}, thm4 reports {thm4}")
    require(thm1 == want, f"thm1/thm4 report {thm1}, gcd and parity give {want}")


def check_standard_form(kind: str, k: int, final_rows) -> None:
    """The replayed system is 1(k, k) or 1(k, 0) plus zero handles."""
    nonzero = [(m, n) for _, m, n in final_rows if (m, n) != (0, 0)]
    want = {"diagonal": [(k, k)], "off": [(k, 0)], "zero": []}[kind]
    require(nonzero == want,
            f"replayed system has nonzero handles {nonzero}, {kind} type {k} needs {want}")


def check_replay_system(printed_rows, replayed_rows) -> None:
    require(list(printed_rows) == list(replayed_rows),
            "the emitted trace does not replay to the printed system")
