"""Seeded inputs of the benchmark, pinned by canonical-form digests.

The inputs must not drift when the program changes, so every generated
chart is checked against a digest of its canonical form, stored in
``data/digests.json``:

* ``unbraid_charts`` reads two stored charts (``data/unbraid_*.chart``),
  made once by ``generate_blackless_chart``.
* ``cli_batch`` regenerates its small charts with ``generate_blackless_chart``
  from fixed generator seeds, and refuses any whose digest has changed.

The run's seed orders the charts and the searched words, and makes the
handle systems.  It renames no dart and picks no other charts or words:
the engine's cost depends on the dart numbering (up to 12% on the stored
charts), and a sample of charts or words would make the work differ from
seed to seed.

``python3 bench/inputs.py`` remakes the stored charts and the digest table
from these seeds; a change of either shows in ``git diff``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(BENCH_DIR, "data")
DIGESTS = os.path.join(DATA_DIR, "digests.json")

# (file stem, degree, steps, generator seed) of the stored unbraid charts
UNBRAID_CHARTS = (
    ("unbraid_v52", 4, 40, 1),
    ("unbraid_v106", 4, 80, 1),
)

# cli_batch: CLI_PER_STRATUM charts of every (degree, steps) stratum
CLI_STRATA = ((2, 6),) + tuple(
    (degree, steps) for degree in (3, 4) for steps in (6, 8, 10, 12, 14, 16)
)
CLI_PER_STRATUM = 5

RELATORS = (
    (1, 2, 1, -2, -1, -2),
    (2, 3, 2, -3, -2, -3),
    (1, 3, -1, -3),
)


class InputDrift(RuntimeError):
    """A regenerated or stored input no longer matches its digest."""


def generator_seed(degree: int, steps: int, j: int) -> int:
    return (degree * 100 + steps) * 100 + j


def chart_digest(chart) -> str:
    from handleforge.chart import canonical_chart, format_chart

    text = format_chart(canonical_chart(chart))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _checked(chart, key: str, digests: dict):
    want = digests.get(key)
    got = chart_digest(chart)
    if got != want:
        raise InputDrift(f"input {key}: canonical digest {got}, expected {want}")
    return chart


# ---------------------------------------------------------------------------
# unbraid_charts

def unbraid_inputs(seed: int, digests: dict) -> list:
    """The stored charts, in an order drawn from the run's seed."""
    from handleforge.chart import parse_chart

    out = []
    for stem, *_ in UNBRAID_CHARTS:
        with open(os.path.join(DATA_DIR, stem + ".chart"), encoding="utf-8") as fh:
            out.append((stem, _checked(parse_chart(fh.read()), stem, digests)))
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# cli_batch

def cli_chart_keys() -> list[tuple[int, int, int]]:
    return [(degree, steps, j) for degree, steps in CLI_STRATA for j in range(CLI_PER_STRATUM)]


def cli_charts(seed: int, digests: dict) -> list:
    """The small charts, in an order drawn from the run's seed."""
    from handleforge.engine import generate_blackless_chart

    out = []
    for degree, steps, j in cli_chart_keys():
        chart = generate_blackless_chart(degree, steps, random.Random(generator_seed(degree, steps, j)))
        out.append(_checked(chart, f"cli-{degree}-{steps}-{j}", digests))
    random.Random(seed).shuffle(out)
    return out


def trivial_systems(seed: int) -> list[list[tuple[str, int, int]]]:
    """(label, m, n) rows of trivially labelled systems, at least one m nonzero."""
    rng = random.Random(seed * 7 + 1)
    out = []
    for g in (1, 2, 3, 4) * 6:
        while True:
            rows = [("1", rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(g)]
            if any(m for _, m, _ in rows):
                break
        out.append(rows)
    return out


def labelled_systems(seed: int) -> list[list[tuple[str, int, int]]]:
    """(label, m, n) rows with free-group labels, at least one m nonzero."""
    rng = random.Random(seed * 7 + 2)
    out = []
    for g in (1, 2, 3) * 4:
        while True:
            rows = [
                (_label_text(rng, g), rng.randint(-20, 20), rng.randint(-20, 20))
                for _ in range(g)
            ]
            if any(m for _, m, _ in rows):
                break
        out.append(rows)
    return out


def _label_text(rng: random.Random, g: int) -> str:
    word: list[tuple[int, int]] = []
    for _ in range(rng.randint(1, 3)):
        letter = (rng.randint(1, g), rng.choice((1, -1)))
        if word and word[-1] == (letter[0], -letter[1]):
            word.pop()
        else:
            word.append(letter)
    if not word:
        return "1"
    return ".".join(f"g{gen}" + ("^-1" if sign < 0 else "") for gen, sign in word)


def oracle_systems(seed: int) -> tuple[list, list]:
    """Small systems for the oracle: trivially labelled ones and labelled ones."""
    rng = random.Random(seed * 7 + 3)
    trivial = [
        [("1", rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        for _ in range(8)
    ]
    labelled = [
        [(_label_text(rng, 2), rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
        for _ in range(4)
    ]
    return trivial, labelled


def format_system(rows, g: int) -> str:
    lines = [f"handles g={g} degree=2 pattern=e"]
    lines += [f"{label} {m} {n}" for label, m, n in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# word_problem

SEARCH_WORDS_SEED = 0


def search_words(seed: int) -> list[tuple[int, ...]]:
    """Degree-4 words of length 8 built trivial: a relator conjugated by letters.

    Each relator is conjugated by as many letters as keep the word at eight
    letters, chosen so that nothing cancels freely.  The words come from a
    fixed generator seed and the run's seed orders them: the search cost of
    one word depends on more than its length, and 24 words drawn from the
    run's seed cost up to 14% more on one seed than on another.
    """
    rng = random.Random(SEARCH_WORDS_SEED)
    letters = (1, 2, 3, -1, -2, -3)
    out = []
    for k in range(24):
        rel = RELATORS[k % len(RELATORS)]
        if rng.random() < 0.5:
            rel = tuple(-v for v in reversed(rel))
        while True:
            conj = tuple(rng.choice(letters) for _ in range((8 - len(rel)) // 2))
            word = conj + rel + tuple(-v for v in reversed(conj))
            if all(a != -b for a, b in zip(word, word[1:])):
                break
        out.append(word)
    random.Random(seed * 7 + 4).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# remaking the stored files

def remake() -> None:
    from handleforge.chart import canonical_chart, format_chart
    from handleforge.engine import generate_blackless_chart

    digests = {}
    for stem, degree, steps, gen_seed in UNBRAID_CHARTS:
        chart = canonical_chart(generate_blackless_chart(degree, steps, random.Random(gen_seed)))
        with open(os.path.join(DATA_DIR, stem + ".chart"), "w", encoding="utf-8") as fh:
            fh.write(format_chart(chart))
        digests[stem] = chart_digest(chart)
    for degree, steps, j in cli_chart_keys():
        chart = generate_blackless_chart(degree, steps, random.Random(generator_seed(degree, steps, j)))
        digests[f"cli-{degree}-{steps}-{j}"] = chart_digest(chart)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
    os.makedirs(DATA_DIR, exist_ok=True)
    remake()
    print(f"wrote {DIGESTS}")
