"""Golden pins: whole CLI transcripts and normalizer traces, as digests.

Each digest is a sha256 over every byte a run produces, so a change to any
report line, exit code, error text, emitted trace or normal-form step shows
here.  Run this file as a script to print the current digests; with
`--transcript DIR` it also writes the text they hash into DIR, as
cli.txt and normalizer.txt, so that two checkouts can be diffed before a
digest is edited:

    PYTHONPATH=src python tests/test_golden.py --transcript out
"""

import contextlib
import hashlib
import io
import random
from importlib import resources

from handleforge import cli
from handleforge.chart import format_chart
from handleforge.engine import generate_blackless_chart
from handleforge.handles import (
    DecoratedHandle,
    HandleLabel,
    HandleSystem,
    classify_standard,
    format_handles,
    format_trace,
    normalize_general,
    normalize_hirose,
    normalize_with_stabilizer,
    parse_trace,
    stabilized,
)

FIXTURE_DIR = resources.files("handleforge") / "data"

FILES = {
    "tref.chart": (FIXTURE_DIR / "twist_spun_trefoil.chart").read_text(),
    "tref.script": (FIXTURE_DIR / "twist_spun_trefoil.script").read_text(),
    "sys.handles": "handles g=2 degree=3 pattern=s1\n1 2 4\n1 6 2\n",
    "words.handles": "handles g=2 degree=3 pattern=s1 S2\ng1 3 1\ng2^-1.g1 2 5\n1 0 4\n",
    "zero.handles": "handles g=1 degree=2 pattern=e\n1 0 3\n",
    "null.handles": "handles g=1 degree=2 pattern=e\n1 0 0\n",
    "bad.chart": (
        "chart degree=4 genus=0\n"
        "dart 1\ndart 2\ndart 3\ndart 4\ndart 5\ndart 6\n"
        "edge 1 2 label=1 head=1\nedge 3 4 label=1 head=3\n"
        "edge 5 6 label=1 head=5\n"
        "vertex white cycle=1,2,3,4,5\nvertex black cycle=6\n"
    ),
    "junk.chart": "chart degree=four\n",
    "odd.txt": "\n\nsomething else\n",
    "empty.txt": "",
    "tamper.script": "move ciii dart=1\n",
    "broken.script": "move nosuchmove x=1\n",
    # an illegal second step, an index out of range, and a start system
    # that is not the data system plus trivial stabilizers
    "tamper.trace": "slide 1 over 2 A\nslide 2 over 2 A\n",
    "range.trace": "invert 9\n",
    "foreign.trace": "handles g=2 degree=3 pattern=s1\n1 2 4\n1 6 3\n1 0 0\nslide 1 over 2 A\n",
    "stab.trace": "handles g=2 degree=3 pattern=s1\n1 2 4\n1 6 2\n1 0 0\ntransfer7 1 3 +\n",
    "ok.trace": "slide 1 over 2 A\n",
}


def _blackless_charts():
    return {
        f"blackless{seed}.chart": format_chart(
            generate_blackless_chart(4, steps, random.Random(seed))
        )
        for seed, steps in ((1, 12), (3, 10), (9, 14))
    }


def _commands():
    cmds = []
    for f in ("tref.chart", "sys.handles", "words.handles", "bad.chart",
              "junk.chart", "odd.txt", "empty.txt", "missing.chart"):
        cmds.append(["validate", f])
    for f in ("tref.chart", "blackless1.chart", "sys.handles", "bad.chart",
              "missing.chart"):
        cmds.append(["stats", f])
        cmds.append(["bounds", f])
    for target in ("thm1", "thm2", "thm3", "thm4"):
        for f in ("sys.handles", "words.handles", "zero.handles", "null.handles",
                  "tref.chart"):
            cmds.append(["normalize", target, f,
                         "--emit-trace", f"{target}.{f}.trace"])
    for target in ("thm1", "thm2", "thm3", "thm4"):
        for f in ("sys.handles", "words.handles"):
            cmds.append(["replay", f, f"{target}.{f}.trace"])
    for f in ("tamper.trace", "range.trace", "foreign.trace", "stab.trace",
              "ok.trace", "tref.script"):
        cmds.append(["replay", "sys.handles", f])
    for f in ("tref.script", "tamper.script", "broken.script", "missing.script"):
        cmds.append(["replay", "tref.chart", f])
    for f in ("blackless1.chart", "blackless3.chart", "blackless9.chart"):
        for mode in ("weak", "strong", "branch"):
            out = f"{f}.{mode}.script"
            cmds.append(["unbraid", f, "--mode", mode, "--emit-trace", out])
            cmds.append(["replay", f, out])
    for mode in ("weak", "strong", "branch"):
        cmds.append(["unbraid", "tref.chart", "--mode", mode,
                     "--emit-trace", f"tref.{mode}.script"])
    cmds.append(["replay", "tref.chart", "tref.branch.script"])
    cmds.append(["unbraid", "sys.handles"])
    cmds.append(["oracle", "sys.handles", "--budget", "2", "--bound", "9"])
    cmds.append(["oracle", "words.handles", "--budget", "1", "--bound", "9"])
    cmds.append(["oracle", "sys.handles", "--budget", "6", "--max-states", "5"])
    cmds.append(["oracle", "tref.chart"])
    return cmds


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_transcript(directory, record=None):
    """(digest, exit codes seen) of every command run in directory, in both
    formats; a run's emitted trace file is part of its record.  Each run is
    also appended to the list record, when given, as readable text."""
    with contextlib.chdir(directory):
        for name, text in {**FILES, **_blackless_charts()}.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        h = hashlib.sha256()
        codes = set()
        for fmt in ("text", "kv"):
            for cmd in _commands():
                argv = [*cmd, "--format", fmt]
                code, out, err = _run(argv)
                codes.add(code)
                emitted = None
                if "--emit-trace" in argv:
                    path = argv[argv.index("--emit-trace") + 1]
                    try:
                        with open(path, encoding="utf-8") as fh:
                            emitted = fh.read()
                    except OSError:
                        pass
                h.update(repr((argv, code, out, err, emitted)).encode())
                if record is not None:
                    record.append(
                        f"$ {' '.join(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n"
                        f"{err}--- emitted\n{'' if emitted is None else emitted}\n"
                    )
    return h.hexdigest(), codes


def _seeded_system(seed, trivial):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    handles = []
    for _ in range(rng.randint(1, 4)):
        word = [] if trivial else [
            (rng.randint(1, g), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))
        ]
        handles.append(DecoratedHandle(
            HandleLabel.reduce(word), rng.randint(-9, 9), rng.randint(-9, 9)
        ))
    if all(hd.m == 0 for hd in handles):
        handles[0] = DecoratedHandle(handles[0].label, 1 + seed % 5, handles[0].n)
    return HandleSystem(g, tuple(handles))


def normalizer_traces(record=None):
    """The digest of the seeded normalizer runs; each hashed text is also
    appended to the list record, when given, ending in a newline."""
    h = hashlib.sha256()

    def put(text):
        h.update(text.encode())
        if record is not None:
            record.append(text if text.endswith("\n") else text + "\n")

    for seed in range(20):
        s = _seeded_system(seed, trivial=True)
        for fn in (normalize_hirose, classify_standard):
            tag = fn(s)
            put(repr((tag.kind, tag.k)))
            put(format_trace(tag.trace))
        for system in (s, _seeded_system(seed, trivial=False)):
            for fn in (normalize_general, normalize_with_stabilizer):
                final, trace = fn(system)
                put(format_trace(trace))
                put(format_handles(final))
    return h.hexdigest()


CLI_DIGEST = "0ed3db88d00ab442a82eab987d84dc611d54491692be10f001137199931e842b"
NORMALIZER_DIGEST = "b068e3c140c88efbcafff8240b563ebe09d30adc4c9ad103f72183eb294fbbc3"


def test_cli_transcript_is_unchanged(tmp_path):
    digest, codes = cli_transcript(tmp_path)
    assert codes == {0, 1, 2, 3}
    assert digest == CLI_DIGEST


def test_normalizer_traces_are_unchanged():
    assert normalizer_traces() == NORMALIZER_DIGEST


def test_every_normalizer_trace_file_round_trips():
    starts = set()
    for seed in range(20):
        s = _seeded_system(seed, trivial=True)
        runs = [(s, fn(s).trace) for fn in (normalize_hirose, classify_standard)]
        for system in (s, _seeded_system(seed, trivial=False)):
            runs += [(system, fn(system)[1])
                     for fn in (normalize_general, normalize_with_stabilizer)]
        for system, trace in runs:
            k = len(trace.initial.handles) - len(system.handles)
            assert trace.initial == stabilized(system, k)
            assert parse_trace(format_trace(trace)) == (trace.initial, trace.steps)
            starts.add(k)
    # both plain and stabilized starts were read back
    assert starts == {0, 1}


if __name__ == "__main__":
    import argparse
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(description="Print the golden digests.")
    parser.add_argument("--transcript", metavar="DIR",
                        help="also write the text the digests hash into DIR")
    args = parser.parse_args()
    runs, traces = ([], []) if args.transcript else (None, None)
    with tempfile.TemporaryDirectory() as d:
        print("CLI_DIGEST", *cli_transcript(d, runs))
    print("NORMALIZER_DIGEST", normalizer_traces(traces))
    if args.transcript:
        out = Path(args.transcript)
        out.mkdir(parents=True, exist_ok=True)
        (out / "cli.txt").write_text("".join(runs), encoding="utf-8")
        (out / "normalizer.txt").write_text("".join(traces), encoding="utf-8")
