"""The benchmark's workloads: inputs, one timed round, and the checks.

A workload's ``setup`` makes its inputs and may run several times;
``round`` runs the timed operations once and returns a Round; ``check``
raises checks.CheckFailed unless every output of the run is right.  Every
call into the program goes through the module attribute at call time, so
the tracer's wrappers see it.  A round times its work in calls of a few
tenths of a second, each through a Meter (meter.py), which gives its time
at reference speed as well as the time measured.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from itertools import product

import checks
import inputs
from checks import require
from meter import Meter


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # timed calls, as measured
    ref_s: float = 0.0  # the same calls at reference speed
    ops: int = 0  # the units of ref_ops_per_s
    ops_ref_s: float = 0.0  # reference time of the calls that ran them
    figures: dict = field(default_factory=dict)  # name: (value, unit)

    def add(self, took: float, ref: float) -> None:
        self.wall_s += took
        self.ref_s += ref


# ---------------------------------------------------------------------------

class WordProblem:
    """Identity closure, every short word decided, single-word searches.

    op: one word built by BraidWord.from_signed and decided by is_identity.
    """

    DEGREE, UNIVERSE, CAP, MAX_STATES = 4, 8, 10, 40_000_000
    WORDS_MAX = {2: 8, 4: 6}  # every word up to this length is decided
    CHUNK = 20_000  # words per timed call
    SEARCH_EXTRA, SEARCH_STATES = 2, 200_000

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.rounds: list[tuple] = []

    def setup(self) -> None:
        from handleforge import braid

        self.search = [
            braid.BraidWord.from_signed(self.DEGREE, w) for w in inputs.search_words(self.seed)
        ]
        self.chunks = []  # (degree, words)
        for degree, max_len in self.WORDS_MAX.items():
            letters = [v for i in range(1, degree) for v in (i, -i)]
            words = [w for n in range(max_len + 1) for w in product(letters, repeat=n)]
            self.chunks += [
                (degree, words[i:i + self.CHUNK]) for i in range(0, len(words), self.CHUNK)
            ]
        self.words = sum(len(words) for _, words in self.chunks)

    @staticmethod
    def _decide(degree: int, words) -> list:
        from handleforge import braid

        from_signed, is_identity = braid.BraidWord.from_signed, braid.is_identity
        return [vals for vals in words if is_identity(from_signed(degree, vals))]

    @staticmethod
    def _searches(words, extra: int, states: int) -> list:
        from handleforge import braid

        verdicts = []
        for word in words:
            try:
                verdicts.append(braid.oracle_is_identity(word, len(word) + extra, states))
            except RuntimeError:
                verdicts.append(None)
        return verdicts

    def round(self, meter: Meter) -> Round:
        from handleforge import kernels

        r = Round()
        component, took, closure_ref = meter.time(
            kernels.identity_component, self.DEGREE, self.UNIVERSE, self.CAP, self.MAX_STATES
        )
        r.add(took, closure_ref)

        trivial: dict[int, list] = {degree: [] for degree in self.WORDS_MAX}
        for degree, words in self.chunks:
            found, took, ref = meter.time(self._decide, degree, words)
            trivial[degree] += found
            r.add(took, ref)
            r.ops_ref_s += ref

        verdicts, took, search_ref = meter.time(
            self._searches, self.search, self.SEARCH_EXTRA, self.SEARCH_STATES
        )
        r.add(took, search_ref)
        r.failed = sum(v is None for v in verdicts)

        r.ops = self.words
        r.attempted = 1 + self.words + len(self.search)
        r.figures = {
            "closure_ref_s": (closure_ref, "s"),
            "search_ref_s": (search_ref, "s"),
        }
        self.rounds.append((component, trivial, verdicts))
        return r

    def check(self) -> None:
        from handleforge import braid, kernels

        max_len = self.WORDS_MAX[self.DEGREE]
        reduced = [braid.is_identity(w) for w in self.search]
        for component, trivial, verdicts in self.rounds:
            words = trivial[self.DEGREE]
            packed = [kernels.pack_word(w, self.DEGREE) for w in words]
            # the closure holds the trivial words up to UNIVERSE letters;
            # every word up to max_len was decided
            short = [c for c in component if len(kernels.unpack_word(c, self.DEGREE)) <= max_len]
            checks.check_closure_agrees(packed, short)
            checks.check_identity_permutations(words, self.DEGREE)
            checks.check_degree2(trivial[2], self.WORDS_MAX[2])
            checks.check_searches(
                (w.signed(), v, by_reduction)
                for w, v, by_reduction in zip(self.search, verdicts, reduced) if v is not None
            )


# ---------------------------------------------------------------------------

class UnbraidCharts:
    """Weak unbraiding of two stored charts, script round trip, certification.

    op: one chart move, made by unbraid_without_branch or replayed by
    certify_trace.
    """

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.results: list[tuple] = []

    def setup(self) -> None:
        self.charts = inputs.unbraid_inputs(self.seed, inputs.load_digests())

    @staticmethod
    def _round_trip(trace, surface):
        from handleforge import engine

        text = engine.format_script(trace)
        return text, engine.parse_script(text, surface)

    def round(self, meter: Meter) -> Round:
        from handleforge import engine

        r = Round()
        unbraid_ref = certify_ref = 0.0
        for stem, chart in self.charts:
            surface = engine.DecoratedSurface(chart, ())
            r.attempted += 4
            try:
                (final, count, trace), took, ref = meter.time(
                    engine.unbraid_without_branch, surface, mode="weak"
                )
                r.add(took, ref)
                unbraid_ref += ref
                (text, parsed), took, ref = meter.time(self._round_trip, trace, surface)
                r.add(took, ref)
                result, took, ref = meter.time(engine.certify_trace, parsed)
                r.add(took, ref)
                certify_ref += ref
            except Exception:  # count the chart as failed and go on
                traceback.print_exc()
                meter.fresh()
                r.failed += 4
                continue
            r.ops += len(trace.steps) + len(parsed.steps)
            self.results.append((stem, chart, final, count, trace, text, parsed, result))
        r.ops_ref_s = unbraid_ref + certify_ref
        r.figures = {
            "unbraid_ref_s": (unbraid_ref, "s"),
            "certify_ref_s": (certify_ref, "s"),
            "moves": (r.ops, "count"),
        }
        return r

    def check(self) -> None:
        from handleforge import chart as chart_mod
        from handleforge import engine

        for stem, chart, final, count, trace, text, parsed, result in self.results:
            require(result.ok, f"{stem}: certify_trace refused the trace: {result.reason}")
            attach = sum(line.startswith("move attach ") for line in text.splitlines())
            c_alg = chart_mod.chart_stats(chart).c_alg_total
            checks.check_handle_count(count, attach, c_alg, chart)
            checks.check_final_chart(final)
            checks.check_final_chart(result.final)
            checks.check_round_trip(trace.steps, trace.claims, parsed.steps, parsed.claims)
        if not self.results:
            return
        # certification replays every move again, so the tightened claim is
        # tried on the smallest chart only
        stem, chart, final, count, trace, text, parsed, result = min(
            self.results, key=lambda x: len(x[4].steps)
        )
        tight = engine.certify_trace(parsed.replace_claims(checks.tightened_claims(parsed.claims, count)))
        require(not tight.ok, f"{stem}: certification accepts handle-count<={count - 1}")


# ---------------------------------------------------------------------------

def _kv(text: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out.setdefault(key, []).append(value)
    return out


def _rows(kv: dict) -> list[tuple[str, int, int]]:
    rows = []
    for line in kv.get("handle", []):
        label, m, n = line.split()
        rows.append((label, int(m), int(n)))
    return rows


class CliBatch:
    """cli.main over hundreds of small charts, the bundled example and handle systems.

    op: one cli.main(argv) call, run in-process with its output captured.
    """

    ORACLE_TRIVIAL = ("--budget", "4", "--bound", "6", "--max-states", "200000")
    ORACLE_LABELLED = ("--budget", "2", "--bound", "6", "--max-states", "200000")
    BATCH = 60  # commands per timed call

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.dir = work_dir
        self.outputs: list[list[tuple[int, str]]] = []

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _write(self, name: str, text: str) -> None:
        with open(self._path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def setup(self) -> None:
        import handleforge
        from handleforge import chart as chart_mod

        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.charts = []  # (name, Chart)
        for i, chart in enumerate(inputs.cli_charts(self.seed, inputs.load_digests())):
            name = f"c{i:03d}"
            self._write(name + ".chart", chart_mod.format_chart(chart))
            self.charts.append((name, chart))
        data = os.path.join(os.path.dirname(handleforge.__file__), "data")
        for ext in ("chart", "script"):
            shutil.copy(os.path.join(data, "twist_spun_trefoil." + ext), self._path("bundled." + ext))
        with open(self._path("bundled.chart"), encoding="utf-8") as fh:
            self.bundled = chart_mod.parse_chart(fh.read())
        self.trivial = inputs.trivial_systems(self.seed)
        self.labelled = inputs.labelled_systems(self.seed)
        self.oracle_trivial, self.oracle_labelled = inputs.oracle_systems(self.seed)
        for prefix, systems, g in (
            ("t", self.trivial, 0), ("l", self.labelled, 3),
            ("ot", self.oracle_trivial, 0), ("ol", self.oracle_labelled, 2),
        ):
            for j, rows in enumerate(systems):
                self._write(f"{prefix}{j:02d}.handles", inputs.format_system(rows, g))
        self.commands = self._commands()

    def _commands(self) -> list[list[str]]:
        p = self._path
        cmds = []
        for name in [n for n, _ in self.charts] + ["bundled"]:
            chart = p(name + ".chart")
            cmds += [["validate", chart], ["stats", chart], ["bounds", chart]]
            modes = ("branch",) if name == "bundled" else ("weak", "strong", "branch")
            for mode in modes:
                cmds.append(["unbraid", chart, "--mode", mode, "--emit-trace", p(f"{name}.{mode}.script")])
            for mode in modes:
                cmds.append(["replay", chart, p(f"{name}.{mode}.script")])
        cmds.append(["replay", p("bundled.chart"), p("bundled.script")])
        for prefix, systems, targets in (
            ("t", self.trivial, ("thm1", "thm2", "thm3", "thm4")),
            ("l", self.labelled, ("thm2", "thm3")),
        ):
            for j in range(len(systems)):
                system = p(f"{prefix}{j:02d}.handles")
                for thm in targets:
                    cmds.append(["normalize", thm, system, "--emit-trace", p(f"{prefix}{j:02d}.{thm}.trace")])
                for thm in targets:
                    cmds.append(["replay", system, p(f"{prefix}{j:02d}.{thm}.trace")])
        for prefix, systems, flags in (
            ("ot", self.oracle_trivial, self.ORACLE_TRIVIAL),
            ("ol", self.oracle_labelled, self.ORACLE_LABELLED),
        ):
            for j in range(len(systems)):
                cmds.append(["oracle", p(f"{prefix}{j:02d}.handles"), *flags])
        return [c + ["--format", "kv"] for c in cmds]

    @staticmethod
    def _run(batch) -> list[tuple[int, str, float]]:
        """(exit code, output, seconds) of each command of the batch."""
        from handleforge import cli

        clock = time.perf_counter
        sink = io.StringIO()
        done = []
        for argv in batch:
            out = io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            done.append((code, out.getvalue(), clock() - t))
        return done

    def round(self, meter: Meter) -> Round:
        r = Round()
        lat = []  # per command, at reference speed
        outputs = []
        for i in range(0, len(self.commands), self.BATCH):
            done, took, ref = meter.time(self._run, self.commands[i:i + self.BATCH])
            r.add(took, ref)
            lat += [t * ref / took for _, _, t in done]
            outputs += [(code, text) for code, text, _ in done]
        r.attempted = len(self.commands)
        r.failed = sum(code != 0 for code, _ in outputs)
        r.ops, r.ops_ref_s = len(lat), r.ref_s
        r.figures = {
            "command_ref_p50_ms": (1000 * statistics.median(lat), "ms"),
            "command_ref_p90_ms": (1000 * statistics.quantiles(lat, n=10)[-1], "ms"),
            "command_samples": (len(lat), "count"),
        }
        self.outputs.append(outputs)
        return r

    def check(self) -> None:
        last = self.outputs[-1]
        for outputs in self.outputs:
            require(outputs == last, "a command's output differs between rounds")
        out = {}
        for argv, (code, text) in zip(self.commands, last):
            if code == 0:
                out[tuple(argv[:-2])] = _kv(text)
        p = self._path
        for name, chart in self.charts + [("bundled", self.bundled)]:
            self._check_chart(name, chart, out)
        replay = out[("replay", p("bundled.chart"), p("bundled.script"))]
        require(replay["ok"] == ["true"], "the bundled script no longer replays")
        for j, rows in enumerate(self.trivial):
            self._check_system(f"t{j:02d}", rows, ("thm1", "thm2", "thm3", "thm4"), out)
        for j, rows in enumerate(self.labelled):
            self._check_system(f"l{j:02d}", rows, ("thm2", "thm3"), out)
        self._check_oracle(out)

    def _check_chart(self, name: str, chart, out) -> None:
        from handleforge import engine

        p = self._path
        path = p(name + ".chart")
        kinds = checks.vertex_kinds(chart)
        require(out[("validate", path)]["ok"] == ["true"], f"{name}: validate refused the chart")
        stats = out[("stats", path)]
        require((int(stats["w"][0]), int(stats["c"][0])) == (kinds["white"], kinds["crossing"]),
                f"{name}: stats disagree with the chart's vertex kinds")
        upper = kinds["white"] + 2 * kinds["crossing"] + chart.degree - 1
        require(int(out[("bounds", path)]["u_w_upper"][0]) == upper,
                f"{name}: u_w_upper is not w + 2c + N - 1 = {upper}")
        c_alg = int(stats["c_alg_total"][0])
        surface = engine.DecoratedSurface(chart, ())
        modes = ("branch",) if name == "bundled" else ("weak", "strong", "branch")
        for mode in modes:
            script = p(f"{name}.{mode}.script")
            unbraid = out[("unbraid", path, "--mode", mode, "--emit-trace", script)]
            replay = out[("replay", path, script)]
            require(replay["ok"] == ["true"], f"{name} {mode}: the emitted trace does not certify")
            with open(script, encoding="utf-8") as fh:
                text = fh.read()
            count = int(unbraid["handles"][0])
            attach = sum(line.startswith("move attach ") for line in text.splitlines())
            checks.check_handle_count(count, attach, c_alg, chart)
            trace = engine.parse_script(text, surface)
            require(len(trace.steps) == int(unbraid["trace-steps"][0]),
                    f"{name} {mode}: the script has another number of steps than reported")
            again = engine.parse_script(engine.format_script(trace), surface)
            checks.check_round_trip(trace.steps, trace.claims, again.steps, again.claims)
            if mode != modes[0]:
                continue  # certification replays every move, so once per chart
            result = engine.certify_trace(trace)
            require(result.ok, f"{name} {mode}: certify_trace refused the trace")
            checks.check_final_chart(result.final)
            tight = engine.certify_trace(trace.replace_claims(checks.tightened_claims(trace.claims, count)))
            require(not tight.ok, f"{name} {mode}: certification accepts handle-count<={count - 1}")

    def _check_system(self, prefix: str, rows, targets, out) -> None:
        p = self._path
        system = p(prefix + ".handles")
        tags = {}
        for thm in targets:
            trace = p(f"{prefix}.{thm}.trace")
            norm = out[("normalize", thm, system, "--emit-trace", trace)]
            replayed = _rows(out[("replay", system, trace)])
            if thm in ("thm1", "thm4"):
                tags[thm] = (norm["type"][0], int(norm["k"][0]))
                checks.check_standard_form(*tags[thm], replayed)
            else:
                printed = _rows(norm)
                checks.check_replay_system(printed, replayed)
                (checks.check_thm2 if thm == "thm2" else checks.check_thm3)(rows, printed)
        if "thm1" in tags:
            checks.check_thm1_thm4(rows, tags["thm1"], tags["thm4"])

    def _check_oracle(self, out) -> None:
        from handleforge import handles

        budget, bound = int(self.ORACLE_TRIVIAL[1]), int(self.ORACLE_TRIVIAL[3])
        for prefix, systems, flags in (
            ("ot", self.oracle_trivial, self.ORACLE_TRIVIAL),
            ("ol", self.oracle_labelled, self.ORACLE_LABELLED),
        ):
            for j in range(len(systems)):
                path = self._path(f"{prefix}{j:02d}.handles")
                states = int(out[("oracle", path, *flags)]["states"][0])
                require(1 <= states <= int(flags[5]), f"{prefix}{j:02d}: {states} states")
                if prefix != "ot":
                    continue
                with open(path, encoding="utf-8") as fh:
                    system = handles.parse_handles(fh.read())
                slow = handles.enumerate_reachable(
                    system, budget, bound, max_states=int(flags[5]), force_slow=True
                )
                require(states == len(slow),
                        f"{prefix}{j:02d}: kernel ball has {states} states, object-level search {len(slow)}")


WORKLOADS = {
    "word_problem": WordProblem,
    "unbraid_charts": UnbraidCharts,
    "cli_batch": CliBatch,
}
