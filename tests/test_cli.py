"""Tests for the command-line front end.

Every subcommand is exercised through main(argv), which returns the
process exit code: 0 ok, 1 violation or failed claim, 2 parse error,
3 budget exceeded. One test runs the installed console script for real.
"""

import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import handleforge
from handleforge import cli
from handleforge.chart import parse_chart, validate_chart
from handleforge.cli import main, parse_report
from handleforge.errors import ParseError

FIXTURE_DIR = resources.files("handleforge") / "data"
CHART = str(FIXTURE_DIR / "twist_spun_trefoil.chart")
SCRIPT = str(FIXTURE_DIR / "twist_spun_trefoil.script")

TRIVIAL_SYSTEM = "handles g=2 degree=3 pattern=s1\n1 2 4\n1 6 2\n"


def kv(capsys):
    out = capsys.readouterr().out
    pairs = parse_report(out)
    d = {}
    for k, v in pairs:
        d.setdefault(k, []).append(v)
    return {k: v[0] if len(v) == 1 else v for k, v in d.items()}


class TestValidate:
    def test_bundled_chart_is_ok(self, capsys):
        assert main(["validate", CHART]) == 0
        assert "ok" in capsys.readouterr().out

    def test_handle_file_is_ok(self, tmp_path, capsys):
        p = tmp_path / "sys.handles"
        p.write_text(TRIVIAL_SYSTEM)
        assert main(["validate", str(p)]) == 0

    def test_degree5_vertex_is_a_violation(self, tmp_path, capsys):
        # parses fine, fails the vertex-degree invariant
        p = tmp_path / "bad.chart"
        p.write_text(
            "chart degree=4 genus=0\n"
            "dart 1\ndart 2\ndart 3\ndart 4\ndart 5\ndart 6\n"
            "edge 1 2 label=1 head=1\nedge 3 4 label=1 head=3\n"
            "edge 5 6 label=1 head=5\n"
            "vertex white cycle=1,2,3,4,5\nvertex black cycle=6\n"
        )
        assert main(["validate", str(p)]) == 1

    def test_malformed_header_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "junk.chart"
        p.write_text("chart degree=four\n")
        assert main(["validate", str(p)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_is_a_parse_error(self, capsys):
        assert main(["validate", "/no/such/file.chart"]) == 2


class TestStats:
    def test_fixture_counts_kv(self, capsys):
        assert main(["stats", CHART, "--format", "kv"]) == 0
        d = kv(capsys)
        assert d["degree"] == "4"
        assert d["genus"] == "0"
        assert (d["w"], d["b"], d["c"]) == ("6", "6", "0")
        assert d["c_alg_total"] == "0"
        assert d["ok"] == "true"

    def test_text_mode_mentions_counts(self, capsys):
        assert main(["stats", CHART]) == 0
        out = capsys.readouterr().out
        assert "6" in out and "degree" in out

    def test_each_nonzero_algebraic_crossing_count_has_a_line(self, tmp_path, capsys):
        # one crossing of labels 1 and 3, its four ends capped by black vertices
        p = tmp_path / "crossing.chart"
        p.write_text(
            "chart degree=4 genus=0\n"
            + "".join(f"dart {d}\n" for d in range(1, 9))
            + "edge 1 5 label=1 head=5\nedge 2 6 label=3 head=6\n"
            "edge 3 7 label=1 head=3\nedge 4 8 label=3 head=4\n"
            "vertex crossing cycle=1,2,3,4\n"
            + "".join(f"vertex black cycle={d}\n" for d in range(5, 9))
        )
        assert main(["stats", str(p), "--format", "kv"]) == 0
        pairs = parse_report(capsys.readouterr().out)
        assert pairs[-3:] == [("c_alg_total", "1"), ("c_alg_1_3", "1"), ("ok", "true")]


def test_a_report_line_without_a_value_is_refused():
    with pytest.raises(ParseError) as info:
        parse_report("command=stats\nnoequals\n")
    assert str(info.value) == "line 2, column 1: expected key=value"


class TestBounds:
    def test_empty_chart_weak_bound_is_degree_minus_one(self, tmp_path, capsys):
        p = tmp_path / "empty.chart"
        p.write_text("chart degree=4 genus=0\n")
        assert main(["bounds", str(p), "--format", "kv"]) == 0
        assert kv(capsys)["u_w_upper"] == "3"

    def test_fixture_bounds(self, capsys):
        assert main(["bounds", CHART, "--format", "kv"]) == 0
        d = kv(capsys)
        assert d["u_w_upper"] == "9"
        assert d["u_gamma_upper"] == "9"


class TestNormalize:
    def _system(self, tmp_path):
        p = tmp_path / "sys.handles"
        p.write_text(TRIVIAL_SYSTEM)
        return str(p)

    def test_thm4_prints_type_and_gcd(self, tmp_path, capsys):
        assert main(["normalize", "thm4", self._system(tmp_path),
                     "--format", "kv"]) == 0
        d = kv(capsys)
        assert d["type"] == "diagonal"
        assert d["k"] == "2"
        assert d["gcd"] == "2"

    def test_thm4_emits_replayable_trace(self, tmp_path, capsys):
        out = tmp_path / "thm4.trace"
        assert main(["normalize", "thm4", self._system(tmp_path),
                     "--format", "kv", "--emit-trace", str(out)]) == 0
        d = kv(capsys)
        assert d["trace"] == str(out)
        assert out.exists()
        capsys.readouterr()
        assert main(["replay", self._system(tmp_path), str(out)]) == 0

    def test_thm1_matches_thm4_type(self, tmp_path, capsys):
        assert main(["normalize", "thm1", self._system(tmp_path),
                     "--format", "kv"]) == 0
        d = kv(capsys)
        assert d["type"] == "diagonal"
        assert d["k"] == "2"

    def test_thm2_final_entries(self, tmp_path, capsys):
        assert main(["normalize", "thm2", self._system(tmp_path),
                     "--format", "kv"]) == 0
        assert kv(capsys)["handle"] == ["1 2 10", "1 0 2"]

    def test_thm3_final_entries(self, tmp_path, capsys):
        assert main(["normalize", "thm3", self._system(tmp_path),
                     "--format", "kv"]) == 0
        assert kv(capsys)["handle"] == ["1 0 0", "1 0 0", "1 2 10"]

    def test_chart_file_is_rejected_as_parse_error(self, capsys):
        assert main(["normalize", "thm4", CHART]) == 2


class TestReplay:
    def test_bundled_proof_script_verifies(self, capsys):
        assert main(["replay", CHART, SCRIPT, "--format", "kv"]) == 0
        d = kv(capsys)
        assert d["ok"] == "true"
        assert "unknotted" in d["claim"]
        assert "added-handles=1" in d["claim"]

    def test_illegal_engine_step_reported_first(self, tmp_path, capsys):
        p = tmp_path / "bad.script"
        p.write_text("move ciii dart=1\n")
        assert main(["replay", CHART, str(p), "--format", "kv"]) == 1
        d = kv(capsys)
        assert d["ok"] == "false"
        assert d["step"] == "1"

    def test_illegal_handle_step_reported_first(self, tmp_path, capsys):
        sys_p = tmp_path / "sys.handles"
        sys_p.write_text(TRIVIAL_SYSTEM)
        tr_p = tmp_path / "bad.trace"
        tr_p.write_text("slide 1 over 2 A\nslide 2 over 2 A\n")
        assert main(["replay", str(sys_p), str(tr_p), "--format", "kv"]) == 1
        d = kv(capsys)
        assert d["step"] == "2"
        assert "distinct" in d["reason"]

    def test_handle_trace_final_system_echoed(self, tmp_path, capsys):
        sys_p = tmp_path / "sys.handles"
        sys_p.write_text(TRIVIAL_SYSTEM)
        tr_p = tmp_path / "ok.trace"
        tr_p.write_text("slide 1 over 2 A\n")
        assert main(["replay", str(sys_p), str(tr_p), "--format", "kv"]) == 0
        d = kv(capsys)
        assert d["handle"] == ["1 2 6", "1 4 2"]


class TestUnbraid:
    def test_empty_chart_needs_no_handles(self, tmp_path, capsys):
        p = tmp_path / "empty.chart"
        p.write_text("chart degree=4 genus=0\n")
        assert main(["unbraid", str(p), "--mode", "weak",
                     "--format", "kv"]) == 0
        assert kv(capsys)["handles"] == "0"

    def test_weak_trace_certifies_via_replay(self, tmp_path, capsys):
        import random

        from handleforge.chart import format_chart
        from handleforge.engine import generate_blackless_chart

        ch = generate_blackless_chart(4, 12, random.Random(11))
        p = tmp_path / "gen.chart"
        p.write_text(format_chart(ch))
        out = tmp_path / "weak.script"
        assert main(["unbraid", str(p), "--mode", "weak", "--format", "kv",
                     "--emit-trace", str(out)]) == 0
        d = kv(capsys)
        from handleforge.chart import chart_stats, parse_chart

        st = chart_stats(parse_chart(p.read_text()))
        assert int(d["handles"]) <= st.w + 2 * st.c + 3
        capsys.readouterr()
        assert main(["replay", str(p), str(out)]) == 0

    def test_weak_mode_rejects_black_vertices(self, capsys):
        assert main(["unbraid", CHART, "--mode", "weak"]) == 1

    def test_branch_mode_handles_the_fixture(self, capsys):
        assert main(["unbraid", CHART, "--mode", "branch",
                     "--format", "kv"]) == 0
        d = kv(capsys)
        assert int(d["handles"]) <= 9

    def test_unknown_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["unbraid", CHART, "--mode", "sideways"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["validate", "stats", "bounds", "replay", "oracle"])
    def test_emit_trace_is_a_usage_error_without_a_trace(self, command, tmp_path, capsys):
        out = tmp_path / "t.trace"
        files = [CHART, SCRIPT] if command == "replay" else [CHART]
        with pytest.raises(SystemExit) as info:
            main([command, *files, "--emit-trace", str(out)])
        assert info.value.code == 2
        assert "--emit-trace" in capsys.readouterr().err
        assert not out.exists()


class TestOracle:
    def test_reachable_state_count_frozen(self, tmp_path, capsys):
        p = tmp_path / "sys.handles"
        p.write_text(TRIVIAL_SYSTEM)
        assert main(["oracle", str(p), "--budget", "2", "--bound", "9",
                     "--format", "kv"]) == 0
        assert kv(capsys)["states"] == "79"

    def test_state_cap_maps_to_exit_3(self, tmp_path, capsys):
        p = tmp_path / "sys.handles"
        p.write_text(TRIVIAL_SYSTEM)
        assert main(["oracle", str(p), "--budget", "6", "--bound", "9",
                     "--max-states", "10"]) == 3


class TestReportFormat:
    def test_kv_lines_round_trip(self, capsys):
        assert main(["stats", CHART, "--format", "kv"]) == 0
        out = capsys.readouterr().out
        pairs = parse_report(out)
        assert ("command", "stats") in pairs
        # re-render and re-parse: identical
        again = "".join(f"{k}={v}\n" for k, v in pairs)
        assert parse_report(again) == pairs
        assert again == out

    def test_bundled_files_round_trip_through_parsers(self):
        from handleforge.chart import format_chart, parse_chart
        from handleforge.engine import (DecoratedSurface, format_script,
                                        parse_script)

        chart_text = (FIXTURE_DIR / "twist_spun_trefoil.chart").read_text()
        ch = parse_chart(chart_text)
        assert parse_chart(format_chart(ch)) == ch
        s = DecoratedSurface(chart=ch, handles=())
        trace = parse_script(
            (FIXTURE_DIR / "twist_spun_trefoil.script").read_text(), s)
        again = parse_script(format_script(trace), s)
        assert again.steps == trace.steps
        assert again.claims == trace.claims

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out.lower()
        assert "budget" in out.lower()


class TestConsoleScript:
    def test_installed_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "handleforge.cli", "stats", CHART],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "6" in proc.stdout


def fresh_process(argv, **kwargs):
    """Run the command line in a new interpreter importing this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(handleforge.__file__).parents[1]), COLUMNS="80")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, **kwargs)


def in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors exit with status 2
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_each_chart_is_validated_in_full_once(monkeypatch, capsys, tmp_path):
    # parse_input validates the chart, and the command's own check (stats,
    # bounds, the initial check of a replay) reads the kept verdict
    from handleforge import chart as chart_mod

    full = []
    real = chart_mod._violations

    def counting(chart, touched):
        if touched is None:
            full.append(chart)
        return real(chart, touched)

    monkeypatch.setattr(chart_mod, "_violations", counting)
    trace = str(tmp_path / "t.script")
    for argv in (
        ["stats", CHART],
        ["bounds", CHART],
        ["replay", CHART, SCRIPT],
        ["unbraid", CHART, "--mode", "branch", "--emit-trace", trace],
        ["replay", CHART, trace],
    ):
        full.clear()
        assert main(argv) == 0, argv
        assert full and len(full) == len({id(c) for c in full}), argv
    capsys.readouterr()


class TestOneProcess:
    def test_commands_in_one_process_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        system = tmp_path / "sys.handles"
        system.write_text(TRIVIAL_SYSTEM)
        commands = [
            ["stats", CHART, "--format", "kv"],
            ["unbraid", CHART, "--mode", "sideways"],  # usage error, exit 2
            ["bounds", CHART],
            ["normalize", "thm4", str(system), "--format", "kv"],
            ["oracle", str(system), "--budget", "6", "--max-states", "10"],
            ["validate", "/no/such/file.chart"],
            ["oracle", str(system), "--budget", "2", "--format", "kv"],
            ["stats", CHART, "--format", "kv"],
        ]
        codes = []
        for argv in commands:
            code, out, err = in_process(argv, capsys)
            proc = fresh_process(["-m", "handleforge.cli", *argv])
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 3, 2, 0, 0]


class TestInvalidChartReport:
    def test_each_violation_is_one_error_line(self, tmp_path, capsys):
        text = (FIXTURE_DIR / "twist_spun_trefoil.chart").read_text()
        text = re.sub(r"label=\d+", "label=9", text, count=1)
        violations = validate_chart(parse_chart(text))
        assert violations
        p = tmp_path / "bad.chart"
        p.write_text(text)
        for command in ("stats", "bounds", "unbraid"):
            assert main([command, str(p)]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"error: {v}" for v in violations], command


class TestImportFootprint:
    def test_chart_and_handle_commands_do_not_load_numpy(self, tmp_path):
        system = tmp_path / "sys.handles"
        system.write_text(TRIVIAL_SYSTEM)
        script = (
            "import sys\n"
            "from handleforge import cli\n"
            f"assert cli.main(['unbraid', {CHART!r}, '--mode', 'branch']) == 0\n"
            f"assert cli.main(['oracle', {str(system)!r}, '--budget', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        proc = fresh_process(["-c", script], check=True)
        assert proc.stdout.splitlines()[-1] == "[]"


class TestScriptGrammar:
    MOVE_AFTER_CLAIM = "move attach cocore=s1\nclaim unknotted\nmove rotate handle=1 dir=cw\n"

    def test_move_after_a_claim_is_a_parse_error(self):
        from handleforge.engine import empty_surface, parse_script
        from handleforge.errors import ParseError

        with pytest.raises(ParseError, match="move after a claim") as exc:
            parse_script(self.MOVE_AFTER_CLAIM, empty_surface(4))
        assert exc.value.line == 3

    def test_replay_of_a_move_after_a_claim_exits_2(self, tmp_path, capsys):
        p = tmp_path / "late.script"
        p.write_text(SCRIPT_TEXT.replace("claim unknotted\n", "") + "claim unknotted\n"
                     + "move rotate handle=1 dir=cw\n")
        assert main(["replay", CHART, str(p)]) == 2
        assert "move after a claim" in capsys.readouterr().err


SCRIPT_TEXT = (FIXTURE_DIR / "twist_spun_trefoil.script").read_text()
CHART_TEXT = (FIXTURE_DIR / "twist_spun_trefoil.chart").read_text()


def mutate(text, rng):
    """One random edit of a line-oriented file: drop, duplicate or swap a
    line, or change one number, sign or key=value key."""
    lines = text.splitlines()
    kind = rng.choice(("drop", "duplicate", "swap", "number", "sign", "key"))
    k = rng.randrange(len(lines))
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    else:
        tokens = lines[k].split(" ")
        t = rng.randrange(len(tokens))
        key, eq, value = tokens[t].rpartition("=")
        if kind == "number":
            value = re.sub(r"\d+", lambda m: str(rng.choice((0, 1, 2, 3, 5, 9, 40, 77, 10**6))),
                           value, count=1)
        elif kind == "sign":
            value = value.swapcase() if value[:1] in "sS" else "-" + value
        else:
            key, eq = rng.choice(("dart", "label", "head", "handle", "cycle", "bogus")), "="
        tokens[t] = key + eq + value
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestMutationFuzz:
    def test_mutants_exit_with_a_documented_code(self, tmp_path, capsys):
        # seeded mutants of the bundled chart and script: every one ends in
        # a documented exit code, never in the catch-all "internal" error
        chart, script = tmp_path / "m.chart", tmp_path / "m.script"
        codes = set()
        for seed in range(600):
            rng = random.Random(seed)
            on_chart = seed % 2 == 0
            chart.write_text(mutate(CHART_TEXT, rng) if on_chart else CHART_TEXT)
            script.write_text(SCRIPT_TEXT if on_chart else mutate(SCRIPT_TEXT, rng))
            commands = [["replay", str(chart), str(script)]]
            if on_chart:
                commands += [["validate", str(chart)], ["unbraid", str(chart), "--mode", "branch"]]
            for argv in commands:
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), (seed, argv)
                assert "internal" not in err, (seed, argv, err)
                codes.add(code)
        assert {0, 1, 2} <= codes
