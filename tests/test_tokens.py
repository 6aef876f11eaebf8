"""One rule for the integer and sign tokens of every text format.

Charts, handle systems, handle traces, move scripts and the oracle's count
options all read their integers with errors.read_int and their signs with
errors.read_sign, so an odd token gets one verdict wherever it appears.
"""

import ast
import re
from pathlib import Path

import pytest

from handleforge import cli
from handleforge.chart import Chart, parse_chart
from handleforge.engine import DecoratedSurface, parse_script
from handleforge.errors import ParseError, read_int, read_sign, sign_text
from handleforge.handles import parse_handles, parse_trace

LONG = "9" * 5000

# token -> the integer every format reads from it, or None for a ParseError
ODD_TOKENS = {
    "+3": None,
    "-0": None,
    "1_0": None,
    "３": None,  # full-width 3
    "١": None,  # Arabic-Indic 1
    "": None,
    LONG: None,
    "007": 7,
    "3": 3,
}


def _chart_label(tok):
    c = parse_chart(f"chart degree=4 genus=0\ndart 1\ndart 2\nedge 1 2 label={tok} head=2\n")
    return c.edges[0].label


def _chart_dart(tok):
    c = parse_chart(f"chart degree=4 genus=0\ndart {tok}\ndart 9\nedge 9 {tok} label=1 head=9\n")
    return c.edges[0].darts[1]


def _handle_m(tok):
    return parse_handles(f"handles g=0 degree=2 pattern=e\n1 {tok} 0\n").handles[0].m


def _handle_n(tok):
    return parse_handles(f"handles g=0 degree=2 pattern=e\n1 0 {tok}\n").handles[0].n


def _trace_index(tok):
    _, moves = parse_trace(f"twist {tok} +\n")
    return moves[0].k


def _script_loop(tok):
    surface = DecoratedSurface(chart=Chart(degree=2, genus=0), handles=())
    return parse_script(f"move cim1erase loop={tok}\n", surface).steps[0].loop


READERS = [_chart_label, _chart_dart, _handle_m, _handle_n, _trace_index, _script_loop]


@pytest.mark.parametrize("reader", READERS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("tok", list(ODD_TOKENS), ids=lambda t: repr(t)[:12])
def test_an_odd_token_gets_one_verdict_in_every_format(reader, tok):
    want = ODD_TOKENS[tok]
    if want is None:
        with pytest.raises(ParseError):
            reader(tok)
    else:
        assert reader(tok) == want


@pytest.mark.parametrize("option", ["--budget", "--bound", "--max-states"])
@pytest.mark.parametrize("tok", list(ODD_TOKENS) + ["-1"], ids=lambda t: repr(t)[:12])
def test_an_odd_token_gets_the_same_verdict_as_an_oracle_count(option, tok, capsys):
    parser = cli._build_parser()
    want = ODD_TOKENS.get(tok)
    if want is None:
        with pytest.raises(SystemExit) as info:
            parser.parse_args(["oracle", "f", option, tok])
        assert info.value.code == 2
        assert f"argument {option}: invalid" in capsys.readouterr().err
    else:
        args = parser.parse_args(["oracle", "f", option, tok])
        assert getattr(args, option[2:].replace("-", "_")) == want


class TestReader:
    def test_signed_fields_take_a_minus_before_a_nonzero_value(self):
        assert read_int("-3", signed=True) == -3
        assert read_int("-007", signed=True) == -7
        for tok in ("-0", "-00", "-", "--3", "+3", "- 3", "-３"):
            with pytest.raises(ValueError, match="^expected an integer, got "):
                read_int(tok, signed=True)
        with pytest.raises(ValueError, match="^expected an integer, got '-3'$"):
            read_int("-3")

    def test_a_token_past_the_digit_limit_says_so(self):
        for tok, signed in ((LONG, False), ("-" + LONG, True)):
            with pytest.raises(ValueError, match="^an integer of 5000 digits is too long$"):
                read_int(tok, signed=signed)

    def test_signs_read_and_write_as_plus_and_minus(self):
        assert (read_sign("+"), read_sign("-")) == (1, -1)
        assert (sign_text(1), sign_text(-1)) == ("+", "-")
        for tok in ("", "+1", "1", "−", "++"):
            with pytest.raises(ValueError, match="^expected \\+ or -, got "):
                read_sign(tok)


class TestLongIntegers:
    """An integer past int()'s digit limit in any file is a positioned
    parse error, exit 2, not an invariant violation or an internal error."""

    CHART = "chart degree=2 genus=0\ndart 1\ndart 2\nedge 1 2 label=1 head=2\n" \
            "vertex black cycle=1\nvertex black cycle=2\n"
    SYSTEM = "handles g=0 degree=2 pattern=e\n1 1 0\n"

    def _run(self, tmp_path, capsys, data, trace=None):
        paths = []
        for k, text in enumerate((data, trace) if trace is not None else (data,)):
            path = tmp_path / f"file{k}"
            path.write_text(text)
            paths.append(str(path))
        code = cli.main(["replay" if trace is not None else "validate", *paths])
        err = capsys.readouterr().err
        assert code == 2, err
        assert re.match(r"error: line [0-9]+, column [0-9]+: ", err), err
        return err

    def test_in_a_chart(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.CHART.replace("dart 2\n", f"dart 2\ndart {LONG}\n"))
        assert err.startswith("error: line 4, column 6: expected an integer dart id")

    def test_in_a_handle_system(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.SYSTEM + f"1 {LONG} 0\n")
        assert err.startswith("error: line 3, column 1: bad handle")
        assert err.endswith(": an integer of 5000 digits is too long\n")

    def test_in_a_handle_trace(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.SYSTEM, f"invert 1\ntwist {LONG} +\n")
        assert err.startswith("error: line 2, column 1: bad move")
        assert err.endswith(": an integer of 5000 digits is too long\n")

    def test_in_a_script(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.CHART, f"move cim1erase loop={LONG}\n")
        assert err == "error: line 1, column 1: an integer of 5000 digits is too long\n"


# the parsing modules, which read every integer and sign through
# errors.read_int and errors.read_sign
PARSERS = ("braid.py", "chart.py", "handles.py", "engine.py", "cli.py")


@pytest.mark.parametrize("name", PARSERS)
def test_no_parser_reads_digits_on_its_own(name):
    path = Path(cli.__file__).with_name(name)
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int":
            found.append((node.lineno, "int("))
        elif isinstance(node, ast.Attribute) and node.attr in ("isdecimal", "isdigit"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and "\\d" in str(node.value):
            found.append((node.lineno, "\\d"))
    assert not found, found
