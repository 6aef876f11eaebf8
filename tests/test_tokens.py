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
from handleforge.engine import DecoratedSurface, certify_trace, parse_script
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

# a whole label generator or braid letter token -> the index read from it, or
# the message of the ParseError that refuses it
LETTER_TOKENS = {
    "g01": 1,
    "g0": "bad handle: bad label token 'g0'",
    "gx": "bad handle: bad label token 'gx'",
    "g-1": "bad handle: bad label token 'g-1'",
    "g１": "bad handle: bad label token 'g１'",
    "s01": 1,
    "s0": "bad pattern braid: bad braid letter 's0'",
    "S00": "bad pattern braid: bad braid letter 'S00'",
    "sx": "bad pattern braid: bad braid letter 'sx'",
    "s+1": "bad pattern braid: bad braid letter 's+1'",
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


def _label_token(tok):
    system = parse_handles(f"handles g=7 degree=2 pattern=e\n{tok} 0 0\n")
    return system.handles[0].label.word[0][0]


def _letter_token(tok):
    return parse_handles(f"handles g=0 degree=8 pattern={tok}\n").pattern_braid.letters[0]


def _label_index(tok):
    return _label_token("g" + tok)


def _letter_index(tok):
    return _letter_token("s" + tok)


READERS = [
    _chart_label, _chart_dart, _handle_m, _handle_n, _trace_index, _script_loop,
    _label_index, _letter_index,
]


@pytest.mark.parametrize("reader", READERS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("tok", list(ODD_TOKENS), ids=lambda t: repr(t)[:12])
def test_an_odd_token_gets_one_verdict_in_every_format(reader, tok):
    want = ODD_TOKENS[tok]
    if want is None:
        with pytest.raises(ParseError):
            reader(tok)
    else:
        assert reader(tok) == want


@pytest.mark.parametrize("tok", list(LETTER_TOKENS))
def test_a_label_generator_or_braid_letter_reads_its_index_as_an_integer(tok):
    read = _label_token if tok.startswith("g") else _letter_token
    want = LETTER_TOKENS[tok]
    if isinstance(want, int):
        assert read(tok) == want
    else:
        with pytest.raises(ParseError) as exc:
            read(tok)
        assert exc.value.message == want


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
        assert err == "error: line 4, column 6: an integer of 5000 digits is too long\n"

    @pytest.mark.parametrize("data, column", [
        (CHART.replace("degree=2", f"degree={LONG}"), 7),
        (CHART.replace("genus=0", f"genus={LONG}"), 16),
        (SYSTEM.replace("g=0", f"g={LONG}"), 9),
        (SYSTEM.replace("degree=2", f"degree={LONG}"), 13),
    ])
    def test_in_a_file_header(self, tmp_path, capsys, data, column):
        err = self._run(tmp_path, capsys, data)
        assert err == f"error: line 1, column {column}: an integer of 5000 digits is too long\n"

    def test_in_a_handle_system(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.SYSTEM + f"1 {LONG} 0\n")
        assert err == "error: line 3, column 3: bad handle: an integer of 5000 digits is too long\n"

    def test_in_a_handle_trace(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.SYSTEM, f"invert 1\ntwist {LONG} +\n")
        assert err == "error: line 2, column 7: bad move: an integer of 5000 digits is too long\n"

    def test_in_a_script(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.CHART, f"move cim1erase loop={LONG}\n")
        assert err == "error: line 1, column 16: an integer of 5000 digits is too long\n"

    def test_in_a_label_generator(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, self.SYSTEM + f"g{LONG} 1 0\n")
        assert err == "error: line 3, column 1: bad handle: an integer of 5000 digits is too long\n"

    def test_in_a_braid_letter(self, tmp_path, capsys):
        system = self.SYSTEM.replace("pattern=e", f"pattern=s{LONG}")
        err = self._run(tmp_path, capsys, system)
        assert err == (
            "error: line 1, column 1: bad pattern braid: an integer of 5000 digits is too long\n"
        )


# One position rule for the four formats: a ParseError is at the line and
# column where the token at fault starts.  Each row is (format, the line
# added after the format's start, column, message).
START = {
    "chart": "chart degree=4 genus=0\ndart 1\ndart 2\n",
    "handles": "handles g=1 degree=2 pattern=e\n",
    "trace": "handles g=1 degree=2 pattern=e\n1 0 0\ninvert 1\n",
    "script": "move cim1erase loop=0\n",
}
POSITIONS = {
    "a repeated token": [
        ("chart", "edge 1 1 label=1 head=1", 8, "dart 1 already used by an edge"),
        ("handles", "g1 0 g1", 6, "bad handle: expected an integer, got 'g1'"),
        ("trace", "transfer7 1 1 1", 15, "bad move: expected + or -, got '1'"),
        ("script", "move move", 6, "unknown move 'move'"),
    ],
    "an indented line": [
        ("chart", "   wobble 3", 4, "unknown directive 'wobble'"),
        ("handles", "  1 x 0", 5, "bad handle: expected an integer, got 'x'"),
        ("trace", "  twist 1 x", 11, "bad move: expected + or -, got 'x'"),
        ("script", "    move nosuch", 10, "unknown move 'nosuch'"),
        ("script", "  claim handle-mn=1", 9, "expected handle-mn=<m>,<n>"),
    ],
    "a duplicate key": [
        ("chart", "loop label=1 label=2", 14, "expected sign=+ or sign=-"),
        ("script", "move cim1add label=1 sign=+ label=1 label=1", 29, "duplicate key 'label'"),
    ],
    "a bad value": [
        ("chart", "edge 1 2 label=x head=2", 10, "expected label=<integer>"),
        ("handles", "1 0 q", 5, "bad handle: expected an integer, got 'q'"),
        ("trace", "rotate 1 up", 10, "bad move: rotation direction must be 'cw' or 'ccw'"),
        ("trace", "slide 1 under 2 A", 9, "bad move: unrecognized move syntax"),
        ("script", "move cim1erase loop=x", 16, "expected an integer, got 'x'"),
        ("script", "move attach cocore=s1.s2", 13, "bad braid letter 's1.s2'"),
        ("script", "move cim1erase loop=1 x=2", 23, "unknown key 'x'"),
        ("script", "claim handle-count<=+3", 7, "expected handle-count<=<integer>"),
        ("script", "claim handle-deco=s1", 7, "expected handle-deco=<word>,<word>"),
    ],
    "a 5,000-digit token": [
        ("chart", f"dart {LONG}", 6, "an integer of 5000 digits is too long"),
        ("handles", f"1 {LONG} 0", 3, "bad handle: an integer of 5000 digits is too long"),
        ("trace", f"twist {LONG} +", 7, "bad move: an integer of 5000 digits is too long"),
        ("script", f"move cim1erase loop={LONG}", 16, "an integer of 5000 digits is too long"),
        ("script", f"claim added-handles={LONG}", 7, "an integer of 5000 digits is too long"),
    ],
    "a bad sign": [
        ("chart", "loop label=1 sign=*", 14, "expected sign=+ or sign=-"),
        ("handles", "1 +3 0", 3, "bad handle: expected an integer, got '+3'"),
        ("trace", "twist 1 *", 9, "bad move: expected + or -, got '*'"),
        ("script", "move cim1add label=1 sign=*", 22, "expected + or -, got '*'"),
    ],
    "an unknown verb or directive": [
        ("chart", "wobble 3", 1, "unknown directive 'wobble'"),
        ("handles", "wobble 0 0", 1, "bad handle: bad label token 'wobble'"),
        ("trace", "wobble 3", 1, "bad move: unrecognized move syntax"),
        ("script", "wobble 3", 1, "expected move or claim, got 'wobble'"),
        ("script", "move nosuch", 6, "unknown move 'nosuch'"),
        ("script", "claim nosuch", 7, "unknown claim kind"),
    ],
    "a wrong token count": [
        ("chart", "edge 1 2 label=1", 1, "expected 'edge <d1> <d2> label=<i> head=<d>'"),
        ("handles", "1 0", 1, "expected 'label m n'"),
        ("trace", "invert", 1, "bad move: unrecognized move syntax"),
        ("script", "move", 1, "missing move name"),
        ("script", "move cim1erase", 6, "missing key loop"),
        ("script", "claim", 1, "empty claim"),
    ],
}
_SURFACE = DecoratedSurface(chart=Chart(degree=4, genus=0), handles=())
PARSE = {
    "chart": parse_chart,
    "handles": parse_handles,
    "trace": parse_trace,
    "script": lambda text: parse_script(text, _SURFACE),
}


@pytest.mark.parametrize(
    "fmt, line, column, message",
    [row for rows in POSITIONS.values() for row in rows],
    ids=[f"{kind}-{row[0]}-{k}" for kind, rows in POSITIONS.items() for k, row in enumerate(rows)],
)
def test_a_parse_error_points_at_its_token(fmt, line, column, message):
    with pytest.raises(ParseError) as info:
        PARSE[fmt](START[fmt] + line + "\n")
    want = (START[fmt].count("\n") + 1, column, message)
    assert (info.value.line, info.value.column, info.value.message) == want


def test_an_unreadable_claim_exits_2_before_any_move_is_replayed(tmp_path, capsys, monkeypatch):
    from importlib import resources

    from handleforge import engine

    data = resources.files("handleforge") / "data"
    script = (data / "twist_spun_trefoil.script").read_text()
    script = script.replace("claim added-handles=1", "claim handle-count<=+3")
    lineno = script.splitlines().index("claim handle-count<=+3") + 1
    (tmp_path / "s").write_text(script)
    (tmp_path / "c").write_text((data / "twist_spun_trefoil.chart").read_text())

    def replay(*args):
        raise AssertionError("a move was replayed")

    monkeypatch.setattr(engine, "apply_move", replay)
    assert cli.main(["replay", str(tmp_path / "c"), str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == (
        f"error: line {lineno}, column 7: expected handle-count<=<integer>\n"
    )


def test_a_trace_built_in_code_with_an_unreadable_claim_fails_without_raising():
    from random import Random

    from handleforge.engine import generate_blackless_chart, unbraid_without_branch

    chart = generate_blackless_chart(4, 6, Random(0))
    _, count, trace = unbraid_without_branch(DecoratedSurface(chart, ()), mode="weak")
    # no handle was spent, so the claim one below the count reads -1
    assert count == 0 and certify_trace(trace).ok
    for claim, reason in (
        ("handle-count<=-1", "expected handle-count<=<integer>"),
        ("handle-mn=1,2,3", "expected handle-mn=<m>,<n>"),
        ("nosuch", "unknown claim kind"),
    ):
        result = certify_trace(trace.replace_claims((claim,)))
        assert (result.ok, result.step, result.reason) == (False, None, f"claim {claim}: {reason}")
    # the claims are kept as written
    assert trace.replace_claims(("handle-count<=-1",)).claims == ("handle-count<=-1",)


# the parsing modules, which read every integer and sign through
# errors.read_int and errors.read_sign, and place every parse error through
# errors.TokenError.at
PARSERS = ("braid.py", "chart.py", "handles.py", "engine.py", "cli.py")
POSITION_NAMES = {"line", "lineno", "col", "column"}


def _stores_a_position(cls):
    return any(
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in POSITION_NAMES
        for node in ast.walk(cls)
    )


@pytest.mark.parametrize("name", PARSERS)
def test_no_parser_reads_digits_on_its_own(name):
    path = Path(cli.__file__).with_name(name)
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int":
            found.append((node.lineno, "int("))
        elif isinstance(node, ast.Attribute) and node.attr in ("isdecimal", "isdigit"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and (
            digits := [c for c in ("\\d", "[0-9", "[1-9") if c in str(node.value)]
        ):
            found.append((node.lineno, digits[0]))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("find", "rfind"):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ClassDef) and (
            {getattr(b, "id", None) for b in node.bases} & {"ParseError", "TokenError"}
            or _stores_a_position(node)
        ):
            found.append((node.lineno, f"class {node.name}"))
    assert not found, found
