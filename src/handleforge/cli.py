"""Command-line front end.

Subcommands parse chart and handle-system files, dispatch to the library,
and print a report either as prose ("text") or as stable line-oriented
``key=value`` pairs ("kv") meant for golden tests and scripting.

Exit codes: 0 ok, 1 invariant violation or failed claim or illegal step,
2 parse error (including unreadable files and wrong file kinds),
3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .braid import format_word
from .chart import (  # validate_chart: bench/tracer.py wraps this binding
    InvalidChart,
    _require_valid,
    chart_stats,
    parse_chart,
    unbraiding_bounds,
    validate_chart,
)
from .engine import (
    DecoratedSurface,
    certify_trace,
    format_script,
    parse_script,
    unbraid_with_branch,
    unbraid_without_branch,
)
from .errors import ParseError, TokenError, read_int, read_lines
from .handles import (
    BudgetExceeded,
    HandleTrace,
    IllegalStep,
    classify_standard,
    count_reachable,
    format_handles,
    format_trace,
    normalize_general,
    normalize_hirose,
    normalize_with_stabilizer,
    parse_handles,
    parse_trace,
    replay_trace,
    stabilized,
    system_invariants,
)

_EXIT_CODES = (
    "exit codes: 0 ok, 1 violation or failed claim, 2 parse error, "
    "3 budget exceeded"
)


class Report:
    """Ordered key/value payload with two renderings."""

    def __init__(self, command: str):
        self.pairs: list[tuple[str, str]] = [("command", command)]

    def add(self, key: str, value) -> None:
        self.pairs.append((key, str(value)))

    def emit(self, fmt: str) -> None:
        if fmt == "kv":
            for k, v in self.pairs:
                print(f"{k}={v}")
        else:
            for k, v in self.pairs:
                print(f"{k}: {v}")


def parse_report(text: str) -> list[tuple[str, str]]:
    """Parse kv output back into its pairs; inverse of Report.emit("kv")."""
    pairs = []
    for lineno, line, _ in read_lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(lineno, 1, "expected key=value")
        pairs.append((key, value))
    return pairs


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_input(path: str):
    """Load a chart or handle-system file, keyed by its header line.

    Returns ("chart", Chart) or ("handles", HandleSystem). Charts are
    checked against the vertex/label axioms; violations raise InvalidChart.
    """
    text = _read(path)
    row = next(read_lines(text), None)
    head = row[2][0] if row else ""
    if head == "chart":
        chart = parse_chart(text)
        _require_valid(chart)
        return "chart", chart
    if head == "handles":
        return "handles", parse_handles(text)
    err = TokenError(0, f"unrecognized file kind {head!r}")
    raise err.at(*row[:2]) if row else ParseError(1, 1, str(err))


def _load(path: str, kind: str):
    got, obj = parse_input(path)
    if got != kind:
        name = "chart" if kind == "chart" else "handle system"
        raise ParseError(1, 1, f"expected a {name} file")
    return obj


def _add_system(rep: Report, system) -> None:
    rep.add("g", system.generator_count)
    rep.add("degree", system.pattern_braid.degree)
    rep.add("pattern", format_word(system.pattern_braid))
    for line in format_handles(system).splitlines()[1:]:
        rep.add("handle", line)


# Each _cmd_* returns its report and whether the command holds; main adds
# ok=true or ok=false, renders the report, and exits 0 or 1.


def _cmd_validate(args):
    rep = Report("validate")
    try:
        kind, _ = parse_input(args.file)
    except InvalidChart as exc:
        rep.add("kind", "chart")
        for v in exc.violations:
            rep.add("violation", v)
        return rep, False
    rep.add("kind", kind)
    return rep, True


def _cmd_stats(args):
    chart = _load(args.file, "chart")
    st = chart_stats(chart)
    rep = Report("stats")
    rep.add("degree", chart.degree)
    rep.add("genus", chart.genus)
    rep.add("w", st.w)
    rep.add("b", st.b)
    rep.add("c", st.c)
    rep.add("c_alg_total", st.c_alg_total)
    for (i, j), v in sorted(st.c_alg_matrix.items()):
        if v:
            rep.add(f"c_alg_{i}_{j}", v)
    return rep, True


def _cmd_bounds(args):
    chart = _load(args.file, "chart")
    b = unbraiding_bounds(chart)
    rep = Report("bounds")
    rep.add("u_w_upper", b.u_w_upper)
    rep.add("u_upper", b.u_upper)
    rep.add("u_gamma_upper", b.u_gamma_upper)
    if b.u_lower_blackless is not None:
        rep.add("u_lower_blackless", b.u_lower_blackless)
    return rep, True


_NORMALIZERS = {
    "thm1": normalize_hirose,
    "thm2": normalize_general,
    "thm3": normalize_with_stabilizer,
    "thm4": classify_standard,
}


def _cmd_normalize(args):
    system = _load(args.file, "handles")
    rep = Report("normalize")
    rep.add("target", args.target)
    if args.target in ("thm1", "thm4"):
        tag = _NORMALIZERS[args.target](system)
        rep.add("type", tag.kind)
        rep.add("k", tag.k)
        if args.target == "thm4":
            rep.add("gcd", system_invariants(system).d)
        trace = tag.trace
    else:
        final, trace = _NORMALIZERS[args.target](system)
        _add_system(rep, final)
    rep.add("trace-steps", len(trace.steps))
    if args.emit_trace:
        with open(args.emit_trace, "w", encoding="utf-8") as fh:
            fh.write(format_trace(trace))
        rep.add("trace", args.emit_trace)
    return rep, True


def _cmd_replay(args):
    kind, obj = parse_input(args.data)
    trace_text = _read(args.trace)
    rep = Report("replay")
    if kind == "chart":
        surface = DecoratedSurface(chart=obj, handles=())
        trace = parse_script(trace_text, surface)
        rep.add("kind", "script")
        rep.add("steps", len(trace.steps))
        result = certify_trace(trace)
        if result.ok:
            for claim in trace.claims:
                rep.add("claim", claim)
            return rep, True
        if result.step is not None:
            rep.add("step", result.step + 1)
        rep.add("reason", result.reason)
        return rep, False
    start, moves = parse_trace(trace_text)
    rep.add("kind", "handle-trace")
    rep.add("steps", len(moves))
    start = obj if start is None else start
    if start != stabilized(obj, len(start.handles) - len(obj.handles)):
        rep.add("reason", "trace starting system is not the data system "
                "plus trivial stabilizers")
        return rep, False
    try:
        final = replay_trace(HandleTrace(start, moves))
    except IllegalStep as exc:
        rep.add("step", exc.index + 1)
        rep.add("reason", exc.reason)
        return rep, False
    _add_system(rep, final)
    return rep, True


def _cmd_unbraid(args):
    chart = _load(args.file, "chart")
    surface = DecoratedSurface(chart=chart, handles=())
    if args.mode == "branch":
        final, count, trace = unbraid_with_branch(surface)
    else:
        final, count, trace = unbraid_without_branch(surface, mode=args.mode)
    rep = Report("unbraid")
    rep.add("mode", args.mode)
    rep.add("handles", count)
    rep.add("trace-steps", len(trace.steps))
    if args.emit_trace:
        with open(args.emit_trace, "w", encoding="utf-8") as fh:
            fh.write(format_script(trace))
        rep.add("trace", args.emit_trace)
    return rep, True


def _cmd_oracle(args):
    system = _load(args.file, "handles")
    states = count_reachable(system, args.budget, args.bound, max_states=args.max_states)
    rep = Report("oracle")
    rep.add("budget", args.budget)
    rep.add("bound", args.bound)
    rep.add("states", states)
    return rep, True


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and kept: building costs about twenty
    # times as much as parsing one command line
    parser = argparse.ArgumentParser(
        prog="handleforge",
        description=(
            "Surface-braid chart and decorated-handle toolkit: validation, "
            "statistics, unbraiding bounds, handle normal forms, and "
            "replayable proof scripts."
        ),
        epilog=_EXIT_CODES,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "kv"), default="text",
        help="report rendering (default: text)",
    )
    # only the commands that write a trace take --emit-trace
    traced = argparse.ArgumentParser(add_help=False, parents=[common])
    traced.add_argument(
        "--emit-trace", metavar="PATH",
        help="write the replayable trace of this run to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", parents=[common],
        help="check a chart or handle file against its invariants")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "stats", parents=[common],
        help="vertex counts and algebraic crossing data of a chart")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "bounds", parents=[common],
        help="unbraiding-number bounds computed from chart statistics")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser(
        "normalize", parents=[traced],
        help="run a handle-system normal form and report it")
    p.add_argument("target", choices=("thm1", "thm2", "thm3", "thm4"))
    p.add_argument("file")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser(
        "replay", parents=[common],
        help="replay a trace or proof script against its data file")
    p.add_argument("data")
    p.add_argument("trace")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser(
        "unbraid", parents=[traced],
        help="eliminate the chart into decorated handles, with certificate")
    p.add_argument("file")
    p.add_argument("--mode", choices=("weak", "strong", "branch"),
                   default="weak")
    p.set_defaults(fn=_cmd_unbraid)

    p = sub.add_parser(
        "oracle", parents=[common],
        help="bounded reachability enumeration over handle moves")
    p.add_argument("file")
    p.add_argument("--budget", type=read_int, default=6,
                   help="move budget (default: 6)")
    p.add_argument("--bound", type=read_int, default=9,
                   help="coefficient bound (default: 9)")
    p.add_argument("--max-states", type=read_int, default=200000,
                   help="state cap before giving up (default: 200000)")
    p.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rep, ok = args.fn(args)
        rep.add("ok", "true" if ok else "false")
        rep.emit(args.format)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidChart as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # last resort: report, never traceback
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
