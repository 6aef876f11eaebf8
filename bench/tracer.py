"""Layer timing from outside the program, for the benchmark's traced runs.

The tracer replaces a public function of the program by a timing wrapper
under every name through which the package's modules reach it: the
wrapper for ``chart.validate_chart`` is installed as
``handleforge.chart.validate_chart``, ``handleforge.engine.validate_chart``
and ``handleforge.cli.validate_chart``, since each module calls its own
binding, and the normal forms are also replaced in the CLI's dispatch
table.  Nothing under ``src/`` changes.

Each call of a wrapped function is a span with a parent, the innermost
wrapped call it ran inside.  Spans are kept in memory and written out when
the run ends.  Functions called millions of times ("hot") get no span of
their own: their calls are summed into a count, a total and a self time
per (parent span, function).  A span's self time is its duration minus the
time of the wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (layer, function, hot, counts states): every public function the
# benchmark times; "states" adds up len() of the results
LAYER_FUNCTIONS = (
    ("braid", "BraidWord.from_signed", True, False),
    ("braid", "is_identity", True, False),
    ("braid", "oracle_is_identity", False, False),
    ("kernels", "identity_component", False, False),
    ("kernels", "dehornoy_trivial", True, False),
    ("kernels", "word_reaches_identity", False, False),
    ("kernels", "handle_ball", False, True),
    ("chart", "parse_chart", False, False),
    ("chart", "format_chart", False, False),
    ("chart", "validate_chart", False, False),
    ("chart", "chart_stats", False, False),
    ("engine", "apply_move", False, False),
    ("engine", "unbraid_without_branch", False, False),
    ("engine", "unbraid_with_branch", False, False),
    ("engine", "certify_trace", False, False),
    ("engine", "format_script", False, False),
    ("engine", "parse_script", False, False),
    ("handles", "normalize_general", False, False),
    ("handles", "normalize_with_stabilizer", False, False),
    ("handles", "normalize_hirose", False, False),
    ("handles", "classify_standard", False, False),
    ("handles", "apply_handle_move", True, False),
    ("handles", "enumerate_reachable", False, True),
    ("cli", "main", False, False),
)


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self._stack = [[0, 0.0]]  # frames: [span id, time of wrapped calls inside]
        self._next_id = 1
        # span: [id, parent id, name, start, end, self time, states]
        self.spans: list[list] = []
        # (parent span id, name) -> [calls, total, self time, states]
        self.hot: dict[tuple[int, str], list] = {}
        self._undo: list[tuple[object, object, object]] = []  # (owner, name or key, old)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for layer in {layer for layer, _, _, _ in LAYER_FUNCTIONS}:
            importlib.import_module(f"handleforge.{layer}")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "handleforge" or name.startswith("handleforge."))
        ]
        for layer, func, hot, states in LAYER_FUNCTIONS:
            module = importlib.import_module(f"handleforge.{layer}")
            name = f"{layer}.{func}"
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                inner = self._wrap(name, original.__func__, hot, states)
                self._set(cls, meth, classmethod(inner))
                continue
            original = getattr(module, func)
            wrapper = self._wrap(name, original, hot, states)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
                    elif isinstance(value, dict):  # dispatch tables
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._set(value, key, wrapper)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def _wrap(self, name: str, fn, hot: bool, states: bool):
        stack = self._stack
        clock = time.perf_counter

        if hot:
            table = self.hot

            def hot_wrapper(*args, **kwargs):
                parent = stack[-1]
                frame = [parent[0], 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    stack.pop()
                    parent[1] += took
                    acc = table.get((frame[0], name))
                    if acc is None:
                        acc = table[(frame[0], name)] = [0, 0.0, 0.0, 0]
                    acc[0] += 1
                    acc[1] += took
                    acc[2] += took - frame[1]
                if states:
                    acc[3] += len(result)
                return result

            return hot_wrapper

        spans = self.spans

        def span_wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            span = [span_id, parent[0], name, start, start, 0.0, 0]
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                span[4] = end
                span[5] = end - start - frame[1]
            if states:
                span[6] = len(result)
            return result

        return span_wrapper

    # -- reading ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, s (inclusive time), self_s and states."""
        out = {
            f"{layer}.{func}": {"calls": 0, "s": 0.0, "self_s": 0.0, "states": 0}
            for layer, func, _, _ in LAYER_FUNCTIONS
        }
        for _, _, name, start, end, self_s, states in self.spans:
            acc = out[name]
            acc["calls"] += 1
            acc["s"] += end - start
            acc["self_s"] += self_s
            acc["states"] += states
        for (_, name), (calls, total, self_s, states) in self.hot.items():
            acc = out[name]
            acc["calls"] += calls
            acc["s"] += total
            acc["self_s"] += self_s
            acc["states"] += states
        return out

    def write(self, path: str) -> None:
        doc = {
            "span_fields": ["id", "parent", "name", "start", "end", "self_s", "states"],
            "spans": self.spans,
            "aggregated_fields": ["parent", "name", "calls", "s", "self_s", "states"],
            "aggregated": [[parent, name, *a] for (parent, name), a in sorted(self.hot.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
