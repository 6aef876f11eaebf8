"""Charts on surfaces as combinatorial maps.

A chart is a labelled graph embedded in an oriented surface, encoded by its
rotation system: every edge end is a dart, each vertex stores its darts in
counterclockwise order, and each edge pairs two darts. Vertices come in four
kinds with fixed degrees: black (1), free_end (1), crossing (4), white (6).
Edges carry a label in 1..degree-1 and an orientation given by naming the
dart at the head end.

Beyond the graph the chart value carries two kinds of extension records used
by the move engine: floating loops (closed vertex-free edges that cross
nothing) and pattern loops (parallel copies of a fixed curve on the carrier
surface). Neither touches the map axioms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError

VERTEX_DEGREE = {"black": 1, "free_end": 1, "crossing": 4, "white": 6}

# counterclockwise boundary word of a white vertex for the ordered pair
# (i, j): three outgoing ends, then three incoming, labels alternating
_WHITE_BASE = ((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))


class InvalidChart(ValueError):
    """An operation needed a valid chart and got violations instead."""

    def __init__(self, violations):
        text = "; ".join(violations) if violations else "invalid chart"
        super().__init__(text)
        self.violations = list(violations)


@dataclass(frozen=True)
class Vertex:
    kind: str
    cycle: tuple[int, ...]  # darts, counterclockwise


@dataclass(frozen=True)
class Edge:
    darts: tuple[int, int]
    label: int
    head: int  # which of the two darts sits at the head end


@dataclass(frozen=True)
class FloatingLoop:
    """Closed vertex-free loop record; crosses nothing.

    over holds ids of attached handles the loop runs across; it is session
    bookkeeping for the move engine and never serializes.
    """

    label: int
    sign: int
    over: frozenset = field(default_factory=frozenset)
    # pinned loops may be essential on a positive-genus surface and cannot
    # be erased in place, only absorbed
    pinned: bool = False


@dataclass(frozen=True)
class PatternLoop:
    """One parallel copy of the pattern curve, indexed along the band."""

    curve: int
    sense: int


@dataclass(frozen=True)
class Chart:
    degree: int
    genus: int
    vertices: tuple[Vertex, ...] = ()
    edges: tuple[Edge, ...] = ()
    loops: tuple[FloatingLoop, ...] = ()
    pattern_loops: tuple[PatternLoop, ...] = ()


@dataclass(eq=False)
class SurfaceMap:
    """Derived view of a chart's rotation system.

    A chart value derives its map once, on first use, and keeps it; the
    dicts are shared by every reader and must not be modified.
    """

    darts: tuple[int, ...]  # sorted
    alpha: dict  # edge involution
    sigma: dict  # counterclockwise successor at the vertex
    faces: tuple[tuple[int, ...], ...]  # face walks, each from its least dart
    edge_of: dict  # dart -> index of its edge
    edge_at: dict  # dart -> its edge
    slot_of: dict  # dart -> (vertex index, position in the cycle)
    face_of: dict  # dart -> index of its face
    face_pos: dict  # dart -> position along its face walk
    comp: dict  # dart -> least vertex index of its connected component

    @property
    def phi(self):
        """Face walk successor: sigma after alpha."""
        return {d: self.sigma[self.alpha[d]] for d in self.alpha}


@dataclass
class ChartStats:
    w: int
    b: int
    c: int
    c_alg_matrix: dict
    c_alg_total: int


@dataclass(frozen=True)
class BoundsReport:
    u_w_upper: int
    u_lower_blackless: int | None
    u_upper: int
    u_gamma_upper: int


def _derived(chart):
    """The chart's map-level violations, its SurfaceMap and its dartless vertices.

    Derived on first use and kept on the frozen value, the way BraidWord
    keeps its signed tuple; the map is None while the dart structure is
    broken.  dataclasses.replace builds a new value, which derives its own.
    """
    got = chart.__dict__.get("_derived")
    if got is None:
        got = _derive(chart)
        object.__setattr__(chart, "_derived", got)
    return got


def _derive(chart):
    out = []
    if chart.degree < 2:
        out.append(f"degree {chart.degree} must be at least 2")
    if chart.genus < 0:
        out.append(f"genus {chart.genus} must be nonnegative")
    edge_of, edge_at, alpha = {}, {}, {}
    for idx, e in enumerate(chart.edges):
        d1, d2 = e.darts
        if d1 == d2:
            out.append(f"edge {idx}: its two darts must differ")
        if d1 in edge_of:
            out.append(f"dart {d1} appears in more than one edge")
        edge_of[d1] = idx
        if d2 in edge_of:
            out.append(f"dart {d2} appears in more than one edge")
        edge_of[d2] = idx
        edge_at[d1] = edge_at[d2] = e
        alpha[d1] = d2
        alpha[d2] = d1
        if e.head != d1 and e.head != d2:
            out.append(f"edge {idx}: head {e.head} is not one of its darts")
    slot_of, sigma, bare = {}, {}, []
    for vi, v in enumerate(chart.vertices):
        cycle = v.cycle
        if not cycle:
            bare.append(vi)
            continue
        prev = cycle[-1]
        for pos, d in enumerate(cycle):
            if d in slot_of:
                out.append(f"dart {d} appears in more than one vertex cycle")
            slot_of[d] = (vi, pos)
            sigma[prev] = d
            prev = d
    if edge_of.keys() != slot_of.keys():
        for d in sorted(edge_of.keys() ^ slot_of.keys()):
            side = "edge" if d in edge_of else "vertex"
            out.append(f"dart {d} appears only on the {side} side")
    if out:
        return out, None, bare

    darts = sorted(alpha)
    faces, face_of, face_pos = [], {}, {}
    for d in darts:
        if d in face_of:
            continue
        k, walk, cur = len(faces), [], d
        while cur not in face_of:
            face_of[cur] = k
            face_pos[cur] = len(walk)
            walk.append(cur)
            cur = sigma[alpha[cur]]
        faces.append(tuple(walk))

    # components, each named by its least vertex index
    vcomp = [-1] * len(chart.vertices)
    for start, v in enumerate(chart.vertices):
        if vcomp[start] >= 0:
            continue
        vcomp[start] = start
        stack = [v.cycle]
        while stack:
            for d in stack.pop():
                w = slot_of[alpha[d]][0]
                if vcomp[w] < 0:
                    vcomp[w] = start
                    stack.append(chart.vertices[w].cycle)
    comp = {d: vcomp[vi] for d, (vi, _) in slot_of.items()}
    sm = SurfaceMap(
        darts=tuple(darts),
        alpha=alpha,
        sigma=sigma,
        faces=tuple(faces),
        edge_of=edge_of,
        edge_at=edge_at,
        slot_of=slot_of,
        face_of=face_of,
        face_pos=face_pos,
        comp=comp,
    )
    return out, sm, bare


def boundary_sequence(chart, vertex_index):
    """Counterclockwise (label, out_sign) word around one vertex."""
    edge_at = surface_map(chart).edge_at
    seq = []
    for d in chart.vertices[vertex_index].cycle:
        e = edge_at[d]
        seq.append((e.label, 1 if e.head != d else -1))
    return seq


def _match_white(seq):
    """Return ((i, j), rotation) if seq is a rotated white relator word."""
    labels = sorted({lab for lab, _ in seq})
    if len(labels) != 2 or labels[1] - labels[0] != 1:
        return None
    lo, hi = labels
    for pair in ((lo, hi), (hi, lo)):
        for rot in range(6):
            ok = True
            for p in range(6):
                want_lab, want_sign = _WHITE_BASE[(p + rot) % 6]
                if seq[p] != (pair[want_lab], want_sign):
                    ok = False
                    break
            if ok:
                return pair, rot
    return None


def _match_crossing(seq):
    """Return ((i, j), sign) if seq is a valid crossing word, else None."""
    a, b = seq[0][0], seq[1][0]
    if abs(a - b) < 2:
        return None
    for p in range(2):
        lab, sign = seq[p]
        if seq[p + 2] != (lab, -sign):
            return None
    i, j = min(a, b), max(a, b)
    p_i = next(p for p in range(4) if seq[p] == (i, 1))
    p_j = next(p for p in range(4) if seq[p] == (j, 1))
    return (i, j), (1 if p_j == (p_i + 1) % 4 else -1)


def validate_chart(chart, touched=None):
    """Check the chart axioms; returns a list of violations, empty when valid.

    The map-level axioms (degree, genus, dart structure, the loop records
    and the per-component Euler count) always run on the whole map.  The
    per-vertex and per-edge axioms run everywhere, or, given touched darts,
    only at the vertices and edges holding one of them (and at vertices
    without darts, which no dart can name).  The patch check suffices after
    a move over a valid chart: a vertex whose Vertex and Edge objects the
    move kept has the same word as before.
    """
    out, sm, bare = _derived(chart)
    if out:
        return list(out)
    if touched is None:
        vis = range(len(chart.vertices))
        eis = range(len(chart.edges))
    else:
        slot_of, edge_of = sm.slot_of, sm.edge_of
        vis = {slot_of[d][0] for d in touched if d in slot_of}
        vis = sorted(vis.union(bare))
        eis = sorted({edge_of[d] for d in touched if d in edge_of})

    out = []
    for vi in vis:
        v = chart.vertices[vi]
        if v.kind not in VERTEX_DEGREE:
            out.append(f"vertex {vi}: unknown kind {v.kind!r}")
            continue
        want = VERTEX_DEGREE[v.kind]
        if len(v.cycle) != want:
            out.append(f"vertex {vi} ({v.kind}): degree {len(v.cycle)} != {want}")
    for idx in eis:
        e = chart.edges[idx]
        if not 1 <= e.label <= chart.degree - 1:
            out.append(
                f"edge {idx}: label {e.label} out of range 1..{chart.degree - 1}"
            )
    for li, loop in enumerate(chart.loops):
        if not 1 <= loop.label <= chart.degree - 1:
            out.append(
                f"loop {li}: label {loop.label} out of range 1..{chart.degree - 1}"
            )
        if loop.sign not in (1, -1):
            out.append(f"loop {li}: sign must be +1 or -1")
    for pi, pl in enumerate(chart.pattern_loops):
        if pl.sense not in (1, -1):
            out.append(f"pattern loop {pi}: sense must be +1 or -1")
        if pl.curve < 1:
            out.append(f"pattern loop {pi}: curve index must be positive")
    if out:
        return out

    for vi in vis:
        kind = chart.vertices[vi].kind
        if kind == "white" and _match_white(boundary_sequence(chart, vi)) is None:
            out.append(
                f"vertex {vi}: white boundary word is not an adjacent-pair relator"
            )
        elif (
            kind == "crossing"
            and _match_crossing(boundary_sequence(chart, vi)) is None
        ):
            out.append(
                f"vertex {vi}: invalid crossing word, need far labels in"
                " opposite-sign diagonal pairs"
            )
    if out:
        return out

    # orientability bookkeeping: each connected component of the map has an
    # even Euler characteristic; the component genera must fit the carrier
    comp = sm.comp
    chi = {}
    for v in chart.vertices:
        root = comp[v.cycle[0]]
        chi[root] = chi.get(root, 0) + 1
    for e in chart.edges:
        root = comp[e.darts[0]]
        chi[root] -= 1
    for f in sm.faces:
        chi[comp[f[0]]] += 1
    total_genus = 0
    for root, x in chi.items():
        if x % 2 or x > 2:
            out.append(f"component at vertex {root}: impossible Euler count {x}")
        else:
            total_genus += (2 - x) // 2
    if total_genus > chart.genus:
        out.append(
            f"total component genus {total_genus} exceeds declared genus"
            f" {chart.genus}"
        )
    return out


def _require_valid(chart):
    violations = validate_chart(chart)
    if violations:
        raise InvalidChart(violations)


def surface_map(chart):
    """The chart's SurfaceMap (alpha, sigma, face walks, components)."""
    out, sm, _ = _derived(chart)
    if out:
        raise InvalidChart(out)
    return sm


def white_type(chart, vertex_index):
    """Ordered label pair and rotation offset of a white vertex's word."""
    v = chart.vertices[vertex_index]
    if v.kind != "white":
        raise ValueError(f"vertex {vertex_index} is {v.kind}, not white")
    got = _match_white(boundary_sequence(chart, vertex_index))
    if got is None:
        raise ValueError(f"vertex {vertex_index} has no valid white word")
    return got


def middle_positions(chart, vertex_index):
    """Cycle positions of the two middle ends at a white vertex."""
    _, rot = white_type(chart, vertex_index)
    return {(1 - rot) % 6, (4 - rot) % 6}


def crossing_type(chart, vertex_index):
    """Label pair (i, j) with i < j and intersection sign of a crossing."""
    v = chart.vertices[vertex_index]
    if v.kind != "crossing":
        raise ValueError(f"vertex {vertex_index} is {v.kind}, not crossing")
    got = _match_crossing(boundary_sequence(chart, vertex_index))
    if got is None:
        raise ValueError(f"vertex {vertex_index} has no valid crossing word")
    return got


def chart_stats(chart):
    """Vertex counts and the algebraic crossing matrix."""
    _require_valid(chart)
    w = b = c = 0
    matrix = {}
    for vi, v in enumerate(chart.vertices):
        if v.kind == "white":
            w += 1
        elif v.kind == "black":
            b += 1
        elif v.kind == "crossing":
            c += 1
            pair, sign = crossing_type(chart, vi)
            matrix[pair] = matrix.get(pair, 0) + sign
    total = sum(abs(x) for x in matrix.values())
    return ChartStats(w=w, b=b, c=c, c_alg_matrix=matrix, c_alg_total=total)


def is_unknotted_chart(chart):
    """True when the chart is a disjoint union of black-ended free edges."""
    _require_valid(chart)
    if chart.loops or chart.pattern_loops:
        return False
    return all(v.kind == "black" for v in chart.vertices)


def unbraiding_bounds(chart):
    """Upper and lower unknotting estimates read off the stats."""
    s = chart_stats(chart)
    n = chart.degree
    u_w = s.w + 2 * s.c + n - 1
    lower = max(0, s.c_alg_total) if s.b == 0 else None
    return BoundsReport(
        u_w_upper=u_w,
        u_lower_blackless=lower,
        u_upper=u_w + s.c_alg_total,
        u_gamma_upper=s.w + n - 1,
    )


def _rotated(cycle):
    if not cycle:
        return cycle
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def canonical_dart_map(chart):
    """Dart renaming used by canonical_chart: numbered by first appearance."""
    surface_map(chart)  # raises on a broken dart structure
    verts = sorted(
        (Vertex(v.kind, _rotated(v.cycle)) for v in chart.vertices),
        key=lambda v: (v.cycle[0] if v.cycle else float("inf"), v.kind),
    )
    remap = {}
    for v in verts:
        for d in v.cycle:
            if d not in remap:
                remap[d] = len(remap) + 1
    return remap


def canonical_chart(chart):
    """Stable renaming: darts numbered by first appearance, everything sorted.

    Idempotent, so the serialized form is byte stable.
    """
    remap = canonical_dart_map(chart)
    verts = [Vertex(v.kind, _rotated(v.cycle)) for v in chart.vertices]
    new_verts = sorted(
        (Vertex(v.kind, _rotated(tuple(remap[d] for d in v.cycle))) for v in verts),
        key=lambda v: (v.cycle[0] if v.cycle else float("inf"), v.kind),
    )
    new_edges = []
    for e in chart.edges:
        d1, d2 = sorted((remap[e.darts[0]], remap[e.darts[1]]))
        new_edges.append(Edge(darts=(d1, d2), label=e.label, head=remap[e.head]))
    new_edges.sort(key=lambda e: e.darts[0])
    loops = tuple(
        sorted(chart.loops,
               key=lambda l: (l.label, l.sign, l.pinned, tuple(sorted(l.over))))
    )
    patterns = tuple(sorted(chart.pattern_loops, key=lambda p: (p.curve, p.sense)))
    return Chart(
        degree=chart.degree,
        genus=chart.genus,
        vertices=tuple(new_verts),
        edges=tuple(new_edges),
        loops=loops,
        pattern_loops=patterns,
    )


def _sign_text(sign):
    return "+" if sign > 0 else "-"


def format_chart(chart):
    """Serialize in canonical form: header, darts, edges, vertices, records."""
    c = canonical_chart(chart)
    lines = [f"chart degree={c.degree} genus={c.genus}"]
    darts = sorted(d for e in c.edges for d in e.darts)
    lines.extend(f"dart {d}" for d in darts)
    for e in c.edges:
        lines.append(
            f"edge {e.darts[0]} {e.darts[1]} label={e.label} head={e.head}"
        )
    for v in c.vertices:
        lines.append(f"vertex {v.kind} cycle={','.join(str(d) for d in v.cycle)}")
    for loop in c.loops:
        lines.append(f"loop label={loop.label} sign={_sign_text(loop.sign)}")
    for pl in c.pattern_loops:
        lines.append(f"patternloop curve={pl.curve} sense={_sign_text(pl.sense)}")
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"^chart degree=(\d+) genus=(\d+)\s*$")


def parse_chart(text):
    """Parse the chart file format; raises ParseError with line positions."""
    degree = genus = None
    declared = set()
    in_edge = set()
    in_cycle = set()
    vertices = []
    edges = []
    loops = []
    patterns = []

    def err(lineno, raw, token, message):
        col = raw.find(token) + 1 if token and token in raw else 1
        raise ParseError(lineno, col, message)

    def kv_int(lineno, raw, token, key):
        m = re.fullmatch(key + r"=(-?\d+)", token)
        if not m:
            err(lineno, raw, token, f"expected {key}=<integer>")
        return int(m.group(1))

    def kv_sign(lineno, raw, token, key):
        m = re.fullmatch(key + r"=([+-])", token)
        if not m:
            err(lineno, raw, token, f"expected {key}=+ or {key}=-")
        return 1 if m.group(1) == "+" else -1

    def plain_int(lineno, raw, token, what):
        try:
            return int(token)
        except ValueError:
            err(lineno, raw, token, f"expected an integer {what}")

    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not saw_header:
            m = _HEADER_RE.match(line)
            if not m:
                raise ParseError(lineno, 1, "expected 'chart degree=<N> genus=<g>'")
            degree, genus = int(m.group(1)), int(m.group(2))
            saw_header = True
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "dart":
            if len(toks) != 2:
                err(lineno, raw, kind, "expected 'dart <id>'")
            d = plain_int(lineno, raw, toks[1], "dart id")
            if d < 1:
                err(lineno, raw, toks[1], "dart ids must be positive")
            if d in declared:
                err(lineno, raw, toks[1], f"dart {d} declared twice")
            declared.add(d)
        elif kind == "edge":
            if len(toks) != 5:
                err(lineno, raw, kind, "expected 'edge <d1> <d2> label=<i> head=<d>'")
            d1 = plain_int(lineno, raw, toks[1], "dart id")
            d2 = plain_int(lineno, raw, toks[2], "dart id")
            for d, tok in ((d1, toks[1]), (d2, toks[2])):
                if d not in declared:
                    err(lineno, raw, tok, f"dart {d} was never declared")
                if d in in_edge:
                    err(lineno, raw, tok, f"dart {d} already used by an edge")
            label = kv_int(lineno, raw, toks[3], "label")
            if label < 1:
                err(lineno, raw, toks[3], "labels start at 1")
            head = kv_int(lineno, raw, toks[4], "head")
            if head not in (d1, d2):
                err(lineno, raw, toks[4], f"head {head} is not one of the darts")
            in_edge.update((d1, d2))
            edges.append(Edge(darts=(d1, d2), label=label, head=head))
        elif kind == "vertex":
            if len(toks) != 3:
                err(lineno, raw, kind, "expected 'vertex <kind> cycle=<d,...>'")
            vkind = toks[1]
            if vkind not in VERTEX_DEGREE:
                err(lineno, raw, vkind, f"unknown vertex kind {vkind!r}")
            m = re.fullmatch(r"cycle=(\d+(?:,\d+)*)", toks[2])
            if not m:
                err(lineno, raw, toks[2], "expected cycle=<d,...>")
            cycle = tuple(int(x) for x in m.group(1).split(","))
            for d in cycle:
                if d not in declared:
                    err(lineno, raw, toks[2], f"dart {d} was never declared")
                if d in in_cycle:
                    err(lineno, raw, toks[2], f"dart {d} already used by a vertex")
            in_cycle.update(cycle)
            vertices.append(Vertex(kind=vkind, cycle=cycle))
        elif kind == "loop":
            if len(toks) != 3:
                err(lineno, raw, kind, "expected 'loop label=<i> sign=<+|->'")
            label = kv_int(lineno, raw, toks[1], "label")
            if label < 1:
                err(lineno, raw, toks[1], "labels start at 1")
            sign = kv_sign(lineno, raw, toks[2], "sign")
            # on a positive-genus surface a bare loop may be essential, so
            # parsed records come back pinned there
            loops.append(FloatingLoop(label=label, sign=sign, pinned=genus > 0))
        elif kind == "patternloop":
            if len(toks) != 3:
                err(lineno, raw, kind, "expected 'patternloop curve=<k> sense=<+|->'")
            curve = kv_int(lineno, raw, toks[1], "curve")
            if curve < 1:
                err(lineno, raw, toks[1], "curve indices start at 1")
            sense = kv_sign(lineno, raw, toks[2], "sense")
            patterns.append(PatternLoop(curve=curve, sense=sense))
        else:
            err(lineno, raw, kind, f"unknown directive {kind!r}")
    if not saw_header:
        raise ParseError(1, 1, "missing chart header")
    return Chart(
        degree=degree,
        genus=genus,
        vertices=tuple(vertices),
        edges=tuple(edges),
        loops=tuple(loops),
        pattern_loops=tuple(patterns),
    )
