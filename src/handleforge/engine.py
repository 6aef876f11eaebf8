"""Moves on decorated surfaces: a chart plus attached 1-handles.

Every move is a small frozen dataclass naming its site.  apply_move checks
the preconditions, builds the rewritten surface, and returns it together
with a move that undoes the step exactly.  On top of the single-step layer
sit a legal-site enumerator, a random chart generator, three unbraiding
strategies that emit replayable traces, an independent trace certifier,
and a line-oriented script format for traces.

States are immutable; an applier either returns a fresh surface or raises
one of the ValueError subclasses below without side effects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .braid import BraidWord, format_word, free_reduce, parse_word
from .chart import (
    Chart,
    Edge,
    FloatingLoop,
    Vertex,
    canonical_chart,
    canonical_dart_map,
    chart_stats,
    crossing_type,
    middle_positions,
    surface_map,
    validate_chart,
    white_type,
)
from .errors import ParseError


class SiteMismatch(ValueError):
    """The named site does not support this move in the current state."""


class BlackVertexInCIRegion(ValueError):
    """A black vertex interrupts a region that a CI-type move must clear."""


class LabelConstraintViolated(ValueError):
    """Edge or record labels do not satisfy the move's label condition."""


class MissingGeneratorHandles(ValueError):
    """A conversion needs a clean handle for every generator label."""


class NonTrivialHandle(ValueError):
    """The handle's decoration is not in the shape this move requires."""


class NonCommutingDecoration(ValueError):
    """Loop and cocore letters of a standard handle must far-commute."""


class HasBlackVertices(ValueError):
    """The blackless unbraiding strategies refuse charts with black ends."""


class NotRepeatedPattern(ValueError):
    """The surface is not in the coiled single-handle normal position."""


# ---------------------------------------------------------------------------
# decorated surfaces


@dataclass(frozen=True)
class AttachedHandle:
    """One attached 1-handle.

    feet are the two free-end darts of its spanning edge, or None when the
    handle has no edge of its own.  coreloop is the braid word spelled by
    the loops riding the core circle.  mn marks a coiled handle carrying a
    repeated pattern, as a (multiplicity, twist) pair.
    """

    id: int
    coreloop: BraidWord
    feet: tuple[int, int] | None = None
    mn: tuple[int, int] | None = None


@dataclass(frozen=True)
class DecoratedSurface:
    chart: Chart
    handles: tuple[AttachedHandle, ...] = ()


def empty_surface(degree: int, genus: int = 0) -> DecoratedSurface:
    return DecoratedSurface(Chart(degree=degree, genus=genus), ())


def _handle(s: DecoratedSurface, hid: int) -> AttachedHandle:
    for h in s.handles:
        if h.id == hid:
            return h
    raise SiteMismatch(f"no handle {hid}")


def _span_edge(s: DecoratedSurface, h: AttachedHandle) -> Edge | None:
    """The clean spanning edge joining the handle's two feet, if any."""
    if h.feet is None:
        return None
    for e in s.chart.edges:
        if set(e.darts) == set(h.feet):
            return e
    return None


def derived_cocore(s: DecoratedSurface, hid: int) -> BraidWord | None:
    """Cocore word read off the spanning edge; None when threaded."""
    h = _handle(s, hid)
    n = s.chart.degree
    if h.feet is None:
        return BraidWord(n)
    e = _span_edge(s, h)
    if e is None:
        return None
    sign = 1 if e.head == h.feet[1] else -1
    return BraidWord.from_signed(n, (e.label * sign,))


def _handle_key(s, remap):
    out = []
    for h in s.handles:
        feet = () if h.feet is None else tuple(remap[d] for d in h.feet)
        out.append((h.feet is None, feet, h.coreloop.signed(), h.mn or ()))
    return tuple(sorted(out))


def surfaces_equal(a: DecoratedSurface, b: DecoratedSurface) -> bool:
    """Equality up to dart renaming and handle id renumbering."""
    if canonical_chart(a.chart) != canonical_chart(b.chart):
        return False
    return _handle_key(a, canonical_dart_map(a.chart)) == _handle_key(
        b, canonical_dart_map(b.chart)
    )


# ---------------------------------------------------------------------------
# move vocabulary


@dataclass(frozen=True)
class CIM1Add:
    """Spawn a vertex-free loop record."""

    label: int
    sign: int
    index: int | None = None


@dataclass(frozen=True)
class CIM1Erase:
    loop: int


@dataclass(frozen=True)
class CIM2Split:
    """Pinch a loop record off an edge; the edge itself is unchanged."""

    dart: int
    sign: int
    index: int | None = None


@dataclass(frozen=True)
class CIM2Absorb:
    dart: int
    loop: int


@dataclass(frozen=True)
class CIM2Reconnect:
    """Cut the edges at two counterdirected darts and swap their partners."""

    a: int
    b: int


@dataclass(frozen=True)
class CIR2Insert:
    """Push two far-labelled strands across each other, making two crossings."""

    a: int
    b: int


@dataclass(frozen=True)
class CIR2Bootstrap:
    """Realize two far-labelled loop records as a pair of crossed circles."""

    i: int
    j: int


@dataclass(frozen=True)
class CIR2Straighten:
    """Cancel two adjacent opposite crossings of the same strand pair."""

    a: int
    b: int


@dataclass(frozen=True)
class CIISweep:
    """Sweep a lone black end across a far-labelled strand."""

    black: int
    target: int


@dataclass(frozen=True)
class CIIRetract:
    dart: int


@dataclass(frozen=True)
class CIIIEliminate:
    """Absorb a black-capped non-middle branch, deleting its white vertex."""

    dart: int


@dataclass(frozen=True)
class CIM3Bootstrap:
    """Turn five aligned loop records into a mirrored white-vertex pair."""

    x: int
    y: int
    loops: tuple[int, ...]


@dataclass(frozen=True)
class CIM3Cancel:
    dart: int


@dataclass(frozen=True)
class AttachTrivialHandle:
    """Attach a standard handle, optionally spanned by one cocore letter."""

    cocore_label: int | None = None
    cocore_sign: int = 1
    coreloop: BraidWord | None = None


@dataclass(frozen=True)
class DetachTrivialHandle:
    handle: int


@dataclass(frozen=True)
class MoveHandleAcrossEdge:
    """Slide handle material across chart strands.

    Exactly one of dart / end / loop / emit_label picks the form: conjugate
    the loop word across an edge, push its outer letter over a lone end,
    capture a floating record onto the core, or emit one back off it.
    """

    handle: int
    dart: int | None = None
    end: int | None = None
    loop: int | None = None
    emit_label: int | None = None
    sign: int = 1
    side: str = "right"
    emit_sign: int = 1
    index: int | None = None


@dataclass(frozen=True)
class Bridge:
    """Reconnect one foot of a clean handle onto a same-labelled strand."""

    handle: int
    dart: int


@dataclass(frozen=True)
class CrossingTransfer:
    """Pull a bridged crossing through the handle onto its core."""

    dart: int
    handle: int
    side: str = "right"


@dataclass(frozen=True)
class RotateTrivialHandleDecoration:
    """Quarter-turn of a standard handle: swaps cocore and core letters."""

    handle: int
    direction: str


@dataclass(frozen=True)
class ConvertViaGeneratorSet:
    handle: int
    label: int
    sign: int = 1


@dataclass(frozen=True)
class FreeEdgeRelabel:
    dart: int
    label: int


@dataclass(frozen=True)
class HandleSlideDecorated:
    """Slide handle `handle` across handle `over`, composing loop words."""

    handle: int
    over: int
    variant: str


@dataclass(frozen=True)
class OrientationReversalAid:
    """Reverse all strands at an isolated white vertex; costs one handle."""

    dart: int


@dataclass(frozen=True)
class SlideEndAlongEdge:
    dart: int
    along: int


@dataclass(frozen=True)
class AbsorbLoopIntoFreeEdge:
    """Retire an undecorated handle span onto a parallel free edge."""

    handle: int
    dart: int


@dataclass(frozen=True)
class PatternCancel:
    index: int


@dataclass(frozen=True)
class PatternCapture:
    index: int


@dataclass(frozen=True)
class PatternTwist:
    sign: int


@dataclass(frozen=True)
class _Patch:
    """Raw state restore used as the inverse of the compound surgeries.

    Never enumerated and never serialized; it exists so that every apply
    can hand back an exact undo even when no single named move would do.
    """

    remove_edges: tuple[Edge, ...]
    add_edges: tuple[Edge, ...]
    remove_vertices: tuple[Vertex, ...]
    add_vertices: tuple[Vertex, ...]
    loops: tuple
    patterns: tuple
    handles: tuple
    genus: int


CHART_MOVES = (
    CIM1Add,
    CIM1Erase,
    CIM2Split,
    CIM2Absorb,
    CIM2Reconnect,
    CIR2Insert,
    CIR2Bootstrap,
    CIR2Straighten,
    CIISweep,
    CIIRetract,
    CIIIEliminate,
    CIM3Bootstrap,
    CIM3Cancel,
)

SURFACE_MOVES = (
    AttachTrivialHandle,
    DetachTrivialHandle,
    MoveHandleAcrossEdge,
    Bridge,
    CrossingTransfer,
    RotateTrivialHandleDecoration,
    ConvertViaGeneratorSet,
    FreeEdgeRelabel,
    HandleSlideDecorated,
    OrientationReversalAid,
    SlideEndAlongEdge,
    AbsorbLoopIntoFreeEdge,
    PatternCancel,
    PatternCapture,
    PatternTwist,
)


# ---------------------------------------------------------------------------
# shared machinery


def _edge_maps(ch: Chart):
    """dart -> Edge and dart -> (vertex index, position), from the chart's map."""
    m = surface_map(ch)
    return m.edge_at, m.slot_of


def _edge_at(emap, dart):
    e = emap.get(dart)
    if e is None:
        raise SiteMismatch(f"no dart {dart}")
    return e


def _other(e: Edge, dart: int) -> int:
    return e.darts[0] if e.darts[1] == dart else e.darts[1]


def _loop_at(ch: Chart, idx):
    if not isinstance(idx, int) or not 0 <= idx < len(ch.loops):
        raise SiteMismatch(f"no loop record {idx}")
    return ch.loops[idx]


def _fresh(ch: Chart, n: int) -> tuple[int, ...]:
    darts = surface_map(ch).darts
    m = darts[-1] + 1 if darts else 1
    return tuple(range(m, m + n))


def _faces_touch(s: DecoratedSurface, a, pa, b, pb):
    """Necessary condition for a band between the two edges to embed."""
    m = surface_map(s.chart)
    if m.comp.get(a) != m.comp.get(b):
        return True
    face_of = m.face_of
    return bool({face_of[a], face_of[pa]} & {face_of[b], face_of[pb]})


def _planar_reconnect(m, a, pa, b, pb):
    """True when resewing a-b and pa-pb keeps the surface planar.

    The rewiring composes the face walk with the transpositions (a pb)
    and (b pa); it preserves genus exactly when both steps split a face.
    """
    if m.comp.get(a) != m.comp.get(b):
        return True
    fid, fpos = m.face_of, m.face_pos
    if fid[a] != fid[pb]:
        return False
    L = len(m.faces[fid[a]])
    px, py = fpos[a], fpos[pb]
    span = (px - py) % L

    def piece_x(d):
        return 0 < (fpos[d] - py) % L <= span

    in_f_b = fid[b] == fid[a]
    in_f_pa = fid[pa] == fid[a]
    if in_f_b and in_f_pa:
        return piece_x(b) == piece_x(pa)
    if in_f_b or in_f_pa:
        return False
    return fid[b] == fid[pa]


def _planar_insert(m, a, pa, b):
    # the pushed finger detours through the face behind a, which must be
    # the face in front of b; separate components can always be arranged
    if m.comp.get(a) != m.comp.get(b):
        return True
    return m.face_of[pa] == m.face_of[b]


def _with(s: DecoratedSurface, **chart_fields) -> DecoratedSurface:
    return DecoratedSurface(replace(s.chart, **chart_fields), s.handles)


def _collapse(ch: Chart, kill_vis, ports, mute=()):
    """Drop the given vertices and every incident edge, resewing strands.

    ports pairs up darts of the killed vertices; a strand entering the
    removed region leaves through the paired dart.  Edges in mute carry
    geometry but do not vote on the seam's label or direction.  Returns
    the new edge list and, for chains that closed up into circles, a list
    of (label, arrives_at_min_dart) pairs in min-dart order.
    """
    killed_darts = set()
    for vi in kill_vis:
        killed_darts.update(ch.vertices[vi].cycle)
    keep, chain_edges = [], {}
    for e in ch.edges:
        if killed_darts.intersection(e.darts):
            for d in e.darts:
                chain_edges[d] = e
        else:
            keep.append(e)
    mute_ids = {id(e) for e in mute}
    external = {d for d in chain_edges if d not in killed_darts}
    done = set()

    def seam(links):
        labels = {e.label for e, _, _ in links if id(e) not in mute_ids}
        if len(labels) != 1:
            raise SiteMismatch("strand labels disagree across the rewritten region")
        votes = {e.head == t for e, _, t in links if id(e) not in mute_ids}
        if len(votes) != 1:
            raise SiteMismatch("strand directions disagree across the rewritten region")
        return labels.pop(), votes.pop()

    def walk(start, closed):
        links, cur = [], start
        while True:
            e = chain_edges[cur]
            done.add(id(e))
            far = _other(e, cur)
            links.append((e, cur, far))
            if not closed and far in external:
                return links
            nxt = ports.get(far)
            if nxt is None:
                raise SiteMismatch("a strand stops inside the rewritten region")
            if closed and nxt == start:
                return links
            cur = nxt

    new_edges = list(keep)
    for start in sorted(external):
        if id(chain_edges[start]) in done:
            continue
        links = walk(start, closed=False)
        label, fwd = seam(links)
        a, b = links[0][1], links[-1][2]
        new_edges.append(Edge((a, b), label, b if fwd else a))
    closed_out = []
    for start in sorted(chain_edges):
        if id(chain_edges[start]) in done:
            continue
        links = walk(start, closed=True)
        label, fwd = seam(links)
        md = min(x for _, f, t in links for x in (f, t))
        for _, f, t in links:
            if md in (f, t):
                arrives = (t == md) if fwd else (f == md)
                break
        closed_out.append((md, label, arrives))
    closed_out.sort()
    return new_edges, [(lab, arr) for _, lab, arr in closed_out]


def _changed(old, new, key):
    """(items of new that old lacks, items of old that new lacks), by key.

    Items both sides share by identity are equal and are skipped; the rest
    are matched by key and value, and each side comes back sorted by key.
    """
    kept = set(map(id, old)).intersection(map(id, new))
    okey = {key(x): x for x in old if id(x) not in kept}
    nkey = {key(x): x for x in new if id(x) not in kept}
    gone = tuple(nkey[k] for k in sorted(nkey) if okey.get(k) != nkey[k])
    back = tuple(okey[k] for k in sorted(okey) if nkey.get(k) != okey[k])
    return gone, back


def _patch_between(before: DecoratedSurface, after: DecoratedSurface) -> _Patch:
    a, b = before.chart, after.chart
    rm_e, ad_e = _changed(a.edges, b.edges, lambda e: tuple(sorted(e.darts)))
    rm_v, ad_v = _changed(a.vertices, b.vertices, lambda v: tuple(sorted(v.cycle)))
    return _Patch(
        rm_e,
        ad_e,
        rm_v,
        ad_v,
        a.loops,
        a.pattern_loops,
        before.handles,
        a.genus,
    )


# ---------------------------------------------------------------------------
# appliers

_APPLY = {}


def _applies(cls):
    def deco(fn):
        _APPLY[cls] = fn
        return fn

    return deco


@_applies(_Patch)
def _do_patch(s, mv):
    edges = list(s.chart.edges)
    for e in mv.remove_edges:
        try:
            edges.remove(e)
        except ValueError:
            raise SiteMismatch("restore patch does not match the surface") from None
    edges.extend(mv.add_edges)
    verts = list(s.chart.vertices)
    for v in mv.remove_vertices:
        try:
            verts.remove(v)
        except ValueError:
            raise SiteMismatch("restore patch does not match the surface") from None
    verts.extend(mv.add_vertices)
    chart = replace(
        s.chart,
        vertices=tuple(verts),
        edges=tuple(edges),
        loops=mv.loops,
        pattern_loops=mv.patterns,
        genus=mv.genus,
    )
    out = DecoratedSurface(chart, mv.handles)
    return out, _patch_between(out, s)


@_applies(CIM1Add)
def _do_cim1add(s, mv):
    ch = s.chart
    if not 1 <= mv.label <= ch.degree - 1:
        raise LabelConstraintViolated(f"label {mv.label} out of range")
    if mv.sign not in (1, -1):
        raise SiteMismatch(f"bad sign {mv.sign}")
    idx = mv.index if mv.index is not None else len(ch.loops)
    if not 0 <= idx <= len(ch.loops):
        raise SiteMismatch(f"no record slot {idx}")
    loops = ch.loops[:idx] + (FloatingLoop(mv.label, mv.sign),) + ch.loops[idx:]
    return _with(s, loops=loops), CIM1Erase(idx)


@_applies(CIM1Erase)
def _do_cim1erase(s, mv):
    rec = _loop_at(s.chart, mv.loop)
    if rec.pinned:
        raise SiteMismatch("pinned records cannot be erased in place")
    if rec.over:
        raise SiteMismatch("the record rides a handle")
    loops = tuple(r for k, r in enumerate(s.chart.loops) if k != mv.loop)
    return _with(s, loops=loops), CIM1Add(rec.label, rec.sign, mv.loop)


@_applies(CIM2Split)
def _do_cim2split(s, mv):
    ch = s.chart
    emap, _ = _edge_maps(ch)
    e = _edge_at(emap, mv.dart)
    if mv.sign not in (1, -1):
        raise SiteMismatch(f"bad sign {mv.sign}")
    idx = mv.index if mv.index is not None else len(ch.loops)
    if not 0 <= idx <= len(ch.loops):
        raise SiteMismatch(f"no record slot {idx}")
    loops = ch.loops[:idx] + (FloatingLoop(e.label, mv.sign),) + ch.loops[idx:]
    return _with(s, loops=loops), CIM2Absorb(mv.dart, idx)


@_applies(CIM2Absorb)
def _do_cim2absorb(s, mv):
    ch = s.chart
    emap, _ = _edge_maps(ch)
    e = _edge_at(emap, mv.dart)
    rec = _loop_at(ch, mv.loop)
    if rec.over:
        raise SiteMismatch("the record rides a handle")
    if rec.label != e.label:
        raise LabelConstraintViolated(
            f"record label {rec.label} vs edge label {e.label}"
        )
    loops = tuple(r for k, r in enumerate(ch.loops) if k != mv.loop)
    return _with(s, loops=loops), CIM2Split(mv.dart, rec.sign, mv.loop)


def _reconnect_check(s, a, b):
    emap, _ = _edge_maps(s.chart)
    ea, eb = _edge_at(emap, a), _edge_at(emap, b)
    if ea is eb:
        raise SiteMismatch("the two darts already share an edge")
    if ea.label != eb.label:
        raise LabelConstraintViolated(f"labels {ea.label} and {eb.label} differ")
    ha, hb = ea.head == a, eb.head == b
    if ha == hb:
        raise SiteMismatch("the strands run the same way at the two darts")
    # the band may run through a handle joining exactly these two feet
    if not any(h.feet is not None and set(h.feet) == {a, b} for h in s.handles):
        if not _faces_touch(s, a, _other(ea, a), b, _other(eb, b)):
            raise SiteMismatch("the two darts do not cobound a face")
    return ea, eb, ha


def _reconnect_legal(s, a, b):
    try:
        _reconnect_check(s, a, b)
        return True
    except ValueError:
        return False


def _reconnect_surface(s, a, b):
    ea, eb, ha = _reconnect_check(s, a, b)
    pa, pb = _other(ea, a), _other(eb, b)
    lab = ea.label
    edges = [e for e in s.chart.edges if e is not ea and e is not eb]
    edges.append(Edge((a, b), lab, a if ha else b))
    edges.append(Edge((pa, pb), lab, pb if ha else pa))
    out = _with(s, edges=tuple(edges))
    inv = CIM2Reconnect(a, pa)
    if not _reconnect_legal(out, a, pa):
        inv = _patch_between(s, out)
    return out, inv


@_applies(CIM2Reconnect)
def _do_cim2reconnect(s, mv):
    return _reconnect_surface(s, mv.a, mv.b)


@_applies(CIR2Insert)
def _do_cir2insert(s, mv):
    ch = s.chart
    emap, _ = _edge_maps(ch)
    ea, eb = _edge_at(emap, mv.a), _edge_at(emap, mv.b)
    if abs(ea.label - eb.label) < 2:
        raise LabelConstraintViolated(
            f"labels {ea.label} and {eb.label} do not far-commute"
        )
    pa, pb = _other(ea, mv.a), _other(eb, mv.b)
    if not _faces_touch(s, mv.a, pa, mv.b, pb):
        raise SiteMismatch("the two darts do not cobound a face")
    ex = 1 if ea.head == pa else -1  # strand runs a -> pa
    ey = 1 if eb.head == pb else -1
    w1, s1, e1, n1, w2, s2, e2, n2 = _fresh(ch, 8)
    i, j = ea.label, eb.label
    edges = [e for e in ch.edges if e is not ea and e is not eb]
    for x, y in ((mv.a, w1), (e1, w2), (e2, pa)):
        edges.append(Edge((x, y), i, y if ex > 0 else x))
    for x, y in ((mv.b, n1), (s1, s2), (n2, pb)):
        edges.append(Edge((x, y), j, y if ey > 0 else x))
    verts = ch.vertices + (
        Vertex("crossing", (w1, s1, e1, n1)),
        Vertex("crossing", (w2, s2, e2, n2)),
    )
    out = _with(s, vertices=verts, edges=tuple(edges))
    return out, CIR2Straighten(w1, w2)


@_applies(CIR2Bootstrap)
def _do_cir2bootstrap(s, mv):
    ch = s.chart
    if mv.i == mv.j:
        raise SiteMismatch("need two distinct records")
    ra, rb = _loop_at(ch, mv.i), _loop_at(ch, mv.j)
    if abs(ra.label - rb.label) < 2:
        raise LabelConstraintViolated(
            f"labels {ra.label} and {rb.label} do not far-commute"
        )
    for r in (ra, rb):
        if r.over:
            raise SiteMismatch("the record rides a handle")
        if r.pinned:
            raise SiteMismatch("pinned records cannot be rewired")
    w1, s1, e1, n1, w2, s2, e2, n2 = _fresh(ch, 8)
    i, j, si, sj = ra.label, rb.label, ra.sign, rb.sign
    edges = list(ch.edges)
    edges.append(Edge((e1, w2), i, w2 if si > 0 else e1))
    edges.append(Edge((e2, w1), i, w1 if si > 0 else e2))
    edges.append(Edge((s1, s2), j, s1 if sj > 0 else s2))
    edges.append(Edge((n2, n1), j, n2 if sj > 0 else n1))
    verts = ch.vertices + (
        Vertex("crossing", (w1, s1, e1, n1)),
        Vertex("crossing", (w2, s2, e2, n2)),
    )
    loops = tuple(r for k, r in enumerate(ch.loops) if k not in (mv.i, mv.j))
    out = _with(s, vertices=verts, edges=tuple(edges), loops=loops)
    return out, CIR2Straighten(w1, w2)


@_applies(CIR2Straighten)
def _do_cir2straighten(s, mv):
    ch = s.chart
    _, vmap = _edge_maps(ch)
    for d in (mv.a, mv.b):
        if d not in vmap:
            raise SiteMismatch(f"no dart {d}")
    va, vb = vmap[mv.a][0], vmap[mv.b][0]
    if va == vb:
        raise SiteMismatch("need two distinct crossings")
    for vi in (va, vb):
        if ch.vertices[vi].kind != "crossing":
            raise SiteMismatch("both sites must be crossings")
    ta, sa = crossing_type(ch, va)
    tb, sb = crossing_type(ch, vb)
    if ta != tb or sa != -sb:
        raise SiteMismatch("the two crossings do not cancel")
    sm = surface_map(ch)
    db = set(ch.vertices[vb].cycle)
    bigon = any(
        len(f) == 2 and not db.isdisjoint(f)
        for f in (sm.faces[sm.face_of[d]] for d in ch.vertices[va].cycle)
    )
    if not bigon:
        raise SiteMismatch("the crossings are not adjacent along both strands")
    ports = {}
    for vi in (va, vb):
        cyc = ch.vertices[vi].cycle
        for p in range(4):
            ports[cyc[p]] = cyc[(p + 2) % 4]
    edges2, closed = _collapse(ch, {va, vb}, ports)
    loops2 = ch.loops + tuple(
        FloatingLoop(lab, 1 if arr else -1) for lab, arr in closed
    )
    verts2 = tuple(v for k, v in enumerate(ch.vertices) if k not in (va, vb))
    out = _with(s, vertices=verts2, edges=tuple(edges2), loops=loops2)
    return out, _patch_between(s, out)


def _lone_blacks(ch: Chart):
    out = {}
    for vi, v in enumerate(ch.vertices):
        if v.kind == "black" and len(v.cycle) == 1:
            out[v.cycle[0]] = vi
    return out


@_applies(CIISweep)
def _do_ciisweep(s, mv):
    ch = s.chart
    emap, vmap = _edge_maps(ch)
    if mv.black not in vmap:
        raise SiteMismatch(f"no dart {mv.black}")
    bvi = vmap[mv.black][0]
    bv = ch.vertices[bvi]
    if bv.kind != "black" or len(bv.cycle) != 1:
        raise SiteMismatch("the moving end must be a lone black vertex")
    e0 = emap[mv.black]
    et = _edge_at(emap, mv.target)
    if et is e0:
        raise SiteMismatch("cannot sweep across the strand's own edge")
    i, j = e0.label, et.label
    if abs(i - j) < 2:
        raise LabelConstraintViolated(f"labels {i} and {j} do not far-commute")
    w = _other(e0, mv.black)
    t, u = mv.target, _other(et, mv.target)
    if not _faces_touch(s, mv.black, w, t, u):
        raise SiteMismatch("the end and the target do not cobound a face")
    xB, xT, xw, xU = _fresh(ch, 4)
    fwd0 = e0.head == mv.black  # strand runs toward the black end
    fwdt = et.head == u
    edges = [e for e in ch.edges if e is not e0 and e is not et]
    edges.append(Edge((mv.black, xB), i, mv.black if fwd0 else xB))
    edges.append(Edge((xw, w), i, xw if fwd0 else w))
    edges.append(Edge((t, xT), j, xT if fwdt else t))
    edges.append(Edge((xU, u), j, u if fwdt else xU))
    verts = ch.vertices + (Vertex("crossing", (xB, xT, xw, xU)),)
    out = _with(s, vertices=verts, edges=tuple(edges))
    return out, CIIRetract(xB)


@_applies(CIIRetract)
def _do_ciiretract(s, mv):
    ch = s.chart
    emap, vmap = _edge_maps(ch)
    if mv.dart not in vmap:
        raise SiteMismatch(f"no dart {mv.dart}")
    xvi = vmap[mv.dart][0]
    xv = ch.vertices[xvi]
    if xv.kind != "crossing":
        raise SiteMismatch("the site is not a crossing")
    far = _other(emap[mv.dart], mv.dart)
    if far not in _lone_blacks(ch):
        raise SiteMismatch("no lone black end across the crossing")
    ports = {xv.cycle[k]: xv.cycle[(k + 2) % 4] for k in range(4)}
    edges2, closed = _collapse(ch, {xvi}, ports)
    loops2 = ch.loops + tuple(FloatingLoop(lab, 1) for lab, _ in closed)
    verts2 = tuple(v for k, v in enumerate(ch.vertices) if k != xvi)
    out = _with(s, vertices=verts2, edges=tuple(edges2), loops=loops2)
    return out, _patch_between(s, out)


@_applies(CIIIEliminate)
def _do_ciii(s, mv):
    ch = s.chart
    emap, vmap = _edge_maps(ch)
    if mv.dart not in vmap:
        raise SiteMismatch(f"no dart {mv.dart}")
    wvi, p = vmap[mv.dart]
    wv = ch.vertices[wvi]
    if wv.kind != "white":
        raise SiteMismatch("the site is not a white vertex")
    e1 = emap[mv.dart]
    far = _other(e1, mv.dart)
    if far not in _lone_blacks(ch):
        raise SiteMismatch("the branch must end at a lone black vertex")
    if p in middle_positions(ch, wvi):
        raise SiteMismatch("middle ends cannot absorb the branch")
    cyc = wv.cycle
    ports = {}
    for a, b in ((0, 3), (1, 5), (2, 4)):
        ports[cyc[(p + a) % 6]] = cyc[(p + b) % 6]
        ports[cyc[(p + b) % 6]] = cyc[(p + a) % 6]
    edges2, closed = _collapse(ch, {wvi}, ports, mute=(e1,))
    loops2 = ch.loops + tuple(FloatingLoop(lab, 1) for lab, _ in closed)
    verts2 = tuple(v for k, v in enumerate(ch.vertices) if k != wvi)
    out = _with(s, vertices=verts2, edges=tuple(edges2), loops=loops2)
    return out, _patch_between(s, out)


def _white_relator(x, y):
    return ((x, 1), (y, 1), (x, 1), (y, -1), (x, -1), (y, -1))


@_applies(CIM3Bootstrap)
def _do_cim3bootstrap(s, mv):
    ch = s.chart
    n = ch.degree
    if not (1 <= mv.x <= n - 1 and 1 <= mv.y <= n - 1) or abs(mv.x - mv.y) != 1:
        raise LabelConstraintViolated(f"labels {mv.x} and {mv.y} are not adjacent")
    idxs = tuple(mv.loops)
    if len(idxs) != 5 or len(set(idxs)) != 5:
        raise SiteMismatch("need five distinct records")
    recs = [_loop_at(ch, k) for k in idxs]
    base = _white_relator(mv.x, mv.y)
    pattern = tuple(lab for lab, _ in base[1:])
    for r, lab in zip(recs, pattern):
        if r.label != lab:
            raise LabelConstraintViolated(
                f"record labels must read {pattern}, got {tuple(x.label for x in recs)}"
            )
        if r.sign != 1 or r.pinned or r.over:
            raise SiteMismatch("records must be plain positive loops")
    m = _fresh(ch, 12)
    a, b = m[:6], m[6:]
    edges = list(ch.edges)
    edges.append(Edge((a[0], b[0]), mv.x, b[0]))
    for k in range(1, 6):
        lab, sign = base[k]
        far = b[(6 - k) % 6]
        edges.append(Edge((a[k], far), lab, far if sign > 0 else a[k]))
    verts = ch.vertices + (Vertex("white", a), Vertex("white", b))
    loops = tuple(r for k, r in enumerate(ch.loops) if k not in set(idxs))
    out = _with(s, vertices=verts, edges=tuple(edges), loops=loops)
    return out, CIM3Cancel(a[0])


def _mirror_pair(ch, emap, vmap, dart):
    """Check the direct mirror wiring through dart's edge; return its data."""
    e0 = _edge_at(emap, dart)
    d1, d2 = dart, _other(e0, dart)
    if d1 not in vmap or d2 not in vmap:
        raise SiteMismatch("dangling edge")
    (v1, p1), (v2, p2) = vmap[d1], vmap[d2]
    if ch.vertices[v1].kind != "white" or ch.vertices[v2].kind != "white":
        raise SiteMismatch("the edge does not join two white vertices")
    if v1 == v2:
        raise SiteMismatch("the edge is a white self-loop")
    c1, c2 = ch.vertices[v1].cycle, ch.vertices[v2].cycle
    arcs = []
    for k in range(1, 6):
        da = c1[(p1 + k) % 6]
        ea = _edge_at(emap, da)
        fa = _other(ea, da)
        vv, pp = vmap[fa]
        if vv != v2:
            if ch.vertices[vv].kind == "black":
                raise BlackVertexInCIRegion(
                    "a black vertex interrupts the white pair"
                )
            raise SiteMismatch("the two white vertices are not mirror wired")
        if pp != (p2 - k) % 6:
            raise SiteMismatch("the two white vertices are not mirror wired")
        arcs.append(ea)
    return v1, v2, e0, arcs


@_applies(CIM3Cancel)
def _do_cim3cancel(s, mv):
    ch = s.chart
    emap, vmap = _edge_maps(ch)
    v1, v2, e0, arcs = _mirror_pair(ch, emap, vmap, mv.dart)
    gone = {id(e0)} | {id(e) for e in arcs}
    edges2 = tuple(e for e in ch.edges if id(e) not in gone)
    loops2 = ch.loops + tuple(FloatingLoop(e.label, 1) for e in arcs)
    verts2 = tuple(v for k, v in enumerate(ch.vertices) if k not in (v1, v2))
    out = _with(s, vertices=verts2, edges=edges2, loops=loops2)
    return out, _patch_between(s, out)


@_applies(AttachTrivialHandle)
def _do_attach(s, mv):
    ch = s.chart
    n = ch.degree
    cl = mv.coreloop if mv.coreloop is not None else BraidWord(n)
    if cl.degree != n:
        raise SiteMismatch(f"coreloop degree {cl.degree} vs chart degree {n}")
    if mv.cocore_sign not in (1, -1):
        raise SiteMismatch(f"bad sign {mv.cocore_sign}")
    hid = max((h.id for h in s.handles), default=0) + 1
    if mv.cocore_label is None:
        if cl.letters:
            raise NonTrivialHandle("a footless attachment must carry no loop word")
        chart2 = replace(ch, genus=ch.genus + 1)
        h = AttachedHandle(hid, cl, None, None)
    else:
        if not 1 <= mv.cocore_label <= n - 1:
            raise LabelConstraintViolated(f"label {mv.cocore_label} out of range")
        if len(cl.letters) > 1:
            raise NonTrivialHandle("a standard handle carries at most one loop letter")
        if cl.letters and abs(cl.letters[0].index - mv.cocore_label) < 2:
            raise NonCommutingDecoration(
                f"loop letter {cl.letters[0].index} is too close to {mv.cocore_label}"
            )
        f1, f2 = _fresh(ch, 2)
        verts = ch.vertices + (Vertex("free_end", (f1,)), Vertex("free_end", (f2,)))
        head = f2 if mv.cocore_sign > 0 else f1
        edges = ch.edges + (Edge((f1, f2), mv.cocore_label, head),)
        chart2 = replace(ch, vertices=verts, edges=edges, genus=ch.genus + 1)
        h = AttachedHandle(hid, cl, (f1, f2), None)
    return DecoratedSurface(chart2, s.handles + (h,)), DetachTrivialHandle(hid)


@_applies(DetachTrivialHandle)
def _do_detach(s, mv):
    ch = s.chart
    h = _handle(s, mv.handle)
    if h.mn is not None:
        raise NonTrivialHandle("a coiled handle cannot detach")
    handles2 = tuple(x for x in s.handles if x.id != h.id)
    if h.feet is None:
        if h.coreloop.letters:
            raise NonTrivialHandle("the handle still carries loop letters")
        chart2 = replace(ch, genus=ch.genus - 1)
        return DecoratedSurface(chart2, handles2), AttachTrivialHandle()
    e = _span_edge(s, h)
    if e is None:
        raise NonTrivialHandle("the handle is threaded through the chart")
    if len(h.coreloop.letters) > 1:
        raise NonTrivialHandle("the handle still carries loop letters")
    if h.coreloop.letters and abs(h.coreloop.letters[0].index - e.label) < 2:
        raise NonCommutingDecoration("loop letter too close to the span label")
    sign = 1 if e.head == h.feet[1] else -1
    feet = set(h.feet)
    verts = tuple(v for v in ch.vertices if not feet.intersection(v.cycle))
    edges = tuple(x for x in ch.edges if x is not e)
    chart2 = replace(ch, vertices=verts, edges=edges, genus=ch.genus - 1)
    back = AttachTrivialHandle(
        e.label, sign, h.coreloop if h.coreloop.letters else None
    )
    return DecoratedSurface(chart2, handles2), back


@_applies(MoveHandleAcrossEdge)
def _do_across(s, mv):
    ch = s.chart
    n = ch.degree
    h = _handle(s, mv.handle)
    if h.mn is not None:
        raise NonTrivialHandle("a coiled handle cannot move across edges")
    forms = [
        k
        for k, v in (
            ("dart", mv.dart),
            ("end", mv.end),
            ("loop", mv.loop),
            ("emit", mv.emit_label),
        )
        if v is not None
    ]
    if len(forms) != 1:
        raise SiteMismatch("exactly one of dart/end/loop/emit_label is required")
    if mv.side not in ("left", "right"):
        raise SiteMismatch(f"bad side {mv.side!r}")
    form = forms[0]
    emap, vmap = _edge_maps(ch)
    b = h.coreloop

    if form == "dart":
        if mv.sign not in (1, -1):
            raise SiteMismatch(f"bad sign {mv.sign}")
        if h.feet is not None:
            raise SiteMismatch("a spanned handle cannot slide around a strand")
        e = _edge_at(emap, mv.dart)
        g = BraidWord.from_signed(n, (e.label * mv.sign,))
        cl = free_reduce(g * b * g.inverse())
        inv = MoveHandleAcrossEdge(mv.handle, dart=mv.dart, sign=-mv.sign)
        loops2 = ch.loops
    elif form == "end":
        if mv.sign not in (1, -1):
            raise SiteMismatch(f"bad sign {mv.sign}")
        if mv.end not in _lone_blacks(ch):
            raise SiteMismatch("the push site must be a lone black end")
        e = _edge_at(emap, mv.end)
        g = BraidWord.from_signed(n, (e.label * mv.sign,))
        cl = free_reduce(g * b) if mv.side == "left" else free_reduce(b * g)
        inv = MoveHandleAcrossEdge(mv.handle, end=mv.end, sign=-mv.sign, side=mv.side)
        loops2 = ch.loops
    elif form == "loop":
        rec = _loop_at(ch, mv.loop)
        if rec.over:
            raise SiteMismatch("the record rides another handle")
        if rec.pinned:
            raise SiteMismatch("pinned records cannot be captured")
        g = BraidWord.from_signed(n, (rec.label * rec.sign,))
        cl = free_reduce(g * b) if mv.side == "left" else free_reduce(b * g)
        loops2 = tuple(r for k, r in enumerate(ch.loops) if k != mv.loop)
        inv = MoveHandleAcrossEdge(
            mv.handle,
            emit_label=rec.label,
            emit_sign=rec.sign,
            side=mv.side,
            index=mv.loop,
        )
    else:
        if not 1 <= mv.emit_label <= n - 1:
            raise LabelConstraintViolated(f"label {mv.emit_label} out of range")
        if mv.emit_sign not in (1, -1):
            raise SiteMismatch(f"bad sign {mv.emit_sign}")
        idx = mv.index if mv.index is not None else len(ch.loops)
        if not 0 <= idx <= len(ch.loops):
            raise SiteMismatch(f"no record slot {idx}")
        g = BraidWord.from_signed(n, (-mv.emit_label * mv.emit_sign,))
        cl = free_reduce(g * b) if mv.side == "left" else free_reduce(b * g)
        rec = FloatingLoop(mv.emit_label, mv.emit_sign)
        loops2 = ch.loops[:idx] + (rec,) + ch.loops[idx:]
        inv = MoveHandleAcrossEdge(mv.handle, loop=idx, side=mv.side)

    handles2 = tuple(
        replace(x, coreloop=cl) if x.id == h.id else x for x in s.handles
    )
    out = DecoratedSurface(replace(ch, loops=loops2), handles2)
    return out, inv


@_applies(Bridge)
def _do_bridge(s, mv):
    h = _handle(s, mv.handle)
    if h.feet is None:
        raise NonTrivialHandle("only a spanned handle can bridge")
    e = _span_edge(s, h)
    if e is None:
        raise NonTrivialHandle("the handle is already threaded")
    emap, _ = _edge_maps(s.chart)
    et = _edge_at(emap, mv.dart)
    if et is e:
        raise SiteMismatch("cannot bridge the handle onto its own span")
    if et.label != e.label:
        raise LabelConstraintViolated(
            f"span label {e.label} vs strand label {et.label}"
        )
    # the foot whose flow direction is opposite the target dart's
    u = next(f for f in h.feet if (e.head == f) != (et.head == mv.dart))
    return _reconnect_surface(s, u, mv.dart)


@_applies(CrossingTransfer)
def _do_transfer(s, mv):
    ch = s.chart
    h = _handle(s, mv.handle)
    if h.feet is None:
        raise SiteMismatch("the handle has no feet to pull through")
    if mv.side not in ("left", "right"):
        raise SiteMismatch(f"bad side {mv.side!r}")
    emap, vmap = _edge_maps(ch)
    if mv.dart not in vmap:
        raise SiteMismatch(f"no dart {mv.dart}")
    vi = vmap[mv.dart][0]
    v = ch.vertices[vi]
    if v.kind != "crossing":
        raise SiteMismatch("the site is not a crossing")
    feet = set(h.feet)
    cands = [d for d in v.cycle if _other(emap[d], d) in feet]
    if not cands:
        raise SiteMismatch("the handle is not bridged at this crossing")
    cF = cands[0]
    p = v.cycle.index(cF)
    ej = emap[v.cycle[(p + 1) % 4]]
    eps = 1 if ej.head != v.cycle[(p + 1) % 4] else -1
    ports = {v.cycle[k]: v.cycle[(k + 2) % 4] for k in range(4)}
    edges2, closed = _collapse(ch, {vi}, ports)
    loops2 = ch.loops + tuple(FloatingLoop(lab, 1) for lab, _ in closed)
    verts2 = tuple(vv for k, vv in enumerate(ch.vertices) if k != vi)
    g = BraidWord.from_signed(ch.degree, (ej.label * eps,))
    cl = (
        free_reduce(h.coreloop * g)
        if mv.side == "right"
        else free_reduce(g * h.coreloop)
    )
    handles2 = tuple(
        replace(x, coreloop=cl) if x.id == h.id else x for x in s.handles
    )
    chart2 = replace(ch, vertices=verts2, edges=tuple(edges2), loops=loops2)
    out = DecoratedSurface(chart2, handles2)
    return out, _patch_between(s, out)


@_applies(RotateTrivialHandleDecoration)
def _do_rotate(s, mv):
    h = _handle(s, mv.handle)
    if h.mn is not None:
        raise NonTrivialHandle("a coiled handle cannot rotate")
    if mv.direction not in ("cw", "ccw"):
        raise SiteMismatch(f"bad direction {mv.direction!r}")
    n = s.chart.degree
    if len(h.coreloop.letters) > 1:
        raise NonTrivialHandle("the loop word must be at most one letter to rotate")
    if h.feet is None:
        a = BraidWord(n)
        ch1 = s.chart
    else:
        e = _span_edge(s, h)
        if e is None:
            raise NonTrivialHandle("the handle is threaded through the chart")
        sign = 1 if e.head == h.feet[1] else -1
        a = BraidWord.from_signed(n, (e.label * sign,))
        feet = set(h.feet)
        ch1 = replace(
            s.chart,
            vertices=tuple(
                v for v in s.chart.vertices if not feet.intersection(v.cycle)
            ),
            edges=tuple(x for x in s.chart.edges if x is not e),
        )
    if mv.direction == "cw":
        new_a, new_b = h.coreloop.inverse(), a
    else:
        new_a, new_b = h.coreloop, a.inverse()
    if new_a.letters:
        lab, sgn = new_a.letters[0].index, new_a.letters[0].sign
        f1, f2 = _fresh(ch1, 2)
        ch1 = replace(
            ch1,
            vertices=ch1.vertices
            + (Vertex("free_end", (f1,)), Vertex("free_end", (f2,))),
            edges=ch1.edges + (Edge((f1, f2), lab, f2 if sgn > 0 else f1),),
        )
        feet2 = (f1, f2)
    else:
        feet2 = None
    h2 = AttachedHandle(h.id, new_b, feet2, None)
    handles2 = tuple(h2 if x.id == h.id else x for x in s.handles)
    other = "ccw" if mv.direction == "cw" else "cw"
    return (
        DecoratedSurface(ch1, handles2),
        RotateTrivialHandleDecoration(mv.handle, other),
    )


def _require_generators(s):
    n = s.chart.degree
    have = set()
    for h in s.handles:
        if h.mn is None and h.coreloop.is_empty:
            e = _span_edge(s, h)
            if e is not None:
                have.add(e.label)
    if not have.issuperset(range(1, n)):
        missing = sorted(set(range(1, n)) - have)
        raise MissingGeneratorHandles(
            f"need clean undecorated handles for labels {missing}"
        )


@_applies(ConvertViaGeneratorSet)
def _do_convert(s, mv):
    h = _handle(s, mv.handle)
    if h.mn is not None:
        raise NonTrivialHandle("a coiled handle cannot convert")
    e = _span_edge(s, h)
    if e is None:
        raise NonTrivialHandle("the handle is threaded through the chart")
    n = s.chart.degree
    if not 1 <= mv.label <= n - 1:
        raise LabelConstraintViolated(f"label {mv.label} out of range")
    if mv.sign not in (1, -1):
        raise SiteMismatch(f"bad sign {mv.sign}")
    _require_generators(s)
    old_sign = 1 if e.head == h.feet[1] else -1
    head = h.feet[1] if mv.sign > 0 else h.feet[0]
    edges = tuple(
        Edge(e.darts, mv.label, head) if x is e else x for x in s.chart.edges
    )
    out = _with(s, edges=edges)
    return out, ConvertViaGeneratorSet(mv.handle, e.label, old_sign)


@_applies(FreeEdgeRelabel)
def _do_relabel(s, mv):
    ch = s.chart
    emap, _ = _edge_maps(ch)
    e = _edge_at(emap, mv.dart)
    lone = _lone_blacks(ch)
    if not all(d in lone for d in e.darts):
        raise SiteMismatch("both ends must be lone black vertices")
    if not 1 <= mv.label <= ch.degree - 1:
        raise LabelConstraintViolated(f"label {mv.label} out of range")
    _require_generators(s)
    edges = tuple(
        Edge(e.darts, mv.label, e.head) if x is e else x for x in ch.edges
    )
    return _with(s, edges=edges), FreeEdgeRelabel(mv.dart, e.label)


@_applies(HandleSlideDecorated)
def _do_slide(s, mv):
    hk, hl = _handle(s, mv.handle), _handle(s, mv.over)
    if hk.id == hl.id:
        raise SiteMismatch("a handle cannot slide across itself")
    if hk.mn is not None or hl.mn is not None:
        raise NonTrivialHandle("coiled handles cannot slide")
    ek, el = _span_edge(s, hk), _span_edge(s, hl)
    if ek is None or el is None:
        raise NonTrivialHandle("both handles must carry clean spans")
    if ek.label != el.label:
        raise LabelConstraintViolated(
            f"span labels {ek.label} and {el.label} differ"
        )
    sk = 1 if ek.head == hk.feet[1] else -1
    sl = 1 if el.head == hl.feet[1] else -1
    if mv.variant == "A":
        if sk != sl:
            raise SiteMismatch("the spans must run the same way")
        bk = free_reduce(hk.coreloop * hl.coreloop)
    elif mv.variant == "B":
        if sk != -sl:
            raise SiteMismatch("the spans must run opposite ways")
        bk = free_reduce(hl.coreloop.inverse() * hk.coreloop)
    else:
        raise SiteMismatch(f"unknown variant {mv.variant!r}")
    feet = set(hl.feet)
    verts = tuple(v for v in s.chart.vertices if not feet.intersection(v.cycle))
    edges = tuple(x for x in s.chart.edges if x is not el)
    handles2 = []
    for x in s.handles:
        if x.id == hk.id:
            handles2.append(replace(x, coreloop=bk))
        elif x.id == hl.id:
            handles2.append(replace(x, feet=None))
        else:
            handles2.append(x)
    chart2 = replace(s.chart, vertices=verts, edges=edges)
    out = DecoratedSurface(chart2, tuple(handles2))
    return out, _patch_between(s, out)


@_applies(OrientationReversalAid)
def _do_aid(s, mv):
    ch = s.chart
    emap, vmap = _edge_maps(ch)
    if mv.dart not in vmap:
        raise SiteMismatch(f"no dart {mv.dart}")
    wvi = vmap[mv.dart][0]
    wv = ch.vertices[wvi]
    if wv.kind != "white":
        raise SiteMismatch("the site is not a white vertex")
    incident = []
    for d in wv.cycle:
        e = emap[d]
        if id(e) not in {id(x) for x in incident}:
            incident.append(e)
        far = _other(e, d)
        fvi = vmap[far][0]
        if fvi != wvi and len(ch.vertices[fvi].cycle) != 1:
            raise SiteMismatch("every strand must end freely to reverse")
    flip = {id(e) for e in incident}
    edges = tuple(
        Edge(e.darts, e.label, _other(e, e.head)) if id(e) in flip else e
        for e in ch.edges
    )
    hid = max((h.id for h in s.handles), default=0) + 1
    aid = AttachedHandle(hid, BraidWord(ch.degree), None, None)
    chart2 = replace(ch, edges=edges, genus=ch.genus + 1)
    out = DecoratedSurface(chart2, s.handles + (aid,))
    return out, _patch_between(s, out)


@_applies(SlideEndAlongEdge)
def _do_slideend(s, mv):
    emap, vmap = _edge_maps(s.chart)
    if mv.dart not in vmap:
        raise SiteMismatch(f"no dart {mv.dart}")
    vi = vmap[mv.dart][0]
    if len(s.chart.vertices[vi].cycle) != 1:
        raise SiteMismatch("only a lone end can slide")
    _edge_at(emap, mv.along)
    # isotopy of the end along the strand: nothing combinatorial changes
    return s, SlideEndAlongEdge(mv.dart, mv.along)


@_applies(AbsorbLoopIntoFreeEdge)
def _do_absorbhandle(s, mv):
    h = _handle(s, mv.handle)
    if h.mn is not None:
        raise NonTrivialHandle("a coiled handle cannot absorb")
    e = _span_edge(s, h)
    if e is None:
        raise NonTrivialHandle("the handle is threaded through the chart")
    if h.coreloop.letters:
        raise NonTrivialHandle("the loop word must be empty to absorb the span")
    emap, _ = _edge_maps(s.chart)
    et = _edge_at(emap, mv.dart)
    if et is e:
        raise SiteMismatch("cannot absorb the span into itself")
    if et.label != e.label:
        raise LabelConstraintViolated(
            f"span label {e.label} vs target label {et.label}"
        )
    lone = _lone_blacks(s.chart)
    if not any(d in lone for d in et.darts):
        raise SiteMismatch("the target strand has no free end to slide over")
    feet = set(h.feet)
    verts = tuple(v for v in s.chart.vertices if not feet.intersection(v.cycle))
    edges = tuple(x for x in s.chart.edges if x is not e)
    handles2 = tuple(
        replace(x, feet=None) if x.id == h.id else x for x in s.handles
    )
    chart2 = replace(s.chart, vertices=verts, edges=edges)
    out = DecoratedSurface(chart2, handles2)
    return out, _patch_between(s, out)


def _the_coil(s):
    coils = [h for h in s.handles if h.mn is not None]
    if len(coils) != 1:
        raise NotRepeatedPattern("expected exactly one coiled handle")
    return coils[0]


@_applies(PatternCancel)
def _do_patterncancel(s, mv):
    pats = s.chart.pattern_loops
    if not 0 <= mv.index < len(pats):
        raise SiteMismatch(f"no pattern copy {mv.index}")
    rec = pats[mv.index]
    later = [(p.curve, k) for k, p in enumerate(pats) if p.curve > rec.curve]
    if not later:
        raise SiteMismatch("no neighbouring copy outward")
    _, k2 = min(later)
    if pats[k2].sense != -rec.sense:
        raise SiteMismatch("neighbouring senses do not cancel")
    pats2 = tuple(p for k, p in enumerate(pats) if k not in (mv.index, k2))
    out = _with(s, pattern_loops=pats2)
    return out, _patch_between(s, out)


@_applies(PatternCapture)
def _do_patterncapture(s, mv):
    coil = _the_coil(s)
    pats = s.chart.pattern_loops
    if not 0 <= mv.index < len(pats):
        raise SiteMismatch(f"no pattern copy {mv.index}")
    rec = pats[mv.index]
    if rec.curve != min(p.curve for p in pats):
        raise SiteMismatch("only the innermost copy can be captured")
    m, n = coil.mn
    h2 = replace(coil, mn=(m, n + rec.sense))
    handles2 = tuple(h2 if x.id == coil.id else x for x in s.handles)
    pats2 = tuple(p for k, p in enumerate(pats) if k != mv.index)
    chart2 = replace(s.chart, pattern_loops=pats2)
    out = DecoratedSurface(chart2, handles2)
    return out, _patch_between(s, out)


@_applies(PatternTwist)
def _do_patterntwist(s, mv):
    if mv.sign not in (1, -1):
        raise SiteMismatch(f"bad sign {mv.sign}")
    coil = _the_coil(s)
    m, n = coil.mn
    h2 = replace(coil, mn=(m, n + 2 * mv.sign * m))
    handles2 = tuple(h2 if x.id == coil.id else x for x in s.handles)
    return DecoratedSurface(s.chart, handles2), PatternTwist(-mv.sign)


# ---------------------------------------------------------------------------
# apply entry points


def _check_surface(s: DecoratedSurface, touched=None):
    """Raise SiteMismatch unless the surface is valid; see validate_chart."""
    problems = validate_chart(s.chart, touched)
    if problems:
        raise SiteMismatch("; ".join(problems))
    feet, seen = [], set()
    for h in s.handles:
        if h.id in seen:
            raise SiteMismatch(f"duplicate handle id {h.id}")
        seen.add(h.id)
        if h.coreloop.degree != s.chart.degree:
            raise SiteMismatch(f"handle {h.id}: loop word degree mismatch")
        if h.feet is not None:
            feet.extend(h.feet)
    ends = sorted(v.cycle[0] for v in s.chart.vertices if v.kind == "free_end")
    if sorted(feet) != ends:
        raise SiteMismatch("free ends and handle feet out of step")
    object.__setattr__(s, "_checked", True)


def _touched(before: Chart, after: Chart):
    """Darts of after's edges and vertices that are not, by identity, before's."""
    if after is before:
        return ()
    old = set(map(id, before.edges))
    old.update(map(id, before.vertices))
    out = [d for e in after.edges if id(e) not in old for d in e.darts]
    out += [d for v in after.vertices if id(v) not in old for d in v.cycle]
    return out


def apply_move(s: DecoratedSurface, mv):
    """Apply one move; returns (new surface, exact inverse move).

    A surface that no checked move produced is checked in full first.  The
    output is then checked on the move's patch, the darts of the edges and
    vertices the move created, plus the map-level axioms; over a valid
    input that decides validity (see validate_chart).
    """
    fn = _APPLY.get(type(mv))
    if fn is None:
        raise TypeError(f"not a move: {mv!r}")
    if not getattr(s, "_checked", False):
        _check_surface(s)
    out, inv = fn(s, mv)
    _check_surface(out, _touched(s.chart, out.chart))
    return out, inv


def apply_chart_move(s: DecoratedSurface, mv) -> DecoratedSurface:
    if not isinstance(mv, CHART_MOVES):
        raise TypeError(f"{type(mv).__name__} is not a chart move")
    return apply_move(s, mv)[0]


def apply_surface_move(s: DecoratedSurface, mv) -> DecoratedSurface:
    if not isinstance(mv, SURFACE_MOVES):
        raise TypeError(f"{type(mv).__name__} is not a surface move")
    return apply_move(s, mv)[0]


# ---------------------------------------------------------------------------
# legal-site enumeration


def enumerate_chart_moves(s: DecoratedSurface):
    """All chart moves legal in this state, in a deterministic order."""
    ch = s.chart
    n = ch.degree
    out = []
    m = surface_map(ch)
    emap, vmap = m.edge_at, m.slot_of

    for lab in range(1, n):
        for sign in (1, -1):
            out.append(CIM1Add(lab, sign))
    for k, r in enumerate(ch.loops):
        if not r.pinned and not r.over:
            out.append(CIM1Erase(k))

    edge_list = sorted(ch.edges, key=lambda e: min(e.darts))
    for e in edge_list:
        d = min(e.darts)
        for sign in (1, -1):
            out.append(CIM2Split(d, sign))
        for k, r in enumerate(ch.loops):
            if r.label == e.label and not r.over:
                out.append(CIM2Absorb(d, k))

    darts = m.darts
    for ai, a in enumerate(darts):
        for b in darts[ai + 1 :]:
            ea, eb = emap[a], emap[b]
            if ea is eb:
                continue
            pa, pb = _other(ea, a), _other(eb, b)
            if (
                ea.label == eb.label
                and (ea.head == a) != (eb.head == b)
                and _planar_reconnect(m, a, pa, b, pb)
            ):
                out.append(CIM2Reconnect(a, b))
            if abs(ea.label - eb.label) >= 2 and _planar_insert(m, a, pa, b):
                out.append(CIR2Insert(a, b))

    for i in range(len(ch.loops)):
        for j in range(i + 1, len(ch.loops)):
            ri, rj = ch.loops[i], ch.loops[j]
            if (
                abs(ri.label - rj.label) >= 2
                and not (ri.pinned or rj.pinned)
                and not (ri.over or rj.over)
            ):
                out.append(CIR2Bootstrap(i, j))

    if ch.edges:
        seen_pairs = set()
        for f in m.faces:
            if len(f) != 2:
                continue
            va, vb = vmap[f[0]][0], vmap[f[1]][0]
            if va == vb:
                continue
            if (
                ch.vertices[va].kind != "crossing"
                or ch.vertices[vb].kind != "crossing"
            ):
                continue
            key = (min(va, vb), max(va, vb))
            if key in seen_pairs:
                continue
            ta, sa = crossing_type(ch, va)
            tb, sb = crossing_type(ch, vb)
            if ta == tb and sa == -sb:
                seen_pairs.add(key)
                mv = CIR2Straighten(f[0], f[1])
                try:
                    apply_move(s, mv)
                except ValueError:
                    continue
                out.append(mv)

    lone = _lone_blacks(ch)
    for d in sorted(lone):
        e = emap[d]
        for t in darts:
            if emap[t] is e:
                continue
            if abs(emap[t].label - e.label) < 2:
                continue
            mv = CIISweep(d, t)
            try:
                apply_move(s, mv)
            except ValueError:
                continue
            out.append(mv)
    for d in darts:
        vi = vmap[d][0]
        if ch.vertices[vi].kind == "crossing" and _other(emap[d], d) in lone:
            out.append(CIIRetract(d))

    for vi, v in enumerate(ch.vertices):
        if v.kind != "white":
            continue
        mids = middle_positions(ch, vi)
        for p, d in enumerate(v.cycle):
            if p in mids:
                continue
            if _other(emap[d], d) in lone:
                out.append(CIIIEliminate(d))

    for x in range(1, n):
        for y in (x - 1, x + 1):
            if not 1 <= y <= n - 1:
                continue
            picked, used = [], set()
            for lab in (y, x, y, x, y):
                k = next(
                    (
                        kk
                        for kk, r in enumerate(ch.loops)
                        if kk not in used
                        and r.label == lab
                        and r.sign == 1
                        and not r.pinned
                        and not r.over
                    ),
                    None,
                )
                if k is None:
                    break
                used.add(k)
                picked.append(k)
            if len(picked) == 5:
                out.append(CIM3Bootstrap(x, y, tuple(picked)))

    for e in edge_list:
        d = min(e.darts)
        try:
            _mirror_pair(ch, emap, vmap, d)
        except ValueError:
            continue
        out.append(CIM3Cancel(d))
    return out


# ---------------------------------------------------------------------------
# random blackless charts


def generate_blackless_chart(degree: int, steps: int, rng) -> Chart:
    """Grow a valid blackless genus-0 chart by random inverse-direction moves."""
    s = empty_surface(degree)
    for _ in range(steps):
        ch = s.chart
        m = surface_map(ch)
        emap, darts = m.edge_at, m.darts
        # insertion sites in pair order; the list is built only when an
        # insert is drawn, so the random stream matches the eager list's
        inserts = (
            (a, b)
            for ai, a in enumerate(darts)
            for b in darts[ai + 1 :]
            if emap[a] is not emap[b]
            and abs(emap[a].label - emap[b].label) >= 2
            and _planar_insert(m, a, _other(emap[a], a), b)
        )
        first = next(inserts, None)
        opts = ["addloop", "addloop"]
        if ch.edges:
            opts.append("split")
            if first is not None:
                opts += ["insert", "insert"]
        pairs = [
            (i, j)
            for i in range(len(ch.loops))
            for j in range(i + 1, len(ch.loops))
            if abs(ch.loops[i].label - ch.loops[j].label) >= 2
        ]
        if pairs:
            opts += ["bootcir", "bootcir"]
        if degree >= 3:
            opts += ["bootwhite", "bootwhite", "bootwhite"]
        kind = rng.choice(opts)
        try:
            if kind == "addloop":
                lab = rng.randrange(1, degree)
                sign = 1 if rng.random() < 0.7 else -1
                s, _ = apply_move(s, CIM1Add(lab, sign))
            elif kind == "split":
                e = rng.choice(sorted(ch.edges, key=lambda e: min(e.darts)))
                s, _ = apply_move(s, CIM2Split(min(e.darts), rng.choice((1, -1))))
            elif kind == "insert":
                a, b = rng.choice([first, *inserts])
                s, _ = apply_move(s, CIR2Insert(a, b))
            elif kind == "bootcir":
                i, j = rng.choice(pairs)
                s, _ = apply_move(s, CIR2Bootstrap(i, j))
            else:
                x = rng.randrange(1, degree)
                ys = [y for y in (x - 1, x + 1) if 1 <= y <= degree - 1]
                y = rng.choice(ys)
                base = len(ch.loops)
                for lab in (y, x, y, x, y):
                    s, _ = apply_move(s, CIM1Add(lab, 1))
                s, _ = apply_move(
                    s, CIM3Bootstrap(x, y, tuple(range(base, base + 5)))
                )
        except ValueError:
            continue
    return s.chart


# ---------------------------------------------------------------------------
# traces and unbraiding


@dataclass(frozen=True)
class EngineTrace:
    initial: DecoratedSurface
    steps: tuple
    claims: tuple = ()

    def replace_steps(self, steps):
        return EngineTrace(self.initial, tuple(steps), self.claims)

    def replace_claims(self, claims):
        return EngineTrace(self.initial, self.steps, tuple(claims))


class _Runner:
    def __init__(self, start):
        self.state = start
        self.steps = []

    def do(self, mv):
        nxt, _ = apply_move(self.state, mv)
        self.state = nxt
        self.steps.append(mv)
        return nxt


def _collect_crossing(run: _Runner) -> int:
    """Resolve one crossing onto a fresh handle; returns handles spent."""
    ch = run.state.chart
    xs = [(min(v.cycle), vi) for vi, v in enumerate(ch.vertices) if v.kind == "crossing"]
    _, vi = min(xs)
    cyc = ch.vertices[vi].cycle
    emap, _ = _edge_maps(ch)
    i = min(emap[d].label for d in cyc)
    d_i = min(d for d in cyc if emap[d].label == i)
    run.do(AttachTrivialHandle(cocore_label=i))
    hid = run.state.handles[-1].id
    run.do(Bridge(hid, d_i))
    run.do(CrossingTransfer(d_i, hid))
    h = _handle(run.state, hid)
    if _span_edge(run.state, h) is None:
        run.do(CIM2Reconnect(h.feet[0], h.feet[1]))
    return 1


def _cancel_whites(run: _Runner) -> int:
    """Remove every white vertex; returns handles spent on stubborn ones."""
    spent = 0
    while True:
        ch = run.state.chart
        whites = [vi for vi, v in enumerate(ch.vertices) if v.kind == "white"]
        if not whites:
            return spent
        emap, vmap = _edge_maps(ch)
        lone = _lone_blacks(ch)
        fired = None
        for vi in whites:
            mids = middle_positions(ch, vi)
            for p, d in enumerate(ch.vertices[vi].cycle):
                if p not in mids and _other(emap[d], d) in lone:
                    fired = d
                    break
            if fired is not None:
                break
        if fired is not None:
            run.do(CIIIEliminate(fired))
            continue
        hit = None
        for e in sorted(ch.edges, key=lambda e: min(e.darts)):
            d = min(e.darts)
            try:
                _mirror_pair(ch, emap, vmap, d)
            except ValueError:
                continue
            hit = d
            break
        if hit is not None:
            run.do(CIM3Cancel(hit))
            continue
        # gather a swapped-type pair by rewiring, then cancel it
        types = {}
        for vi in whites:
            pair, rot = white_type(ch, vi)
            types.setdefault(pair, []).append((vi, rot))
        progressed = False
        for (a_lab, b_lab), lst in sorted(types.items()):
            partner = types.get((b_lab, a_lab))
            if not partner or (a_lab, b_lab) > (b_lab, a_lab):
                continue
            for (v1, r1), (v2, r2) in (
                (x, y) for x in lst for y in partner
            ):
                q = (-r1 - r2 - 1) % 6
                c1 = ch.vertices[v1].cycle
                c2 = ch.vertices[v2].cycle
                trial = run.state
                moves = []
                try:
                    for k in range(6):
                        em_k, _ = _edge_maps(trial.chart)
                        a = c1[k]
                        target = c2[(q - k) % 6]
                        if _other(em_k[a], a) == target:
                            continue
                        mv = CIM2Reconnect(a, target)
                        trial, _ = apply_move(trial, mv)
                        moves.append(mv)
                    mv = CIM3Cancel(c1[0])
                    apply_move(trial, mv)
                    moves.append(mv)
                except ValueError:
                    continue
                for mv in moves:
                    run.do(mv)
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            spent += _bridge_out_white(run)


def _bridge_out_white(run: _Runner) -> int:
    """Open a branch into one white over a spanned handle, then absorb it.

    The span is reconnected across a non-middle edge of the white, leaving
    a lone foot on that edge, which the white then swallows.  Reuses a
    clean matching handle when one is available.
    """
    ch = run.state.chart
    emap, _ = _edge_maps(ch)
    order = sorted(
        (vi for vi, v in enumerate(ch.vertices) if v.kind == "white"),
        key=lambda vi: min(ch.vertices[vi].cycle),
    )
    for vi in order:
        mids = middle_positions(ch, vi)
        for p, d in enumerate(ch.vertices[vi].cycle):
            if p in mids:
                continue
            label = emap[d].label
            carrier = None
            for h in run.state.handles:
                if h.mn is not None or h.coreloop.letters or h.feet is None:
                    continue
                e = _span_edge(run.state, h)
                if e is not None and e.label == label:
                    carrier = h.id
                    break
            trial = run.state
            try:
                if carrier is None:
                    trial, _ = apply_move(
                        trial, AttachTrivialHandle(cocore_label=label)
                    )
                    hid = trial.handles[-1].id
                else:
                    hid = carrier
                trial, _ = apply_move(trial, Bridge(hid, d))
                apply_move(trial, CIIIEliminate(d))
            except ValueError:
                continue
            if carrier is None:
                run.do(AttachTrivialHandle(cocore_label=label))
            run.do(Bridge(hid, d))
            run.do(CIIIEliminate(d))
            return 0 if carrier is not None else 1
    raise RuntimeError("no white vertex accepts a bridged branch")


def _clear_records(run: _Runner) -> int:
    count = 0
    while True:
        ch = run.state.chart
        if not ch.loops:
            return count
        idx = len(ch.loops) - 1
        rec = ch.loops[idx]
        if not rec.pinned:
            run.do(CIM1Erase(idx))
            continue
        # essential records ride a same-labelled generator handle instead
        carrier = None
        for h in run.state.handles:
            if h.mn is None and h.coreloop.is_empty:
                e = _span_edge(run.state, h)
                if e is not None and e.label == rec.label:
                    carrier = h
                    break
        if carrier is None:
            run.do(AttachTrivialHandle(cocore_label=rec.label))
            count += 1
            carrier = run.state.handles[-1]
        run.do(CIM2Absorb(min(carrier.feet), idx))


def _strengthen(run: _Runner) -> int:
    count = 0
    while True:
        s = run.state
        loaded = []
        for h in s.handles:
            if h.mn is not None or not h.coreloop.letters:
                continue
            e = _span_edge(s, h)
            if e is None or len(h.coreloop.letters) != 1:
                continue
            sign = 1 if e.head == h.feet[1] else -1
            loaded.append((h, e.label, sign))
        if not loaded:
            return count
        done = False
        for a in range(len(loaded)):
            for b in range(len(loaded)):
                if a == b:
                    continue
                hk, lk, sk = loaded[a]
                hl, ll, sl = loaded[b]
                if lk != ll or sk != sl:
                    continue
                if hk.coreloop != hl.coreloop.inverse():
                    continue
                run.do(HandleSlideDecorated(hk.id, hl.id, "A"))
                run.do(RotateTrivialHandleDecoration(hl.id, "cw"))
                done = True
                break
            if done:
                break
        if done:
            continue
        # no cancelling partner: attach one carrying the inverse letter
        hk, lk, sk = loaded[0]
        letter = hk.coreloop.letters[0]
        helper = BraidWord.from_signed(
            s.chart.degree, (-letter.index * letter.sign,)
        )
        run.do(AttachTrivialHandle(cocore_label=lk, cocore_sign=sk, coreloop=helper))
        count += 1


def unbraid_without_branch(s: DecoratedSurface, mode: str = "weak"):
    """Undo a blackless chart with one handle per crossing.

    Returns (final surface, handles attached, trace).  In strong mode the
    leftover loop decorations are cancelled pairwise as well.
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown mode {mode!r}")
    st = chart_stats(s.chart)
    if st.b:
        raise HasBlackVertices(f"{st.b} black vertices present")
    bound = st.w + 2 * st.c + s.chart.degree - 1
    run = _Runner(s)
    count = 0
    while any(v.kind == "crossing" for v in run.state.chart.vertices):
        count += _collect_crossing(run)
    count += _cancel_whites(run)
    count += _clear_records(run)
    if mode == "strong":
        count += _strengthen(run)
    claims = (
        "empty",
        "strong-forms" if mode == "strong" else "weak-forms",
        f"handle-count<={bound}",
    )
    return run.state, count, EngineTrace(s, tuple(run.steps), claims)


def unbraid_with_branch(s: DecoratedSurface):
    """Unknot a chart with black vertices, eliminating branches greedily."""
    st = chart_stats(s.chart)
    if st.b == 0:
        return unbraid_without_branch(s)
    bound = st.w + 2 * st.c + s.chart.degree - 1
    run = _Runner(s)
    count = 0
    while True:
        ch = run.state.chart
        emap, _ = _edge_maps(ch)
        lone = _lone_blacks(ch)
        cand = []
        for vi, v in enumerate(ch.vertices):
            if v.kind != "white":
                continue
            mids = middle_positions(ch, vi)
            for p, d in enumerate(v.cycle):
                if p not in mids and _other(emap[d], d) in lone:
                    cand.append(d)
        if cand:
            run.do(CIIIEliminate(min(cand)))
            continue
        if any(v.kind == "crossing" for v in ch.vertices):
            count += _collect_crossing(run)
            continue
        break
    count += _cancel_whites(run)
    count += _clear_records(run)
    if st.b >= 2 * (s.chart.degree - 1):
        _drain_handles(run)
    claims = ("unknotted", f"handle-count<={bound}")
    return run.state, count, EngineTrace(s, tuple(run.steps), claims)


def _drain_handles(run: _Runner):
    """Pop loop letters over matching free ends, then retire empty spans."""
    for hid in [h.id for h in run.state.handles]:
        while True:
            h = _handle(run.state, hid)
            if h.mn is not None or not h.coreloop.letters:
                break
            letter = h.coreloop.letters[-1]
            lone = _lone_blacks(run.state.chart)
            emap, _ = _edge_maps(run.state.chart)
            d = next(
                (d for d in sorted(lone) if emap[d].label == letter.index), None
            )
            if d is None:
                break
            run.do(
                MoveHandleAcrossEdge(hid, end=d, sign=-letter.sign, side="right")
            )
        h = _handle(run.state, hid)
        if h.coreloop.letters or h.feet is None:
            continue
        e = _span_edge(run.state, h)
        if e is None:
            continue
        lone = _lone_blacks(run.state.chart)
        emap, _ = _edge_maps(run.state.chart)
        target = next(
            (
                d
                for d in sorted(lone)
                if emap[d] is not e and emap[d].label == e.label
            ),
            None,
        )
        if target is not None:
            run.do(AbsorbLoopIntoFreeEdge(hid, target))


def unbraid_repeated_pattern(s: DecoratedSurface):
    """Normalize a coiled handle carrying parallel pattern copies."""
    ch = s.chart
    if ch.vertices or ch.edges or ch.loops:
        raise NotRepeatedPattern("the chart carries map structure")
    if len(s.handles) != 1 or s.handles[0].mn is None:
        raise NotRepeatedPattern("expected exactly one coiled handle")
    run = _Runner(s)
    while True:
        pats = run.state.chart.pattern_loops
        order = sorted(range(len(pats)), key=lambda k: pats[k].curve)
        hit = None
        for a, b in zip(order, order[1:]):
            if pats[a].sense == -pats[b].sense:
                hit = a
                break
        if hit is None:
            break
        run.do(PatternCancel(hit))
    while run.state.chart.pattern_loops:
        pats = run.state.chart.pattern_loops
        idx = min(range(len(pats)), key=lambda k: pats[k].curve)
        run.do(PatternCapture(idx))
    while True:
        m, n = next(h.mn for h in run.state.handles if h.mn is not None)
        if 0 <= n <= 1:
            break
        run.do(PatternTwist(-1 if n > 1 else 1))
    claims = ("empty", f"handle-mn={m},{n}")
    return run.state, EngineTrace(s, tuple(run.steps), claims)


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyResult:
    ok: bool
    step: int | None
    reason: str | None
    final: DecoratedSurface | None = None


def _non_handle_vertices(s: DecoratedSurface):
    feet = {d for h in s.handles if h.feet is not None for d in h.feet}
    comp = surface_map(s.chart).comp
    roots = {comp[d] for d in feet}
    return [v for v in s.chart.vertices if comp[v.cycle[0]] not in roots]


def _deco_form_ok(s, h, strong):
    if h.mn is not None:
        return False
    b = h.coreloop
    if h.feet is None:
        a = BraidWord(s.chart.degree)
    else:
        a = derived_cocore(s, h.id)
        if a is None:
            return False
    if b.is_empty:
        return True
    if strong:
        return False
    return (
        len(a.letters) == 1
        and len(b.letters) == 1
        and abs(a.letters[0].index - b.letters[0].index) >= 2
    )


def _check_claim(state, trace, claim):
    n = state.chart.degree
    attached = sum(isinstance(mv, AttachTrivialHandle) for mv in trace.steps)
    if claim == "empty":
        if _non_handle_vertices(state):
            return False, "claim empty: the chart still has components"
        if state.chart.loops or state.chart.pattern_loops:
            return False, "claim empty: records remain"
        return True, None
    if claim == "unknotted":
        bad = [v for v in _non_handle_vertices(state) if v.kind != "black"]
        if bad:
            return False, "claim unknotted: non-black structure remains"
        if state.chart.loops or state.chart.pattern_loops:
            return False, "claim unknotted: records remain"
        return True, None
    if claim in ("weak-forms", "strong-forms"):
        strong = claim == "strong-forms"
        for h in state.handles:
            if not _deco_form_ok(state, h, strong):
                return False, f"claim {claim}: handle {h.id} is not in form"
        return True, None
    if claim.startswith("handle-count<="):
        try:
            k = int(claim.split("<=")[1])
        except ValueError:
            return False, f"claim {claim}: bad count"
        if attached > k:
            return False, f"claim {claim}: {attached} handles were attached"
        return True, None
    if claim.startswith("added-handles="):
        try:
            k = int(claim.split("=")[1])
        except ValueError:
            return False, f"claim {claim}: bad count"
        if attached != k:
            return False, f"claim {claim}: {attached} handles were attached"
        return True, None
    if claim.startswith("handle-deco="):
        spec = claim.split("=", 1)[1]
        parts = spec.split(",")
        if len(parts) != 2:
            return False, f"claim {claim}: expected two words"
        try:
            a_word = parse_word(parts[0].replace(".", " "), n)
            b_word = parse_word(parts[1].replace(".", " "), n)
        except ValueError:
            return False, f"claim {claim}: bad words"
        for h in state.handles:
            a = derived_cocore(state, h.id)
            if a is not None and a == a_word and h.coreloop == b_word:
                return True, None
        return False, f"claim {claim}: no handle carries that decoration"
    if claim.startswith("handle-mn="):
        spec = claim.split("=", 1)[1]
        try:
            m, nn = (int(x) for x in spec.split(","))
        except ValueError:
            return False, f"claim {claim}: bad pair"
        if any(h.mn == (m, nn) for h in state.handles):
            return True, None
        return False, f"claim {claim}: no coiled handle matches"
    return False, f"unrecognized claim {claim!r}"


def certify_trace(trace: EngineTrace) -> CertifyResult:
    """Check the initial state in full, replay the trace, verify its claims."""
    state = trace.initial
    try:
        _check_surface(state)
    except ValueError as exc:
        return CertifyResult(False, None, str(exc), None)
    for k, mv in enumerate(trace.steps):
        try:
            state, _ = apply_move(state, mv)
        except ValueError as exc:
            return CertifyResult(False, k, f"{type(exc).__name__}: {exc}", None)
        except TypeError as exc:
            return CertifyResult(False, k, str(exc), None)
    for claim in trace.claims:
        ok, why = _check_claim(state, trace, claim)
        if not ok:
            return CertifyResult(False, None, why, state)
    return CertifyResult(True, None, None, state)


# ---------------------------------------------------------------------------
# script format

_REQ = object()


def _enc_sign(v):
    return "+" if v > 0 else "-"


def _dec(kind, text, degree):
    if kind == "int":
        return int(text)
    if kind == "sign":
        if text not in ("+", "-"):
            raise ValueError(f"expected + or -, got {text!r}")
        return 1 if text == "+" else -1
    if kind == "ints":
        return tuple(int(x) for x in text.split(","))
    if kind == "word":
        return parse_word(text.replace(".", " "), degree)
    return text


def _enc(kind, value):
    if kind == "int":
        return str(value)
    if kind == "sign":
        return _enc_sign(value)
    if kind == "ints":
        return ",".join(str(x) for x in value)
    if kind == "word":
        return format_word(value).replace(" ", ".")
    return str(value)


# key, dataclass field, value kind, default (omitted when equal)
_SPECS = {
    CIM1Add: ("cim1add", (("label", "label", "int", _REQ),
                          ("sign", "sign", "sign", _REQ),
                          ("index", "index", "int", None))),
    CIM1Erase: ("cim1erase", (("loop", "loop", "int", _REQ),)),
    CIM2Split: ("cim2split", (("dart", "dart", "int", _REQ),
                              ("sign", "sign", "sign", _REQ),
                              ("index", "index", "int", None))),
    CIM2Absorb: ("cim2absorb", (("dart", "dart", "int", _REQ),
                                ("loop", "loop", "int", _REQ))),
    CIM2Reconnect: ("cim2reconnect", (("a", "a", "int", _REQ),
                                      ("b", "b", "int", _REQ))),
    CIR2Insert: ("cir2insert", (("a", "a", "int", _REQ),
                                ("b", "b", "int", _REQ))),
    CIR2Straighten: ("cir2straighten", (("a", "a", "int", _REQ),
                                        ("b", "b", "int", _REQ))),
    CIR2Bootstrap: ("cir2loops", (("i", "i", "int", _REQ),
                                  ("j", "j", "int", _REQ))),
    CIISweep: ("cii", (("black", "black", "int", _REQ),
                       ("target", "target", "int", _REQ))),
    CIIRetract: ("ciiretract", (("dart", "dart", "int", _REQ),)),
    CIIIEliminate: ("ciii", (("dart", "dart", "int", _REQ),)),
    CIM3Bootstrap: ("cim3loops", (("x", "x", "int", _REQ),
                                  ("y", "y", "int", _REQ),
                                  ("loops", "loops", "ints", _REQ))),
    CIM3Cancel: ("cim3cancel", (("dart", "dart", "int", _REQ),)),
    DetachTrivialHandle: ("detach", (("handle", "handle", "int", _REQ),)),
    MoveHandleAcrossEdge: ("across", (("handle", "handle", "int", _REQ),
                                      ("dart", "dart", "int", None),
                                      ("end", "end", "int", None),
                                      ("loop", "loop", "int", None),
                                      ("emit", "emit_label", "int", None),
                                      ("sign", "sign", "sign", 1),
                                      ("emitsign", "emit_sign", "sign", 1),
                                      ("side", "side", "str", "right"),
                                      ("index", "index", "int", None))),
    Bridge: ("bridge", (("handle", "handle", "int", _REQ),
                        ("dart", "dart", "int", _REQ))),
    CrossingTransfer: ("transfer", (("dart", "dart", "int", _REQ),
                                    ("handle", "handle", "int", _REQ),
                                    ("side", "side", "str", "right"))),
    RotateTrivialHandleDecoration: ("rotate", (("handle", "handle", "int", _REQ),
                                               ("dir", "direction", "str", _REQ))),
    ConvertViaGeneratorSet: ("convert", (("handle", "handle", "int", _REQ),
                                         ("label", "label", "int", _REQ),
                                         ("sign", "sign", "sign", 1))),
    FreeEdgeRelabel: ("relabel", (("dart", "dart", "int", _REQ),
                                  ("label", "label", "int", _REQ))),
    HandleSlideDecorated: ("slide", (("handle", "handle", "int", _REQ),
                                     ("over", "over", "int", _REQ),
                                     ("variant", "variant", "str", _REQ))),
    OrientationReversalAid: ("reverseaid", (("dart", "dart", "int", _REQ),)),
    SlideEndAlongEdge: ("slideend", (("dart", "dart", "int", _REQ),
                                     ("along", "along", "int", _REQ))),
    AbsorbLoopIntoFreeEdge: ("absorbhandle", (("handle", "handle", "int", _REQ),
                                              ("dart", "dart", "int", _REQ))),
    PatternCancel: ("patterncancel", (("index", "index", "int", _REQ),)),
    PatternCapture: ("patterncapture", (("index", "index", "int", _REQ),)),
    PatternTwist: ("patterntwist", (("sign", "sign", "sign", _REQ),)),
}

_BY_NAME = {name: (cls, fields) for cls, (name, fields) in _SPECS.items()}
_BY_NAME["attach"] = (AttachTrivialHandle, None)


def _encode_move(mv):
    if isinstance(mv, AttachTrivialHandle):
        toks = ["attach"]
        if mv.cocore_label is not None:
            letter = ("s" if mv.cocore_sign > 0 else "S") + str(mv.cocore_label)
            toks.append(f"cocore={letter}")
        if mv.coreloop is not None and mv.coreloop.letters:
            toks.append(f"coreloop={_enc('word', mv.coreloop)}")
        return toks
    spec = _SPECS.get(type(mv))
    if spec is None:
        raise ValueError(f"{type(mv).__name__} has no text form")
    name, fields = spec
    toks = [name]
    for key, field_name, kind, default in fields:
        value = getattr(mv, field_name)
        if default is not _REQ and value == default:
            continue
        if value is None:
            continue
        toks.append(f"{key}={_enc(kind, value)}")
    return toks


def _decode_move(name, kv, degree):
    cls, fields = _BY_NAME[name]
    if cls is AttachTrivialHandle:
        allowed = {"cocore", "coreloop"}
        extra = set(kv) - allowed
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)}")
        label = sign = None
        if "cocore" in kv:
            w = parse_word(kv["cocore"], degree)
            if len(w.letters) != 1:
                raise ValueError("cocore must be a single letter")
            label, sign = w.letters[0].index, w.letters[0].sign
        coreloop = None
        if "coreloop" in kv:
            coreloop = _dec("word", kv["coreloop"], degree)
        return AttachTrivialHandle(label, sign if sign is not None else 1, coreloop)
    values = {}
    keys = {key for key, _, _, _ in fields}
    extra = set(kv) - keys
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)}")
    for key, field_name, kind, default in fields:
        if key in kv:
            values[field_name] = _dec(kind, kv[key], degree)
        elif default is _REQ:
            raise ValueError(f"missing key {key}")
        else:
            values[field_name] = default
    return cls(**values)


def format_script(trace: EngineTrace) -> str:
    """Serialize a trace's moves and claims, one per line."""
    lines = []
    for mv in trace.steps:
        lines.append("move " + " ".join(_encode_move(mv)))
    for claim in trace.claims:
        lines.append(f"claim {claim}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_script(text: str, initial: DecoratedSurface) -> EngineTrace:
    """Parse the move/claim line format into a trace over `initial`."""
    degree = initial.chart.degree
    steps, claims = [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split(None, 1)
        if head[0] == "claim":
            if len(head) < 2 or not head[1].strip():
                raise ParseError(ln, 1, "empty claim")
            claims.append(head[1].strip())
            continue
        if head[0] != "move":
            raise ParseError(ln, 1, f"expected move or claim, got {head[0]!r}")
        toks = line.split()
        if len(toks) < 2:
            raise ParseError(ln, len(line) + 1, "missing move name")
        name = toks[1]
        if name not in _BY_NAME:
            raise ParseError(ln, line.find(name) + 1, f"unknown move {name!r}")
        kv = {}
        for tok in toks[2:]:
            if "=" not in tok:
                raise ParseError(
                    ln, line.find(tok) + 1, f"expected key=value, got {tok!r}"
                )
            k, _, v = tok.partition("=")
            if k in kv:
                raise ParseError(ln, line.find(tok) + 1, f"duplicate key {k!r}")
            kv[k] = v
        try:
            steps.append(_decode_move(name, kv, degree))
        except ValueError as exc:
            raise ParseError(ln, 1, str(exc)) from None
    return EngineTrace(initial, tuple(steps), tuple(claims))
