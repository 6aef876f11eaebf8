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

from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields, replace
from functools import lru_cache
from operator import attrgetter
from itertools import accumulate

from .braid import BraidWord, conjugate, format_word, free_reduce, parse_word
from .chart import (
    _WHITE_BASE,
    _map_of,
    Chart,
    Edge,
    FloatingLoop,
    Vertex,
    bounds_of,
    canonical_chart,
    canonical_dart_map,
    chart_stats,
    crossing_type,
    drop_map,
    middle_positions,
    rewrite,
    take_patch,
    validate_chart,
    white_type,
)
from .errors import (
    IntegerTooLong, TokenError, read_int, read_ints, read_lines, read_sign, read_token, sign_text,
)
from .handles import repeat, twisted, twists_into


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


class HasPatternLoops(ValueError):
    """The chart unbraiders refuse pattern copies, which they cannot undo."""


class NotRepeatedPattern(ValueError):
    """The surface is not in the coiled single-handle normal position."""


class StuckWhiteVertex(ValueError):
    """Unbraiding found no move that removes a white vertex."""


# ---------------------------------------------------------------------------
# decorated surfaces


@dataclass(frozen=True, slots=True)
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


def _surface(chart: Chart, handles) -> DecoratedSurface:
    """DecoratedSurface(chart, handles), made in one step past the frozen
    dataclass __init__: the same value, which still refuses assignment.
    handles is a tuple, or a _HandleIndex that the surface keeps as its
    index."""
    out = object.__new__(DecoratedSurface)
    if type(handles) is _HandleIndex:
        out.__dict__.update(chart=chart, handles=handles.handles, _index=handles)
    else:
        out.__dict__.update(chart=chart, handles=handles)
    return out


_ID = attrgetter("id")


def _positions(handles):
    """id -> the position of the first handle with that id."""
    return dict(zip(map(_ID, reversed(handles)), range(len(handles) - 1, -1, -1)))


class _HandleIndex:
    """A surface's handles, indexed.

    handles is the tuple itself; pos maps each id to the position of its
    first handle, foot each foot to the id of a handle standing on it, and
    top is the largest id, 0 when there is none.  nfeet counts the feet of
    all handles, which is more than foot holds when two feet coincide.

    Like the chart's map, the index is carried through each move: put, add
    and drop make the output's index from the input's, copying only the
    tables they change.  The index made keeps parent, the index it was made
    from, until the patch check reads it, changed, the positions of the
    handles put, and stirred, the darts that became or stopped being feet.
    """

    __slots__ = ("handles", "pos", "foot", "nfeet", "top", "parent", "changed", "stirred")

    def __init__(self, handles, pos, foot, nfeet, top, parent=None, changed=(), stirred=()):
        self.handles, self.pos, self.foot, self.nfeet, self.top = handles, pos, foot, nfeet, top
        self.parent, self.changed, self.stirred = parent, changed, stirred

    @classmethod
    def of(cls, handles):
        """The index of a handle tuple, built in full."""
        pos = _positions(handles)
        feet = [(f, h.id) for h in handles if h.feet is not None for f in h.feet]
        return cls(handles, pos, dict(feet), len(feet), max(pos, default=0))

    def _moved(self, olds, news):
        """The foot table and feet count with the feet of the handles olds
        taken off and those of news put on, and the darts stirred; the
        table is copied only when feet change."""
        olds = [h for h in olds if h.feet is not None]
        news = [h for h in news if h.feet is not None]
        if not (olds or news):
            return self.foot, self.nfeet, ()
        foot, nfeet, stirred = self.foot.copy(), self.nfeet, []
        for h in olds:
            for f in h.feet:
                del foot[f]
            nfeet -= len(h.feet)
            stirred += h.feet
        for h in news:
            foot.update(dict.fromkeys(h.feet, h.id))
            nfeet += len(h.feet)
            stirred += h.feet
        return foot, nfeet, stirred

    def put(self, *hs):
        """The index with each of hs in place of the handle with its id."""
        handles, olds, news, changed = self.handles, [], [], []
        for h in hs:
            k = self.pos[h.id]
            if handles[k].feet != h.feet:
                olds.append(handles[k])
                news.append(h)
            handles = (*handles[:k], h, *handles[k + 1:])
            changed.append(k)
        changed.sort()
        foot, nfeet, stirred = self._moved(olds, news) if olds else (self.foot, self.nfeet, ())
        return _HandleIndex(handles, self.pos, foot, nfeet, self.top, self, changed, stirred)

    def add(self, h):
        """The index with h appended."""
        k = len(self.handles)
        pos = self.pos.copy()
        pos.setdefault(h.id, k)
        foot, nfeet, stirred = self._moved((), (h,))
        top = max(self.top, h.id) if k else h.id
        return _HandleIndex(self.handles + (h,), pos, foot, nfeet, top, self, (k,), stirred)

    def drop(self, hid):
        """The index without the handle hid."""
        k = self.pos[hid]
        handles = self.handles[:k] + self.handles[k + 1:]
        pos = _positions(handles)
        foot, nfeet, stirred = self._moved((self.handles[k],), ())
        top = max(pos, default=0) if hid == self.top else self.top
        return _HandleIndex(handles, pos, foot, nfeet, top, self, (), stirred)


def _index(s: DecoratedSurface) -> _HandleIndex:
    """The handle index of s, built in full on first use."""
    got = s.__dict__.get("_index")
    if got is None:
        got = s.__dict__["_index"] = _HandleIndex.of(s.handles)
    return got


def empty_surface(degree: int, genus: int = 0) -> DecoratedSurface:
    return DecoratedSurface(Chart(degree=degree, genus=genus), ())


def _handle(s: DecoratedSurface, hid: int) -> AttachedHandle:
    k = _index(s).pos.get(hid)
    if k is None:
        raise SiteMismatch(f"no handle {hid}")
    return s.handles[k]


def _uncoiled(s: DecoratedSurface, hid: int, verb: str) -> AttachedHandle:
    """The handle hid, refused when it is coiled."""
    h = _handle(s, hid)
    if h.mn is not None:
        raise NonTrivialHandle(f"a coiled handle cannot {verb}")
    return h


def _span(s: DecoratedSurface, h: AttachedHandle):
    """(edge, signed cocore letter) of the clean edge joining the handle's
    two feet, the letter positive when the edge runs to the second foot;
    None when the handle is footless or threaded."""
    if h.feet is None:
        return None
    e = _map_of(s.chart).edge_at.get(h.feet[0])
    if e is None or set(e.darts) != set(h.feet):
        return None
    return e, e.label if e.head == h.feet[1] else -e.label


def _clean_span(s: DecoratedSurface, h: AttachedHandle):
    """_span(s, h), refused when the handle has no clean span."""
    span = _span(s, h)
    if span is None:
        raise NonTrivialHandle("the handle is threaded through the chart")
    return span


def _foot_vertices(s: DecoratedSurface, h: AttachedHandle):
    """The vertices holding the handle's feet."""
    vertex_at = _map_of(s.chart).vertex_at
    return tuple({id(vertex_at[f]): vertex_at[f] for f in h.feet}.values())


def derived_cocore(s: DecoratedSurface, hid: int) -> BraidWord | None:
    """Cocore word read off the spanning edge; None when threaded."""
    h = _handle(s, hid)
    if h.feet is None:
        return BraidWord(s.chart.degree)
    span = _span(s, h)
    return None if span is None else BraidWord.from_signed(s.chart.degree, (span[1],))


def _handle_key(s, remap):
    out = []
    for h in s.handles:
        feet = () if h.feet is None else tuple(remap[d] for d in h.feet)
        out.append((h.feet is None, feet, h.coreloop.letters, h.mn or ()))
    return tuple(sorted(out))


def _canonical_key(s: DecoratedSurface):
    remap = canonical_dart_map(s.chart)
    return canonical_chart(s.chart, remap), _handle_key(s, remap)


def surfaces_equal(a: DecoratedSurface, b: DecoratedSurface) -> bool:
    """Equality up to a dart renaming that keeps dart order, and handle id
    renumbering."""
    return _canonical_key(a) == _canonical_key(b)


# ---------------------------------------------------------------------------
# move vocabulary


@dataclass(frozen=True, slots=True)
class CIM1Add:
    """Spawn a vertex-free loop record."""

    label: int
    sign: int
    index: int | None = None


@dataclass(frozen=True, slots=True)
class CIM1Erase:
    loop: int


@dataclass(frozen=True, slots=True)
class CIM2Split:
    """Pinch a loop record off an edge; the edge itself is unchanged."""

    dart: int
    sign: int
    index: int | None = None


@dataclass(frozen=True, slots=True)
class CIM2Absorb:
    dart: int
    loop: int


@dataclass(frozen=True, slots=True)
class CIM2Reconnect:
    """Cut the edges at two counterdirected darts and swap their partners."""

    a: int
    b: int


@dataclass(frozen=True, slots=True)
class CIR2Insert:
    """Push two far-labelled strands across each other, making two crossings."""

    a: int
    b: int


@dataclass(frozen=True, slots=True)
class CIR2Bootstrap:
    """Realize two far-labelled loop records as a pair of crossed circles."""

    i: int
    j: int


@dataclass(frozen=True, slots=True)
class CIR2Straighten:
    """Cancel two adjacent opposite crossings of the same strand pair."""

    a: int
    b: int


@dataclass(frozen=True, slots=True)
class CIISweep:
    """Sweep a lone black end across a far-labelled strand."""

    black: int
    target: int


@dataclass(frozen=True, slots=True)
class CIIRetract:
    dart: int


@dataclass(frozen=True, slots=True)
class CIIIEliminate:
    """Absorb a black-capped non-middle branch, deleting its white vertex."""

    dart: int


@dataclass(frozen=True, slots=True)
class CIM3Bootstrap:
    """Turn five aligned loop records into a mirrored white-vertex pair."""

    x: int
    y: int
    loops: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CIM3Cancel:
    dart: int


@dataclass(frozen=True, slots=True)
class AttachTrivialHandle:
    """Attach a standard handle, optionally spanned by one cocore letter."""

    cocore_label: int | None = None
    cocore_sign: int = 1
    coreloop: BraidWord | None = None


@dataclass(frozen=True, slots=True)
class DetachTrivialHandle:
    handle: int


@dataclass(frozen=True, slots=True)
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
    emit_sign: int = 1
    side: str = "right"
    index: int | None = None


@dataclass(frozen=True, slots=True)
class Bridge:
    """Reconnect one foot of a clean handle onto a same-labelled strand."""

    handle: int
    dart: int


@dataclass(frozen=True, slots=True)
class CrossingTransfer:
    """Pull a bridged crossing through the handle onto its core."""

    dart: int
    handle: int
    side: str = "right"


@dataclass(frozen=True, slots=True)
class RotateTrivialHandleDecoration:
    """Quarter-turn of a standard handle: swaps cocore and core letters."""

    handle: int
    direction: str


@dataclass(frozen=True, slots=True)
class ConvertViaGeneratorSet:
    handle: int
    label: int
    sign: int = 1


@dataclass(frozen=True, slots=True)
class FreeEdgeRelabel:
    dart: int
    label: int


@dataclass(frozen=True, slots=True)
class HandleSlideDecorated:
    """Slide handle `handle` across handle `over`, composing loop words."""

    handle: int
    over: int
    variant: str


@dataclass(frozen=True, slots=True)
class OrientationReversalAid:
    """Reverse all strands at an isolated white vertex; costs one handle."""

    dart: int


@dataclass(frozen=True, slots=True)
class SlideEndAlongEdge:
    dart: int
    along: int


@dataclass(frozen=True, slots=True)
class AbsorbLoopIntoFreeEdge:
    """Retire an undecorated handle span onto a parallel free edge."""

    handle: int
    dart: int


@dataclass(frozen=True, slots=True)
class PatternCancel:
    index: int


@dataclass(frozen=True, slots=True)
class PatternCapture:
    index: int


@dataclass(frozen=True, slots=True)
class PatternTwist:
    sign: int


@dataclass(frozen=True, slots=True, eq=False)
class _Restore:
    """The inverse of a compound surgery: the surface the move started from.

    Never enumerated and never serialized; it exists so that every apply
    can hand back an exact undo even when no single named move would do.
    It applies only to after, the surface the move made, which it knows by
    the identity of its chart and handle tuple, and gives back before
    itself.
    """

    before: DecoratedSurface
    after: DecoratedSurface


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

# the moves whose step attaches a handle
_ATTACHING = (AttachTrivialHandle, OrientationReversalAid)

# Each move class is the one statement of its fields.  apply_move checks
# these fields by name before the applier runs: a sign is +1 or -1, a label
# is 1..N-1 when set, and a choice is one of its values.
_LABELS = ("label", "cocore_label", "emit_label")
_CHOICES = {
    "side": (("left", "right"), "bad side {!r}"),
    "direction": (("cw", "ccw"), "bad direction {!r}"),
    "variant": (("A", "B"), "unknown variant {!r}"),
}


def _field_rules(cls):
    """(field, allowed values or None for a label, refusal) per checked field."""
    rules = []
    for f in fields(cls):
        if f.name.endswith("sign"):
            rules.append((f.name, (1, -1), "bad sign {}"))
        elif f.name in _LABELS:
            rules.append((f.name, None, "label {} out of range"))
        elif f.name in _CHOICES:
            rules.append((f.name, *_CHOICES[f.name]))
    return tuple(rules)


_RULES = {cls: _field_rules(cls) for cls in CHART_MOVES + SURFACE_MOVES}


def _check_fields(mv, degree):
    """Refuse a move whose sign, label or choice field is out of range."""
    for name, allowed, refusal in _RULES.get(type(mv), ()):
        v = getattr(mv, name)
        if allowed is not None:
            if v not in allowed:
                raise SiteMismatch(refusal.format(v))
        elif v is not None and not 1 <= v <= degree - 1:
            raise LabelConstraintViolated(refusal.format(v))


# ---------------------------------------------------------------------------
# shared machinery


def _edge_at(ch: Chart, dart):
    """The edge holding dart; SiteMismatch when the chart has no such dart."""
    e = _map_of(ch).edge_at.get(dart)
    if e is None:
        raise SiteMismatch(f"no dart {dart}")
    return e


def _vertex_at(ch: Chart, dart, kind):
    """The vertex holding dart, which must be of the given kind."""
    v = _map_of(ch).vertex_at.get(dart)
    if v is None:
        raise SiteMismatch(f"no dart {dart}")
    if v.kind != kind:
        raise SiteMismatch(f"the site is not a {kind} vertex")
    return v


def _lone_black(m, dart) -> bool:
    """True when dart, in the map m, is the end of a lone black vertex."""
    v = m.vertex_at.get(dart)
    return v is not None and v.kind == "black" and len(v.cycle) == 1


def _black_ends(ch: Chart):
    """The darts of the lone black vertices, sorted."""
    ends = (v.cycle for v in ch.vertices if v.kind == "black")
    return sorted(c[0] for c in ends if len(c) == 1)


def _other(e: Edge, dart: int) -> int:
    return e.darts[0] if e.darts[1] == dart else e.darts[1]


def _across(v: Vertex):
    """Each end of a crossing paired with the opposite end."""
    return {v.cycle[k]: v.cycle[(k + 2) % 4] for k in range(4)}


def _loop_at(ch: Chart, idx):
    if not isinstance(idx, int) or not 0 <= idx < len(ch.loops):
        raise SiteMismatch(f"no loop record {idx}")
    return ch.loops[idx]


def _with_loop(ch: Chart, index, rec):
    """ch's loop records with rec inserted at index (None: after the last),
    and the index it got."""
    idx = len(ch.loops) if index is None else index
    if not 0 <= idx <= len(ch.loops):
        raise SiteMismatch(f"no record slot {idx}")
    return ch.loops[:idx] + (rec,) + ch.loops[idx:], idx


def _without_loops(ch: Chart, *idxs):
    """ch's loop records without those at the given indices, which exist."""
    out, start = (), 0
    for k in sorted(idxs):
        out += ch.loops[start:k]
        start = k + 1
    return out + ch.loops[start:]


def _fresh(ch: Chart, n: int, drop=()) -> tuple[int, ...]:
    """n darts above the chart's largest dart, leaving out the darts in drop."""
    m = _map_of(ch)
    top = m.last
    if top in drop:
        top = max((d for d in m.alpha if d not in drop), default=0)
    return tuple(range(top + 1, top + 1 + n))


def _faces_touch(s: DecoratedSurface, a, pa, b, pb):
    """Necessary condition for a band between the two edges to embed."""
    m = _map_of(s.chart)
    if m.comp.get(a) != m.comp.get(b):
        return True
    face_at = m.face_at
    fa, fpa = face_at[a], face_at[pa]
    return any(face_at[d] is fa or face_at[d] is fpa for d in (b, pb))


def _planar_reconnect(m, a, pa, b, pb):
    """True when resewing a-b and pa-pb keeps the surface planar, with the
    two edges cobounding a face as the applier requires.

    The rewiring keeps the vertex and edge counts and composes the face
    walk with the disjoint transpositions (a pb) and (b pa), each of which
    splits one face or merges two.  The genus is kept unless both merge:
    so when a and pb lie on one face, or b and pa do.  Otherwise (a pb)
    merges face(a) with face(pb), and (b pa) splits the merged walk only
    when b and pa both lie on it; of those placements, b on face(a) with pa
    on face(pb) is the one where the edges cobound a face.
    """
    if m.comp.get(a) != m.comp.get(b):
        return True
    face_at = m.face_at
    fa, fb, fpa, fpb = face_at[a], face_at[b], face_at[pa], face_at[pb]
    return fpb is fa or fpa is fb or (fb is fa and fpa is fpb)


def _planar_insert(m, a, pa, b):
    # the pushed finger detours through the face behind a, which must be
    # the face in front of b; separate components can always be arranged
    if m.comp.get(a) != m.comp.get(b):
        return True
    return m.face_at[pa] is m.face_at[b]


def _rewrite(s: DecoratedSurface, gone=(), new=(), handles=None, **chart_fields):
    """s with its chart rewritten by chart.rewrite(s.chart, gone, new,
    **chart_fields), and its handles replaced.

    new names the Edge and Vertex objects the move adds and the loop and
    pattern-loop records it puts into chart_fields; the output chart
    carries s's map through this patch.  handles is s's handle index
    changed by the move (see _HandleIndex), or a handle tuple, whose index
    is built in full when first used; without it, the output keeps s's
    handles and their index.
    """
    chart = rewrite(s.chart, gone, new, **chart_fields)
    return _surface(chart, (s.__dict__.get("_index") or s.handles) if handles is None else handles)


def _undoable(s: DecoratedSurface, gone=(), new=(), handles=None, **chart_fields):
    """_rewrite(s, ...) and the restore that gives s back from it."""
    out = _rewrite(s, gone, new, handles, **chart_fields)
    return out, _Restore(s, out)


def _collapse(s: DecoratedSurface, kill, ports, mute=(), handles=None, signed=False):
    """Drop the given vertices and every incident edge, resewing strands;
    returns the output surface and the restore that gives s back.

    ports pairs up every dart of the killed vertices; a strand entering the
    removed region leaves through the paired dart.  A seam's label and
    direction are those of its first edge not in mute: the killed vertices
    are whites and crossings of a checked chart, whose words pair each port
    with an end of its label and the other direction.  Chains that close up
    into circles become loop records, in min-dart order: positive, or when
    signed, positive exactly if the chain arrives at its min dart.
    """
    ch = s.chart
    edge_at = _map_of(ch).edge_at
    killed_darts = {d for v in kill for d in v.cycle}
    chain_edges = {}
    for v in kill:
        for d in v.cycle:
            e = edge_at[d]
            for x in e.darts:
                chain_edges[x] = e
    mute_ids = {id(e) for e in mute}
    external = {d for d in chain_edges if d not in killed_darts}
    done = set()

    def seam(links):
        e, _, t = next(x for x in links if id(x[0]) not in mute_ids)
        return e.label, e.head == t

    def walk(start, closed):
        links, cur = [], start
        while True:
            e = chain_edges[cur]
            done.add(id(e))
            far = _other(e, cur)
            links.append((e, cur, far))
            if not closed and far in external:
                return links
            nxt = ports[far]
            if closed and nxt == start:
                return links
            cur = nxt

    seams = []
    for start in sorted(external):
        if id(chain_edges[start]) in done:
            continue
        links = walk(start, closed=False)
        label, fwd = seam(links)
        a, b = links[0][1], links[-1][2]
        seams.append(Edge((a, b), label, b if fwd else a))
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
    gone = (*kill, *{id(e): e for e in chain_edges.values()}.values())
    recs = tuple(
        FloatingLoop(label, 1 if arrives or not signed else -1)
        for _, label, arrives in closed_out
    )
    return _undoable(s, gone, (*seams, *recs), handles, loops=ch.loops + recs)


# ---------------------------------------------------------------------------
# appliers

_APPLY = {}


def _applies(cls):
    def deco(fn):
        _APPLY[cls] = fn
        return fn

    return deco


@_applies(_Restore)
def _do_restore(s, mv):
    if s.chart is not mv.after.chart or s.handles is not mv.after.handles:
        raise SiteMismatch("restore patch does not match the surface")
    return mv.before, _Restore(s, mv.before)


@_applies(CIM1Add)
def _do_cim1add(s, mv):
    rec = FloatingLoop(mv.label, mv.sign)
    loops, idx = _with_loop(s.chart, mv.index, rec)
    return _rewrite(s, new=(rec,), loops=loops), CIM1Erase(idx)


@_applies(CIM1Erase)
def _do_cim1erase(s, mv):
    rec = _loop_at(s.chart, mv.loop)
    if rec.pinned:
        raise SiteMismatch("pinned records cannot be erased in place")
    loops = _without_loops(s.chart, mv.loop)
    return _rewrite(s, loops=loops), CIM1Add(rec.label, rec.sign, mv.loop)


@_applies(CIM2Split)
def _do_cim2split(s, mv):
    e = _edge_at(s.chart, mv.dart)
    rec = FloatingLoop(e.label, mv.sign)
    loops, idx = _with_loop(s.chart, mv.index, rec)
    return _rewrite(s, new=(rec,), loops=loops), CIM2Absorb(mv.dart, idx)


@_applies(CIM2Absorb)
def _do_cim2absorb(s, mv):
    e = _edge_at(s.chart, mv.dart)
    rec = _loop_at(s.chart, mv.loop)
    if rec.label != e.label:
        raise LabelConstraintViolated(
            f"record label {rec.label} vs edge label {e.label}"
        )
    loops = _without_loops(s.chart, mv.loop)
    return _rewrite(s, loops=loops), CIM2Split(mv.dart, rec.sign, mv.loop)


def _reconnect_check(s, a, b):
    ea, eb = _edge_at(s.chart, a), _edge_at(s.chart, b)
    if ea is eb:
        raise SiteMismatch("the two darts already share an edge")
    if ea.label != eb.label:
        raise LabelConstraintViolated(f"labels {ea.label} and {eb.label} differ")
    ha, hb = ea.head == a, eb.head == b
    if ha == hb:
        raise SiteMismatch("the strands run the same way at the two darts")
    # the band may run through a handle joining exactly these two feet
    at = _index(s).foot.get
    if not (at(a) is not None and at(a) == at(b)):
        if not _faces_touch(s, a, _other(ea, a), b, _other(eb, b)):
            raise SiteMismatch("the two darts do not cobound a face")
    return ea, eb, ha


def _reconnect_surface(s, a, b):
    ea, eb, ha = _reconnect_check(s, a, b)
    pa, pb = _other(ea, a), _other(eb, b)
    lab = ea.label
    new = (Edge((a, b), lab, a if ha else b), Edge((pa, pb), lab, pb if ha else pa))
    out = _rewrite(s, (ea, eb), new)
    # a band that lowers the genus can leave the new edges on no common
    # face, where the reconnect back is refused
    try:
        _reconnect_check(out, a, pa)
    except ValueError:
        return out, _Restore(s, out)
    return out, CIM2Reconnect(a, pa)


@_applies(CIM2Reconnect)
def _do_cim2reconnect(s, mv):
    return _reconnect_surface(s, mv.a, mv.b)


@_applies(CIR2Insert)
def _do_cir2insert(s, mv):
    ch = s.chart
    ea, eb = _edge_at(ch, mv.a), _edge_at(ch, mv.b)
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
    new = []
    for x, y in ((mv.a, w1), (e1, w2), (e2, pa)):
        new.append(Edge((x, y), i, y if ex > 0 else x))
    for x, y in ((mv.b, n1), (s1, s2), (n2, pb)):
        new.append(Edge((x, y), j, y if ey > 0 else x))
    new.append(Vertex("crossing", (w1, s1, e1, n1)))
    new.append(Vertex("crossing", (w2, s2, e2, n2)))
    return _rewrite(s, (ea, eb), new), CIR2Straighten(w1, w2)


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
    if ra.pinned or rb.pinned:
        raise SiteMismatch("pinned records cannot be rewired")
    w1, s1, e1, n1, w2, s2, e2, n2 = _fresh(ch, 8)
    i, j, si, sj = ra.label, rb.label, ra.sign, rb.sign
    new = (
        Edge((e1, w2), i, w2 if si > 0 else e1),
        Edge((e2, w1), i, w1 if si > 0 else e2),
        Edge((s1, s2), j, s1 if sj > 0 else s2),
        Edge((n2, n1), j, n2 if sj > 0 else n1),
        Vertex("crossing", (w1, s1, e1, n1)),
        Vertex("crossing", (w2, s2, e2, n2)),
    )
    loops = _without_loops(ch, mv.i, mv.j)
    return _rewrite(s, (), new, loops=loops), CIR2Straighten(w1, w2)


def _cancelling_crossings(ch: Chart, a, b):
    """The crossings at the darts a and b, where CIR2Straighten applies:
    two distinct crossings of one type and opposite signs that share a
    bigon face.  SiteMismatch otherwise."""
    va, vb = _vertex_at(ch, a, "crossing"), _vertex_at(ch, b, "crossing")
    if va is vb:
        raise SiteMismatch("need two distinct crossings")
    ta, sa = crossing_type(ch, va)
    tb, sb = crossing_type(ch, vb)
    if ta != tb or sa != -sb:
        raise SiteMismatch("the two crossings do not cancel")
    face_at = _map_of(ch).face_at
    db = set(vb.cycle)
    if not any(len(face_at[d]) == 2 and not db.isdisjoint(face_at[d]) for d in va.cycle):
        raise SiteMismatch("the crossings are not adjacent along both strands")
    return va, vb


@_applies(CIR2Straighten)
def _do_cir2straighten(s, mv):
    va, vb = _cancelling_crossings(s.chart, mv.a, mv.b)
    return _collapse(s, (va, vb), {**_across(va), **_across(vb)}, signed=True)


@_applies(CIISweep)
def _do_ciisweep(s, mv):
    ch = s.chart
    _vertex_at(ch, mv.black, "black")
    e0 = _edge_at(ch, mv.black)
    et = _edge_at(ch, mv.target)
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
    new = (
        Edge((mv.black, xB), i, mv.black if fwd0 else xB),
        Edge((xw, w), i, xw if fwd0 else w),
        Edge((t, xT), j, xT if fwdt else t),
        Edge((xU, u), j, u if fwdt else xU),
        Vertex("crossing", (xB, xT, xw, xU)),
    )
    return _rewrite(s, (e0, et), new), CIIRetract(xB)


@_applies(CIIRetract)
def _do_ciiretract(s, mv):
    xv = _vertex_at(s.chart, mv.dart, "crossing")
    m = _map_of(s.chart)
    if not _lone_black(m, _other(m.edge_at[mv.dart], mv.dart)):
        raise SiteMismatch("no lone black end across the crossing")
    return _collapse(s, (xv,), _across(xv))


@_applies(CIIIEliminate)
def _do_ciii(s, mv):
    ch = s.chart
    wv = _vertex_at(ch, mv.dart, "white")
    m = _map_of(ch)
    e1 = m.edge_at[mv.dart]
    if not _lone_black(m, _other(e1, mv.dart)):
        raise SiteMismatch("the branch must end at a lone black vertex")
    cyc = wv.cycle
    p = cyc.index(mv.dart)
    if p in middle_positions(ch, wv):
        raise SiteMismatch("middle ends cannot absorb the branch")
    ports = {}
    for a, b in ((0, 3), (1, 5), (2, 4)):
        ports[cyc[(p + a) % 6]] = cyc[(p + b) % 6]
        ports[cyc[(p + b) % 6]] = cyc[(p + a) % 6]
    return _collapse(s, (wv,), ports, mute=(e1,))


def _ciii_sites(ch: Chart, whites):
    """The darts where CIIIEliminate applies at the white vertices whites,
    in their order and cycle order: the non-middle ends whose edges end at
    lone black vertices."""
    m = _map_of(ch)
    for v in whites:
        mids = middle_positions(ch, v)
        for p, d in enumerate(v.cycle):
            if p not in mids and _lone_black(m, _other(m.edge_at[d], d)):
                yield d


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
    base = [((mv.x, mv.y)[i], sign) for i, sign in _WHITE_BASE]
    pattern = tuple(lab for lab, _ in base[1:])
    for r, lab in zip(recs, pattern):
        if r.label != lab:
            raise LabelConstraintViolated(
                f"record labels must read {pattern}, got {tuple(x.label for x in recs)}"
            )
        if r.sign != 1 or r.pinned:
            raise SiteMismatch("records must be plain positive loops")
    m = _fresh(ch, 12)
    a, b = m[:6], m[6:]
    new = [Edge((a[0], b[0]), mv.x, b[0])]
    for k in range(1, 6):
        lab, sign = base[k]
        far = b[(6 - k) % 6]
        new.append(Edge((a[k], far), lab, far if sign > 0 else a[k]))
    new += (Vertex("white", a), Vertex("white", b))
    loops = _without_loops(ch, *idxs)
    return _rewrite(s, (), new, loops=loops), CIM3Cancel(a[0])


def _mirror_pair(ch: Chart, dart):
    """Check the direct mirror wiring through dart's edge; return its data."""
    m = _map_of(ch)
    emap, vmap = m.edge_at, m.vertex_at
    e0 = _edge_at(ch, dart)
    d1, d2 = dart, _other(e0, dart)
    v1, v2 = vmap[d1], vmap[d2]
    if v1.kind != "white" or v2.kind != "white":
        raise SiteMismatch("the edge does not join two white vertices")
    if v1 is v2:
        raise SiteMismatch("the edge is a white self-loop")
    c1, c2 = v1.cycle, v2.cycle
    p1, p2 = c1.index(d1), c2.index(d2)
    arcs = []
    for k in range(1, 6):
        da = c1[(p1 + k) % 6]
        ea = emap[da]
        fa = _other(ea, da)
        vv = vmap[fa]
        if vv is not v2:
            if vv.kind == "black":
                raise BlackVertexInCIRegion(
                    "a black vertex interrupts the white pair"
                )
            raise SiteMismatch("the two white vertices are not mirror wired")
        if c2.index(fa) != (p2 - k) % 6:
            raise SiteMismatch("the two white vertices are not mirror wired")
        arcs.append(ea)
    return v1, v2, e0, arcs


def _white_edges(ch: Chart, whites):
    """The least dart of each edge that joins one of the white vertices
    whites to a white vertex, in least-dart order."""
    m = _map_of(ch)
    alpha, vmap = m.alpha, m.vertex_at
    return sorted(
        d
        for v in whites
        for d in v.cycle
        if d < alpha[d] and vmap[alpha[d]].kind == "white"
    )


def _mirror_pairs(ch: Chart, whites):
    """(least site, its two whites) of each mirror-wired pair among the
    white vertices whites, the least site last.  A pair is tried once: the
    mirror check reads the same six arcs from any of its edges."""
    m = _map_of(ch)
    out, tried = [], set()
    for d in _white_edges(ch, whites):
        pair = frozenset((id(m.vertex_at[d]), id(m.vertex_at[m.alpha[d]])))
        if pair in tried:
            continue
        tried.add(pair)
        try:
            v1, v2, _, _ = _mirror_pair(ch, d)
        except ValueError:
            continue
        out.append((d, v1, v2))
    return out[::-1]


@_applies(CIM3Cancel)
def _do_cim3cancel(s, mv):
    v1, v2, e0, arcs = _mirror_pair(s.chart, mv.dart)
    recs = tuple(FloatingLoop(e.label, 1) for e in arcs)
    return _undoable(s, (v1, v2, e0, *arcs), recs, loops=s.chart.loops + recs)


@_applies(AttachTrivialHandle)
def _do_attach(s, mv):
    ch = s.chart
    n = ch.degree
    cl = mv.coreloop if mv.coreloop is not None else BraidWord(n)
    if cl.degree != n:
        raise SiteMismatch(f"coreloop degree {cl.degree} vs chart degree {n}")
    idx = _index(s)
    hid = idx.top + 1
    if mv.cocore_label is None:
        if mv.cocore_sign != 1:
            raise SiteMismatch("a footless attachment takes no cocore sign")
        if cl.letters:
            raise NonTrivialHandle("a footless attachment must carry no loop word")
        h = AttachedHandle(hid, cl, None, None)
        new = ()
    else:
        if len(cl.letters) > 1:
            raise NonTrivialHandle("a standard handle carries at most one loop letter")
        if cl.letters and abs(abs(cl.letters[0]) - mv.cocore_label) < 2:
            raise NonCommutingDecoration(
                f"loop letter {abs(cl.letters[0])} is too close to {mv.cocore_label}"
            )
        f1, f2 = _fresh(ch, 2)
        head = f2 if mv.cocore_sign > 0 else f1
        new = (
            Vertex("free_end", (f1,)),
            Vertex("free_end", (f2,)),
            Edge((f1, f2), mv.cocore_label, head),
        )
        h = AttachedHandle(hid, cl, (f1, f2), None)
    out = _rewrite(s, (), new, idx.add(h), genus=ch.genus + 1)
    return out, DetachTrivialHandle(hid)


@_applies(DetachTrivialHandle)
def _do_detach(s, mv):
    ch = s.chart
    h = _uncoiled(s, mv.handle, "detach")
    handles2 = _index(s).drop(h.id)
    if h.feet is None:
        if h.coreloop.letters:
            raise NonTrivialHandle("the handle still carries loop letters")
        return _rewrite(s, (), (), handles2, genus=ch.genus - 1), AttachTrivialHandle()
    e, a = _clean_span(s, h)
    if len(h.coreloop.letters) > 1:
        raise NonTrivialHandle("the handle still carries loop letters")
    if h.coreloop.letters and abs(abs(h.coreloop.letters[0]) - e.label) < 2:
        raise NonCommutingDecoration("loop letter too close to the span label")
    out = _rewrite(s, (e, *_foot_vertices(s, h)), (), handles2, genus=ch.genus - 1)
    back = AttachTrivialHandle(
        e.label, 1 if a > 0 else -1, h.coreloop if h.coreloop.letters else None
    )
    return out, back


# the fields each form of MoveHandleAcrossEdge does not read; they must keep
# their defaults, so that each script line names one step
_ACROSS_UNREAD = {
    "dart": ("emit_sign", "side", "index"),
    "end": ("emit_sign", "index"),
    "loop": ("sign", "emit_sign", "index"),
    "emit": ("sign",),
}
_ACROSS_DEFAULT = MoveHandleAcrossEdge(0)


@_applies(MoveHandleAcrossEdge)
def _do_across(s, mv):
    ch = s.chart
    n = ch.degree
    h = _uncoiled(s, mv.handle, "move across edges")
    sites = {"dart": mv.dart, "end": mv.end, "loop": mv.loop, "emit": mv.emit_label}
    forms = [k for k, v in sites.items() if v is not None]
    if len(forms) != 1:
        raise SiteMismatch("exactly one of dart/end/loop/emit_label is required")
    form = forms[0]
    for name in _ACROSS_UNREAD[form]:
        if getattr(mv, name) != getattr(_ACROSS_DEFAULT, name):
            raise SiteMismatch(f"the {form} form takes no {name}")
    loops, made = ch.loops, ()
    if form == "dart":
        if h.feet is not None:
            raise SiteMismatch("a spanned handle cannot slide around a strand")
        letter = _edge_at(ch, mv.dart).label * mv.sign
        inv = MoveHandleAcrossEdge(mv.handle, dart=mv.dart, sign=-mv.sign)
    elif form == "end":
        if not _lone_black(_map_of(ch), mv.end):
            raise SiteMismatch("the push site must be a lone black end")
        letter = _edge_at(ch, mv.end).label * mv.sign
        inv = MoveHandleAcrossEdge(mv.handle, end=mv.end, sign=-mv.sign, side=mv.side)
    elif form == "loop":
        rec = _loop_at(ch, mv.loop)
        if rec.pinned:
            raise SiteMismatch("pinned records cannot be captured")
        letter = rec.label * rec.sign
        loops = _without_loops(ch, mv.loop)
        inv = MoveHandleAcrossEdge(
            mv.handle,
            emit_label=rec.label,
            emit_sign=rec.sign,
            side=mv.side,
            index=mv.loop,
        )
    else:
        rec = FloatingLoop(mv.emit_label, mv.emit_sign)
        loops, idx = _with_loop(ch, mv.index, rec)
        made = (rec,)
        letter = -mv.emit_label * mv.emit_sign
        inv = MoveHandleAcrossEdge(mv.handle, loop=idx, side=mv.side)
    g, b = BraidWord.from_signed(n, (letter,)), h.coreloop
    if form == "dart":
        cl = conjugate(b, g)
    else:
        cl = free_reduce(g * b) if mv.side == "left" else free_reduce(b * g)
    handles = _index(s).put(AttachedHandle(h.id, cl, h.feet, h.mn))
    return _rewrite(s, new=made, handles=handles, loops=loops), inv


@_applies(Bridge)
def _do_bridge(s, mv):
    h = _handle(s, mv.handle)
    if h.feet is None:
        raise NonTrivialHandle("only a spanned handle can bridge")
    span = _span(s, h)
    if span is None:
        raise NonTrivialHandle("the handle is already threaded")
    e = span[0]
    et = _edge_at(s.chart, mv.dart)
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
    v = _vertex_at(ch, mv.dart, "crossing")
    emap = _map_of(ch).edge_at
    feet = set(h.feet)
    cands = [d for d in v.cycle if _other(emap[d], d) in feet]
    if not cands:
        raise SiteMismatch("the handle is not bridged at this crossing")
    cF = cands[0]
    p = v.cycle.index(cF)
    ej = emap[v.cycle[(p + 1) % 4]]
    eps = 1 if ej.head != v.cycle[(p + 1) % 4] else -1
    g = BraidWord.from_signed(ch.degree, (ej.label * eps,))
    cl = (
        free_reduce(h.coreloop * g)
        if mv.side == "right"
        else free_reduce(g * h.coreloop)
    )
    handles = _index(s).put(AttachedHandle(h.id, cl, h.feet, h.mn))
    return _collapse(s, (v,), _across(v), handles=handles)


@_applies(RotateTrivialHandleDecoration)
def _do_rotate(s, mv):
    h = _uncoiled(s, mv.handle, "rotate")
    n = s.chart.degree
    if len(h.coreloop.letters) > 1:
        raise NonTrivialHandle("the loop word must be at most one letter to rotate")
    if h.feet is None:
        a = BraidWord(n)
        gone = ()
    else:
        e, letter = _clean_span(s, h)
        a = BraidWord.from_signed(n, (letter,))
        gone = (e, *_foot_vertices(s, h))
    if mv.direction == "cw":
        new_a, new_b = h.coreloop.inverse(), a
    else:
        new_a, new_b = h.coreloop, a.inverse()
    if new_a.letters:
        v = new_a.letters[0]
        # numbered as if the old span were gone already
        f1, f2 = _fresh(s.chart, 2, drop=h.feet or ())
        new = (
            Vertex("free_end", (f1,)),
            Vertex("free_end", (f2,)),
            Edge((f1, f2), abs(v), f2 if v > 0 else f1),
        )
        feet2 = (f1, f2)
    else:
        new, feet2 = (), None
    handles = _index(s).put(AttachedHandle(h.id, new_b, feet2, None))
    other = "ccw" if mv.direction == "cw" else "cw"
    return (
        _rewrite(s, gone, new, handles),
        RotateTrivialHandleDecoration(mv.handle, other),
    )


def _carriers(s: DecoratedSurface):
    """(label, handle) for each uncoiled handle with an empty loop word
    spanned by a clean edge, in handle order."""
    for h in s.handles:
        if h.feet is not None and h.mn is None and h.coreloop.is_empty:  # footless: no span
            span = _span(s, h)
            if span is not None:
                yield span[0].label, h


def _carrier(s: DecoratedSurface, label):
    """The first of _carriers of this label, or None."""
    return next((h for lab, h in _carriers(s) if lab == label), None)


def _require_generators(s):
    carried = {lab for lab, _ in _carriers(s)}
    missing = [lab for lab in range(1, s.chart.degree) if lab not in carried]
    if missing:
        raise MissingGeneratorHandles(
            f"need clean undecorated handles for labels {missing}"
        )


@_applies(ConvertViaGeneratorSet)
def _do_convert(s, mv):
    h = _uncoiled(s, mv.handle, "convert")
    e, a = _clean_span(s, h)
    _require_generators(s)
    head = h.feet[1] if mv.sign > 0 else h.feet[0]
    out = _rewrite(s, (e,), (Edge(e.darts, mv.label, head),))
    return out, ConvertViaGeneratorSet(mv.handle, e.label, 1 if a > 0 else -1)


@_applies(FreeEdgeRelabel)
def _do_relabel(s, mv):
    ch = s.chart
    e = _edge_at(ch, mv.dart)
    if not all(_lone_black(_map_of(ch), d) for d in e.darts):
        raise SiteMismatch("both ends must be lone black vertices")
    _require_generators(s)
    out = _rewrite(s, (e,), (Edge(e.darts, mv.label, e.head),))
    return out, FreeEdgeRelabel(mv.dart, e.label)


@_applies(HandleSlideDecorated)
def _do_slide(s, mv):
    hk, hl = _handle(s, mv.handle), _handle(s, mv.over)
    if hk.id == hl.id:
        raise SiteMismatch("a handle cannot slide across itself")
    if hk.mn is not None or hl.mn is not None:
        raise NonTrivialHandle("coiled handles cannot slide")
    sk, sl = _span(s, hk), _span(s, hl)
    if sk is None or sl is None:
        raise NonTrivialHandle("both handles must carry clean spans")
    (ek, ak), (el, al) = sk, sl
    if ek.label != el.label:
        raise LabelConstraintViolated(
            f"span labels {ek.label} and {el.label} differ"
        )
    if mv.variant == "A":
        if ak != al:
            raise SiteMismatch("the spans must run the same way")
        bk = free_reduce(hk.coreloop * hl.coreloop)
    else:
        if ak != -al:
            raise SiteMismatch("the spans must run opposite ways")
        bk = free_reduce(hl.coreloop.inverse() * hk.coreloop)
    gone = (el, *_foot_vertices(s, hl))
    handles = _index(s).put(replace(hk, coreloop=bk), replace(hl, feet=None))
    return _undoable(s, gone, (), handles)


@_applies(OrientationReversalAid)
def _do_aid(s, mv):
    ch = s.chart
    wv = _vertex_at(ch, mv.dart, "white")
    m = _map_of(ch)
    flip = {}
    for d in wv.cycle:
        e = m.edge_at[d]
        flip[id(e)] = e
        fv = m.vertex_at[_other(e, d)]
        if fv is not wv and len(fv.cycle) != 1:
            raise SiteMismatch("every strand must end freely to reverse")
    idx = _index(s)
    aid = AttachedHandle(idx.top + 1, BraidWord(ch.degree), None, None)
    gone = tuple(flip.values())
    new = tuple(Edge(e.darts, e.label, _other(e, e.head)) for e in gone)
    return _undoable(s, gone, new, idx.add(aid), genus=ch.genus + 1)


@_applies(SlideEndAlongEdge)
def _do_slideend(s, mv):
    v = _map_of(s.chart).vertex_at.get(mv.dart)
    if v is None:
        raise SiteMismatch(f"no dart {mv.dart}")
    if len(v.cycle) != 1:
        raise SiteMismatch("only a lone end can slide")
    _edge_at(s.chart, mv.along)
    # isotopy of the end along the strand: nothing combinatorial changes
    return s, SlideEndAlongEdge(mv.dart, mv.along)


@_applies(AbsorbLoopIntoFreeEdge)
def _do_absorbhandle(s, mv):
    h = _uncoiled(s, mv.handle, "absorb")
    e, _ = _clean_span(s, h)
    if h.coreloop.letters:
        raise NonTrivialHandle("the loop word must be empty to absorb the span")
    et = _edge_at(s.chart, mv.dart)
    if et is e:
        raise SiteMismatch("cannot absorb the span into itself")
    if et.label != e.label:
        raise LabelConstraintViolated(
            f"span label {e.label} vs target label {et.label}"
        )
    if not any(_lone_black(_map_of(s.chart), d) for d in et.darts):
        raise SiteMismatch("the target strand has no free end to slide over")
    gone = (e, *_foot_vertices(s, h))
    handles = _index(s).put(replace(h, feet=None))
    return _undoable(s, gone, (), handles)


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
    return _undoable(s, pattern_loops=pats2)


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
    handles = _index(s).put(replace(coil, mn=(m, n + rec.sense)))
    pats2 = tuple(p for k, p in enumerate(pats) if k != mv.index)
    return _undoable(s, handles=handles, pattern_loops=pats2)


@_applies(PatternTwist)
def _do_patterntwist(s, mv):
    """Twist the coil once: its n moves as handles.twisted says, by 2m."""
    coil = _the_coil(s)
    m, n = coil.mn
    handles = _index(s).put(replace(coil, mn=(m, twisted(m, n, mv.sign))))
    return _surface(s.chart, handles), PatternTwist(-mv.sign)


# ---------------------------------------------------------------------------
# apply entry points


def _check_surface(s: DecoratedSurface, touched=None, held=None):
    """Raise SiteMismatch unless the surface is valid; see validate_chart.

    Given the move's patch (see take_patch), and held, the handle index of
    the valid input the move rewrote, the chart is checked on its patch,
    and of the handles only those the move put, and only at the darts
    where it changed a foot or a free end.  A free end changes only with
    its Vertex, so those darts are the free ends among the vertices the
    patch removes or makes.  Otherwise every handle is checked, at every
    foot and free end.
    """
    problems = validate_chart(s.chart, touched)
    if problems:
        raise SiteMismatch("; ".join(problems))
    idx = _index(s)
    if touched is None or (idx is not held and idx.parent is not held):
        ends = [v.cycle[0] for v in s.chart.vertices if v.kind == "free_end"]
        _check_handles(s, idx, range(len(s.handles)), idx.foot.keys() | ends)
    else:
        ends = [v.cycle[0] for v in (*touched.old_v, *touched.new_v) if v.kind == "free_end"]
        if idx is not held:
            _check_handles(s, idx, idx.changed, {*idx.stirred, *ends})
        elif ends:
            _check_handles(s, idx, (), ends)
    object.__setattr__(s, "_checked", True)


def _check_handles(s, idx, spots, darts):
    """Refuse the handles at the positions spots, in order, and the darts
    where a foot and a free end disagree."""
    idx.parent = None
    pos, foot, degree = idx.pos, idx.foot, s.chart.degree
    for k in spots:
        h = s.handles[k]
        if pos[h.id] != k:
            raise SiteMismatch(f"duplicate handle id {h.id}")
        if h.coreloop.degree != degree:
            raise SiteMismatch(f"handle {h.id}: loop word degree mismatch")
    at = _map_of(s.chart).vertex_at
    if len(foot) != idx.nfeet or any(
        (d in foot) != (d in at and at[d].kind == "free_end") for d in darts
    ):
        raise SiteMismatch("free ends and handle feet out of step")


def apply_move(s: DecoratedSurface, mv):
    """Apply one move; returns (new surface, exact inverse move).

    A surface that no checked move produced is checked in full first, and
    the move's sign, label and choice fields are checked by name (see
    _field_rules) before its applier runs.  The applier hands over its
    patch with the output chart (see _rewrite): the output's map is the
    input's map plus the patch, and the output is checked on the darts of
    the edges and vertices the move created and on the records it names,
    plus the map-level counts the map keeps, and its handles only if they
    changed or the patch removes or makes a free end; over a valid input
    that decides validity (see validate_chart and _check_surface).  An
    output chart that carries no patch from the input is derived and
    checked in full.  An output that already passed this check is not
    checked again: a restore, the inverse of a compound surgery, gives
    back the surface its move started from.
    """
    fn = _APPLY.get(type(mv))
    if fn is None:
        raise TypeError(f"not a move: {mv!r}")
    if not getattr(s, "_checked", False):
        _check_surface(s)
    _check_fields(mv, s.chart.degree)
    held = s.__dict__["_index"]
    out, inv = fn(s, mv)
    if not getattr(out, "_checked", False):
        _check_surface(out, take_patch(s.chart, out.chart), held)
    return out, inv


# ---------------------------------------------------------------------------
# legal-site enumeration


def enumerate_chart_moves(s: DecoratedSurface):
    """The chart moves legal in this state that keep the chart's map
    planar, in a deterministic order.

    Every kind is listed by the site rule its applier checks, and no move
    is tried.  On a genus-0 surface every reconnect, insert and sweep that
    apply_move accepts is listed (a reconnect under one of its two dart
    orders), and each cancelling crossing pair once.  Where the surface has
    genus (a chart of genus >= 1, or attached handles), apply_move also
    accepts reconnects, inserts and sweeps that raise the map's genus;
    they are not listed.
    """
    ch = s.chart
    n = ch.degree
    out = []
    m = _map_of(ch)
    emap, vmap = m.edge_at, m.vertex_at

    for lab in range(1, n):
        for sign in (1, -1):
            out.append(CIM1Add(lab, sign))
    for k, r in enumerate(ch.loops):
        if not r.pinned:
            out.append(CIM1Erase(k))

    for e in sorted(ch.edges, key=lambda e: min(e.darts)):
        d = min(e.darts)
        for sign in (1, -1):
            out.append(CIM2Split(d, sign))
        for k, r in enumerate(ch.loops):
            if r.label == e.label:
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
            if abs(ea.label - eb.label) >= 2:
                if _planar_insert(m, a, pa, b):
                    out.append(CIR2Insert(a, b))
                if _planar_insert(m, b, pb, a):
                    out.append(CIR2Insert(b, a))

    for i in range(len(ch.loops)):
        for j in range(i + 1, len(ch.loops)):
            ri, rj = ch.loops[i], ch.loops[j]
            if abs(ri.label - rj.label) >= 2 and not (ri.pinned or rj.pinned):
                out.append(CIR2Bootstrap(i, j))

    # each cancelling crossing pair once, under its first bigon face
    seen_pairs = set()
    for f in m.faces:
        if len(f) != 2:
            continue
        key = frozenset((id(vmap[f[0]]), id(vmap[f[1]])))
        if key in seen_pairs:
            continue
        try:
            _cancelling_crossings(ch, f[0], f[1])
        except ValueError:
            continue
        seen_pairs.add(key)
        out.append(CIR2Straighten(f[0], f[1]))

    # a sweep pushes the end's edge across t like CIR2Insert's finger, so
    # the insert's planarity rule lists it
    for d in _black_ends(ch):
        e = emap[d]
        w = _other(e, d)
        for t in darts:
            et = emap[t]
            if et is not e and abs(et.label - e.label) >= 2 and _planar_insert(m, d, w, t):
                out.append(CIISweep(d, t))
    for d in darts:
        if vmap[d].kind == "crossing" and _lone_black(m, _other(emap[d], d)):
            out.append(CIIRetract(d))
    whites = [v for v in ch.vertices if v.kind == "white"]
    out += map(CIIIEliminate, _ciii_sites(ch, whites))

    free = {}
    for k, r in enumerate(ch.loops):
        if r.sign == 1 and not r.pinned:
            free.setdefault(r.label, []).append(k)
    for x in range(1, n):
        xs = free.get(x, ())
        for y in (x - 1, x + 1):
            ys = free.get(y, ())
            if len(xs) >= 2 and len(ys) >= 3:
                out.append(CIM3Bootstrap(x, y, (ys[0], xs[0], ys[1], xs[1], ys[2])))

    # every edge of a mirror pair joins its two whites
    alpha = m.alpha
    out += map(CIM3Cancel, sorted(
        min(d, alpha[d]) for _, v1, _ in _mirror_pairs(ch, whites) for d in v1.cycle
    ))
    return out


# ---------------------------------------------------------------------------
# random blackless charts


class _InsertSites:
    """The CIR2Insert sites (a, b) with a < b of a chart's map m, in dart
    pair order, as a sequence: its length and its k-th site are counted,
    not listed.

    A site pairs darts of far labels (which lie on two edges) that lie in
    two components, or where b lies on the face of a's partner.  So the
    sites at a are the darts above a of each far label, less those in a's
    component, plus those on that face, each read off a count per label,
    per component and label, and per face and label, kept while the darts
    are taken from the top down.
    """

    def __init__(self, m, degree):
        self.m = m
        self.darts = darts = m.darts
        emap, comp, face_at, alpha = m.edge_at, m.comp, m.face_at, m.alpha
        labels = range(1, degree)
        far = {x: [y for y in labels if abs(x - y) >= 2] for x in labels}
        above = {}
        get = above.get
        counts = []
        for a in reversed(darts):
            lab, k = emap[a].label, comp[a]
            f = id(face_at[alpha[a]])
            n = 0
            for x in far[lab]:
                n += get(x, 0) - get((k, x), 0) + get((f, x), 0)
            counts.append(n)
            for key in (lab, (k, lab), (id(face_at[a]), lab)):
                above[key] = get(key, 0) + 1
        counts.reverse()
        self.ends = list(accumulate(counts))

    def __len__(self):
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, k):
        if not 0 <= k < len(self):
            raise IndexError(k)
        m, darts = self.m, self.darts
        i = bisect_right(self.ends, k)
        a, j = darts[i], k - (self.ends[i - 1] if i else 0)
        la, pa = m.edge_at[a].label, m.alpha[a]
        for b in darts[i + 1 :]:
            if abs(m.edge_at[b].label - la) >= 2 and _planar_insert(m, a, pa, b):
                if not j:
                    return a, b
                j -= 1
        raise AssertionError("the site counts disagree with the map")


def generate_blackless_chart(degree: int, steps: int, rng) -> Chart:
    """Grow a valid blackless genus-0 chart by random inverse-direction
    moves.  Each move drawn is legal by construction, so a refusal raises."""
    s = empty_surface(degree)
    for _ in range(steps):
        ch = s.chart
        m = _map_of(ch)
        emap, darts = m.edge_at, m.darts
        # whether an insert site exists: none without two labels two apart,
        # else the first in pair order is sought; the sites are counted
        # only when an insert is drawn
        labels = {e.label for e in ch.edges}
        inserts = (
            (a, b)
            for ai, a in enumerate(darts)
            for b in darts[ai + 1 :]
            if abs(emap[a].label - emap[b].label) >= 2
            and _planar_insert(m, a, _other(emap[a], a), b)
        )
        opts = ["addloop", "addloop"]
        if ch.edges:
            opts.append("split")
            if max(labels) - min(labels) >= 2 and next(inserts, None):
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
        if kind == "addloop":
            lab = rng.randrange(1, degree)
            sign = 1 if rng.random() < 0.7 else -1
            s, _ = apply_move(s, CIM1Add(lab, sign))
        elif kind == "split":
            e = rng.choice(sorted(ch.edges, key=lambda e: min(e.darts)))
            s, _ = apply_move(s, CIM2Split(min(e.darts), rng.choice((1, -1))))
        elif kind == "insert":
            a, b = rng.choice(_InsertSites(m, degree))
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
    """A run of moves from start.  A trial is a child _Runner(run.state)
    that the run adopts once all its moves apply."""

    def __init__(self, start):
        self.start = self.state = start
        self.steps = []

    def do(self, mv):
        nxt, _ = apply_move(self.state, mv)
        self.state = nxt
        self.steps.append(mv)
        return nxt

    def adopt(self, child):
        """Take over the state and the moves of a child run from this state."""
        self.state = child.state
        self.steps += child.steps

    def result(self):
        return _handed_back(self.start, self.state)


def _handed_back(start: DecoratedSurface, state: DecoratedSurface):
    """state, for a run that began at start to return.

    A state that moves produced comes back without its chart's map: the map
    is a cache for the moves, and a caller that keeps many results should
    keep their values only.  A later use derives the map again, in full.
    """
    if state.chart is not start.chart:
        drop_map(state.chart)
    return state


def _collect_crossing(run: _Runner, cyc) -> int:
    """Resolve the crossing with the darts cyc onto a fresh handle; returns
    handles spent."""
    emap = _map_of(run.state.chart).edge_at
    i = min(emap[d].label for d in cyc)
    d_i = min(d for d in cyc if emap[d].label == i)
    run.do(AttachTrivialHandle(cocore_label=i))
    hid = run.state.handles[-1].id
    run.do(Bridge(hid, d_i))
    run.do(CrossingTransfer(d_i, hid))
    # the attach appended the handle, and neither move reorders handles
    h = run.state.handles[-1]
    if _span(run.state, h) is None:
        run.do(CIM2Reconnect(h.feet[0], h.feet[1]))
    return 1


def _cancel_whites(run: _Runner) -> None:
    """Remove every white vertex; StuckWhiteVertex names the least one that
    no CIII site, mirror pair or swapped pair removes.

    The whites are listed once, since no move here makes one, and each
    move drops the whites it removes.  The mirror pairs are listed once
    and taken least site first.  A pair's six edges join its two whites,
    so cancelling it changes no other vertex: the pairs are listed again,
    and the whites scanned for a CIII site, only after a CIII elimination
    or a rewiring.
    """
    ch = run.state.chart
    # no move here makes a black vertex, and without one there is no CIII
    # site: a blackless chart skips the scan
    blacks = any(v.kind == "black" for v in ch.vertices)
    whites = {id(v): v for v in ch.vertices if v.kind == "white"}
    sites, scan = None, blacks
    while whites:
        ch = run.state.chart
        fired = next(_ciii_sites(ch, whites.values()), None) if scan else None
        if fired is not None:
            del whites[id(_map_of(ch).vertex_at[fired])]
            run.do(CIIIEliminate(fired))
            sites = None
            continue
        scan = False
        if sites is None:
            sites = _mirror_pairs(ch, whites.values())
        if sites:
            d, v1, v2 = sites.pop()
            del whites[id(v1)], whites[id(v2)]
            run.do(CIM3Cancel(d))
            continue
        pair = _pair_whites(run, whites.values())
        if pair is None:
            stuck = min(v.cycle for v in whites.values())
            raise StuckWhiteVertex(f"no move removes the white vertex at darts {stuck}")
        for v in pair:
            del whites[id(v)]
        sites, scan = None, blacks


def _pair_whites(run: _Runner, whites):
    """Rewire a swapped-type pair of the white vertices whites into mirror
    position and cancel it; returns the pair, or None when no pair can be."""
    ch = run.state.chart
    types = {}
    for v in whites:
        pair, rot = white_type(ch, v)
        types.setdefault(pair, []).append((v, rot))
    for (a_lab, b_lab), lst in sorted(types.items()):
        partner = types.get((b_lab, a_lab))
        if not partner or (a_lab, b_lab) > (b_lab, a_lab):
            continue
        for v1, r1 in lst:
            for v2, r2 in partner:
                q = (-r1 - r2 - 1) % 6
                trial = _Runner(run.state)
                try:
                    for k in range(6):
                        a, target = v1.cycle[k], v2.cycle[(q - k) % 6]
                        if _other(_edge_at(trial.state.chart, a), a) != target:
                            trial.do(CIM2Reconnect(a, target))
                    trial.do(CIM3Cancel(v1.cycle[0]))
                except ValueError:
                    continue
                run.adopt(trial)
                return v1, v2
    return None


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
        carrier = _carrier(run.state, rec.label)
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
            if h.mn is None and len(h.coreloop.letters) == 1:
                span = _span(s, h)
                if span is not None:
                    loaded.append((h, span[1]))
        if not loaded:
            return count
        pair = next(
            (
                (hk, hl)
                for hk, ak in loaded
                for hl, al in loaded
                if hk is not hl and ak == al and hk.coreloop == hl.coreloop.inverse()
            ),
            None,
        )
        if pair is not None:
            run.do(HandleSlideDecorated(pair[0].id, pair[1].id, "A"))
            run.do(RotateTrivialHandleDecoration(pair[1].id, "cw"))
            continue
        # no cancelling partner: attach one carrying the inverse letter
        hk, ak = loaded[0]
        helper = BraidWord(s.chart.degree, (-hk.coreloop.letters[0],))
        run.do(
            AttachTrivialHandle(
                cocore_label=abs(ak), cocore_sign=1 if ak > 0 else -1, coreloop=helper
            )
        )
        count += 1


def _unbraid(s: DecoratedSurface, mode: str):
    """Unbraid s in mode weak, strong or branch: eliminate CIII sites (only
    on a chart with black vertices) and collect crossings onto handles,
    then cancel white vertices and clear records; strong mode cancels the
    loop decorations, branch mode drains the handles over free ends.  No
    move here undoes a pattern copy, so a chart with one is refused."""
    st = chart_stats(s.chart)
    if s.chart.pattern_loops:
        raise HasPatternLoops("pattern copies present: they need unbraid_repeated_pattern")
    if st.b == 0 and mode == "branch":
        mode = "weak"
    elif st.b and mode != "branch":
        raise HasBlackVertices(f"{st.b} black vertices present")
    bound = bounds_of(st, s.chart.degree).u_w_upper
    run = _Runner(s)
    count = 0
    # the crossings, least dart last: collecting one removes it and no
    # other, and no move of the run makes one
    crossings = sorted(
        (v.cycle for v in s.chart.vertices if v.kind == "crossing"),
        key=min,
        reverse=True,
    )
    # the whites, for the CIII scan: only a CIIIEliminate removes one
    whites = {id(v): v for v in s.chart.vertices if v.kind == "white"}
    while True:
        # a blackless chart has no CIII site: skip the scan
        ch = run.state.chart
        site = min(_ciii_sites(ch, whites.values()), default=None) if st.b else None
        if site is not None:
            del whites[id(_map_of(ch).vertex_at[site])]
            run.do(CIIIEliminate(site))
        elif crossings:
            count += _collect_crossing(run, crossings.pop())
        else:
            break
    _cancel_whites(run)
    count += _clear_records(run)
    if mode == "strong":
        count += _strengthen(run)
    if mode == "branch":
        if st.b >= 2 * (s.chart.degree - 1):
            _drain_handles(run)
        claims = ("unknotted", f"handle-count<={bound}")
    else:
        claims = ("empty", f"{mode}-forms", f"handle-count<={bound}")
    return run.result(), count, EngineTrace(s, tuple(run.steps), claims)


def unbraid_without_branch(s: DecoratedSurface, mode: str = "weak"):
    """Undo a blackless chart with one handle per crossing.

    Returns (final surface, handles attached, trace).  In strong mode the
    leftover loop decorations are cancelled pairwise as well.
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown mode {mode!r}")
    return _unbraid(s, mode)


def unbraid_with_branch(s: DecoratedSurface):
    """Unknot a chart with black vertices, eliminating branches greedily;
    a blackless chart is unbraided in weak mode."""
    return _unbraid(s, "branch")


def _black_end(ch: Chart, label, skip=None):
    """The least lone black end on an edge of this label other than skip."""
    emap = _map_of(ch).edge_at
    ends = _black_ends(ch)
    hits = (d for d in ends if emap[d].label == label and emap[d] is not skip)
    return next(hits, None)


def _drain_handles(run: _Runner):
    """Pop loop letters over matching free ends, then retire empty spans."""
    for hid in [h.id for h in run.state.handles]:
        while True:
            h = _handle(run.state, hid)
            if h.mn is not None or not h.coreloop.letters:
                break
            v = h.coreloop.letters[-1]
            d = _black_end(run.state.chart, abs(v))
            if d is None:
                break
            run.do(
                MoveHandleAcrossEdge(hid, end=d, sign=-1 if v > 0 else 1, side="right")
            )
        h = _handle(run.state, hid)
        span = None if h.coreloop.letters else _span(run.state, h)
        if span is not None:
            target = _black_end(run.state.chart, span[0].label, span[0])
            if target is not None:
                run.do(AbsorbLoopIntoFreeEdge(hid, target))


def unbraid_repeated_pattern(s: DecoratedSurface):
    """Normalize a coiled handle carrying parallel pattern copies: cancel
    and capture the copies, then twist the coil's (m, n) to n mod 2|m| in
    [0, 2|m|), or leave n as it is when m = 0.  The twist count is
    handles.twists_into's, and handles.repeat emits the PatternTwist run."""
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
    m, n = _the_coil(run.state).mn
    repeat(run, PatternTwist, twists_into(m, n, 0))
    m, n = _the_coil(run.state).mn
    claims = ("empty", f"handle-mn={m},{n}")
    return run.result(), EngineTrace(s, tuple(run.steps), claims)


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
    comp = _map_of(s.chart).comp
    roots = {comp[d] for d in feet}
    return [v for v in s.chart.vertices if comp[v.cycle[0]] not in roots]


def _deco_form_ok(s, h, strong):
    if h.mn is not None:
        return False
    span = None if h.feet is None else _span(s, h)
    if h.feet is not None and span is None:
        return False
    b = h.coreloop.letters
    if not b:
        return True
    return (
        not strong
        and span is not None
        and len(b) == 1
        and abs(abs(span[1]) - abs(b[0])) >= 2
    )


# the claims that state no value, and the prefix of each claim that does,
# with the form of its value
_PLAIN_CLAIMS = ("empty", "unknotted", "weak-forms", "strong-forms")
_VALUED_CLAIMS = {"handle-count<=": "<integer>", "added-handles=": "<integer>",
                  "handle-deco=": "<word>,<word>", "handle-mn=": "<m>,<n>"}
# the claims that count the trace's attaching steps
_COUNTED = ("handle-count<=", "added-handles=")


@lru_cache(maxsize=1024)
def _read_claim(claim, degree):
    """(kind, value) of a claim's text, its kind one of _PLAIN_CLAIMS or a
    prefix in _VALUED_CLAIMS; a claim that cannot be read raises the
    TokenError of its token in a `claim` line, without repeating it."""
    if claim in _PLAIN_CLAIMS:
        return claim, None
    kind = next((k for k in _VALUED_CLAIMS if claim.startswith(k)), None)
    if kind is None:
        raise TokenError(1, "unknown claim kind")
    spec = claim[len(kind):]
    try:
        if kind == "handle-deco=":
            a, b = (parse_word(w.replace(".", " "), degree) for w in spec.split(","))
        elif kind == "handle-mn=":
            a, b = (read_int(x, signed=True) for x in spec.split(","))
        else:
            return kind, read_int(spec)
        return kind, (a, b)
    except IntegerTooLong as exc:
        raise TokenError(1, str(exc)) from None
    except ValueError:
        raise TokenError(1, f"expected {kind}{_VALUED_CLAIMS[kind]}") from None


def _check_claim(state, claim, attached):
    """(holds, reason) for one claim on the final state; attached is the
    number of attaching steps, counted when a claim of _COUNTED is made."""
    try:
        kind, value = _read_claim(claim, state.chart.degree)
    except ValueError as exc:
        return False, f"claim {claim}: {exc}"
    if kind == "empty":
        if _non_handle_vertices(state):
            return False, "claim empty: the chart still has components"
        if state.chart.loops or state.chart.pattern_loops:
            return False, "claim empty: records remain"
        return True, None
    if kind == "unknotted":
        bad = [v for v in _non_handle_vertices(state) if v.kind != "black"]
        if bad:
            return False, "claim unknotted: non-black structure remains"
        if state.chart.loops or state.chart.pattern_loops:
            return False, "claim unknotted: records remain"
        return True, None
    if kind in ("weak-forms", "strong-forms"):
        strong = kind == "strong-forms"
        for h in state.handles:
            if not _deco_form_ok(state, h, strong):
                return False, f"claim {claim}: handle {h.id} is not in form"
        return True, None
    if kind in _COUNTED:
        if (attached > value) if kind == "handle-count<=" else (attached != value):
            return False, f"claim {claim}: {attached} handles were attached"
        return True, None
    if kind == "handle-deco=":
        for h in state.handles:
            a = derived_cocore(state, h.id)
            if a is not None and (a, h.coreloop) == value:
                return True, None
        return False, f"claim {claim}: no handle carries that decoration"
    if any(h.mn == value for h in state.handles):
        return True, None
    return False, f"claim {claim}: no coiled handle matches"


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
    attached = None
    if any(claim.startswith(_COUNTED) for claim in trace.claims):
        attached = sum(isinstance(mv, _ATTACHING) for mv in trace.steps)
    for claim in trace.claims:
        ok, why = _check_claim(state, claim, attached)
        if not ok:
            return CertifyResult(False, None, why, _handed_back(trace.initial, state))
    return CertifyResult(True, None, None, _handed_back(trace.initial, state))


# ---------------------------------------------------------------------------
# script format

# how a field value of each kind is read from and written to its token
_DEC = {"sign": read_sign, "int": read_int, "str": str, "ints": read_ints}
_ENC = {"sign": sign_text, "int": str, "str": str, "ints": lambda v: ",".join(map(str, v))}


# The text form of a move is its name and key=value tokens, one per field
# that is set away from its default; a field with no default is required.
# Move names that are not the class name in lower case:
_NAMES = {
    CIR2Bootstrap: "cir2loops",
    CIISweep: "cii",
    CIIIEliminate: "ciii",
    CIM3Bootstrap: "cim3loops",
    DetachTrivialHandle: "detach",
    MoveHandleAcrossEdge: "across",
    CrossingTransfer: "transfer",
    RotateTrivialHandleDecoration: "rotate",
    ConvertViaGeneratorSet: "convert",
    FreeEdgeRelabel: "relabel",
    HandleSlideDecorated: "slide",
    OrientationReversalAid: "reverseaid",
    SlideEndAlongEdge: "slideend",
    AbsorbLoopIntoFreeEdge: "absorbhandle",
}
# keys that are not the field name
_KEYS = {"emit_label": "emit", "emit_sign": "emitsign", "direction": "dir"}


def _kind(name):
    """The value kind of a move field, by its name."""
    if name.endswith("sign"):
        return "sign"
    if name in _CHOICES:
        return "str"
    return "ints" if name == "loops" else "int"


# class -> (name, ((key, field, kind, default), ...)); attach has its own form
_SPECS = {
    cls: (
        _NAMES.get(cls, cls.__name__.lower()),
        tuple((_KEYS.get(f.name, f.name), f.name, _kind(f.name), f.default)
              for f in fields(cls)),
    )
    for cls in CHART_MOVES + SURFACE_MOVES
    if cls is not AttachTrivialHandle
}

_BY_NAME = {name: (cls, rows) for cls, (name, rows) in _SPECS.items()}
_BY_NAME["attach"] = (AttachTrivialHandle, None)


def _encode_move(mv):
    if isinstance(mv, AttachTrivialHandle):
        toks = ["attach"]
        if mv.cocore_label is not None:
            letter = ("s" if mv.cocore_sign > 0 else "S") + str(mv.cocore_label)
            toks.append(f"cocore={letter}")
        if mv.coreloop is not None and mv.coreloop.letters:
            toks.append("coreloop=" + format_word(mv.coreloop).replace(" ", "."))
        return toks
    spec = _SPECS.get(type(mv))
    if spec is None:
        raise ValueError(f"{type(mv).__name__} has no text form")
    name, rows = spec
    toks = [name]
    for key, field_name, kind, default in rows:
        value = getattr(mv, field_name)
        if value is None or value == default:
            continue
        toks.append(f"{key}={_ENC[kind](value)}")
    return toks


def format_script(trace: EngineTrace) -> str:
    """Serialize a trace's moves and claims, one per line."""
    lines = []
    for mv in trace.steps:
        lines.append("move " + " ".join(_encode_move(mv)))
    for claim in trace.claims:
        lines.append(f"claim {claim}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_script(text: str, initial: DecoratedSurface) -> EngineTrace:
    """Parse the move/claim line format, claims read too, into a trace over `initial`."""
    degree = initial.chart.degree
    steps, claims = [], []
    for lineno, raw, toks in read_lines(text):
        verb = toks[0]
        try:
            if verb == "move" and not claims:
                steps.append(_move_line(raw, degree))
            elif verb == "claim":
                if len(toks) == 1:
                    raise TokenError(0, "empty claim")
                claim = raw.split(None, 1)[1].strip()
                _read_claim(claim, degree)
                claims.append(claim)
            elif verb == "move":
                raise TokenError(0, "move after a claim: claims follow the moves")
            elif not verb.startswith("#"):
                raise TokenError(0, f"expected move or claim, got {verb!r}")
        except TokenError as exc:
            raise exc.at(lineno, raw) from None
    return EngineTrace(initial, tuple(steps), tuple(claims))


@lru_cache(maxsize=4096)
def _move_line(line, degree):
    """The move a `move ...` line names.

    Moves are immutable values, so a line is decoded once: a script parsed
    again gives the same move objects, and traces kept side by side share
    them.
    """
    toks = line.split()
    if len(toks) < 2:
        raise TokenError(0, "missing move name")
    cls, rows = _BY_NAME.get(toks[1], (None, None))
    if cls is None:
        raise TokenError(1, f"unknown move {toks[1]!r}")
    keys = ("cocore", "coreloop") if rows is None else [row[0] for row in rows]
    kv = {}  # key -> (the index of its token, its value)
    for i in range(2, len(toks)):
        k, eq, v = toks[i].partition("=")
        if not eq:
            raise TokenError(i, f"expected key=value, got {toks[i]!r}")
        if k in kv:
            raise TokenError(i, f"duplicate key {k!r}")
        if k not in keys:
            raise TokenError(i, f"unknown key {k!r}")
        kv[k] = i, v
    if rows is None:
        label, sign, coreloop = None, 1, None
        if "cocore" in kv:
            letters = read_token(lambda text: parse_word(text, degree), *kv["cocore"]).letters
            if len(letters) != 1:
                raise TokenError(kv["cocore"][0], "cocore must be a single letter")
            label, sign = abs(letters[0]), 1 if letters[0] > 0 else -1
        if "coreloop" in kv:
            coreloop = read_token(
                lambda text: parse_word(text.replace(".", " "), degree), *kv["coreloop"])
        return AttachTrivialHandle(label, sign, coreloop)
    values = {}
    for key, field_name, kind, default in rows:
        if key in kv:
            i, v = kv[key]
            try:
                values[field_name] = _DEC[kind](v)
            except ValueError as exc:
                raise TokenError(i, str(exc)) from None
        elif default is MISSING:
            raise TokenError(1, f"missing key {key}")
    return cls(**values)
