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
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    IntegerTooLong, ParseError, TokenError, read_header_ints, read_int, read_ints, read_lines,
    read_sign, sign_text,
)

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


@dataclass(frozen=True, slots=True)
class Vertex:
    kind: str
    cycle: tuple[int, ...]  # darts, counterclockwise


@dataclass(frozen=True, slots=True)
class Edge:
    darts: tuple[int, int]
    label: int
    head: int  # which of the two darts sits at the head end


@dataclass(frozen=True, slots=True)
class FloatingLoop:
    """Closed vertex-free loop record; crosses nothing."""

    label: int
    sign: int
    # pinned loops may be essential on a positive-genus surface and cannot
    # be erased in place, only absorbed
    pinned: bool = False


@dataclass(frozen=True, slots=True)
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


@dataclass(eq=False, slots=True)
class SurfaceMap:
    """A chart's rotation system with its faces, face count and components.

    Every table is keyed by dart, by component key or by the identity of an
    Edge or Vertex, never by a position in the chart's tuples, so a move's
    output carries its input's map through the move's patch (see rewrite).
    Maps are shared between charts and must not be modified.
    """

    alpha: dict  # dart -> the other dart of its edge
    sigma: dict  # dart -> the next dart counterclockwise at its vertex
    edge_at: dict  # dart -> its Edge
    vertex_at: dict  # dart -> its Vertex
    face_at: dict  # dart -> the walk of its face, from the face's least dart
    comp: dict  # dart -> key of its connected component
    size: dict  # component key -> number of darts
    nfaces: int  # the number of faces
    ends: frozenset  # the darts of the free_end vertices
    # id of each Edge and Vertex -> its rank, increasing along the chart's
    # edge and vertex tuples; the ranks in the order of those tuples; and
    # the least rank above every rank in use
    rank: dict
    vranks: tuple
    eranks: tuple
    top: int
    key: int  # the least component key above every key in use
    last: int  # the largest dart, 0 when there is none

    @property
    def darts(self):
        return tuple(sorted(self.alpha))

    @property
    def faces(self):
        """The face walks, in least-dart order."""
        return tuple(sorted({id(w): w for w in self.face_at.values()}.values()))

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
    """The chart's map-level violations and its SurfaceMap, a pair.

    Derived on first use and kept on the frozen value, the map also on its
    own (see surface_map); the map is None while the dart structure is
    broken.  A chart made by rewrite carries the map of the chart it was
    made from through the patch.  Every other chart (parsed, built by hand,
    or made by dataclasses.replace) derives its map in full, once.
    """
    got = chart.__dict__.get("_derived")
    if got is None:
        step = chart.__dict__.get("_step")
        got = _carry(chart, step) if step else _derive(chart)
        object.__setattr__(chart, "_derived", got)
        if got[1] is not None:
            chart.__dict__["_map"] = got[1]
    return got


class Patch:
    """The patch of one rewrite, split by kind once.

    parent is the chart rewritten.  old_v and old_e hold the Vertex and
    Edge objects the rewrite removes, new_v and new_e those it makes,
    records the loop and pattern-loop records the caller names, made the
    darts of new_e and then of new_v, and cut those of old_e and then of
    old_v.  ranks holds the rank tuples of the output's vertices and edges
    (see SurfaceMap), or is None when the rewrite removes and makes no
    Edge or Vertex.
    """

    __slots__ = ("parent", "old_v", "old_e", "new_v", "new_e", "records", "made", "cut", "ranks")

    def __init__(self, parent, gone, new):
        self.parent, self.ranks = parent, None
        if not (gone or any(type(x) is Edge or type(x) is Vertex for x in new)):
            self.old_v = self.old_e = self.new_v = self.new_e = self.made = self.cut = ()
            self.records = new
            return
        old_v, old_e, new_v, new_e, records, made, cut = [], [], [], [], [], [], []
        for x in gone:
            if type(x) is Edge:
                old_e.append(x)
                cut += x.darts
            elif type(x) is Vertex:
                old_v.append(x)
        for v in old_v:
            cut += v.cycle
        for x in new:
            if type(x) is Edge:
                new_e.append(x)
                made += x.darts
            elif type(x) is Vertex:
                new_v.append(x)
            else:
                records.append(x)
        for v in new_v:
            made += v.cycle
        self.old_v, self.old_e, self.new_v, self.new_e = old_v, old_e, new_v, new_e
        self.records, self.made, self.cut = records, made, cut


def rewrite(chart, gone=(), new=(), genus=None, loops=None, pattern_loops=None):
    """chart with its genus, loops and pattern loops replaced where given,
    made by removing the Edge and Vertex objects in gone and adding the
    Edge and Vertex objects in new.

    The vertex and edge tuples keep the order of what they keep, with
    added objects at the end, so an edge or vertex rewritten on the same
    darts moves to the end; each removed object is found by its rank in
    chart's map.  new may also name the loop and pattern-loop records the
    caller puts into loops and pattern_loops, which the patch check then
    checks.  The new chart keeps the patch, split once as a Patch, and its
    map is chart's map plus this patch: only the faces and components the
    patch reaches are walked again, and a patch that removes and makes no
    Edge or Vertex hands over chart's map itself.
    """
    p = Patch(chart, gone, new)
    vertices, edges = chart.vertices, chart.edges
    if p.old_v or p.old_e or p.new_v or p.new_e:
        m = surface_map(chart)
        top = m.top + len(p.new_v)
        vertices, vranks = _cut(vertices, m.vranks, p.old_v, m.rank, p.new_v, m.top)
        edges, eranks = _cut(edges, m.eranks, p.old_e, m.rank, p.new_e, top)
        p.ranks = (vranks, eranks)
    # made in one step past the frozen dataclass __init__: the same value,
    # which still refuses assignment
    out = object.__new__(Chart)
    object.__setattr__(out, "__dict__", {
        "degree": chart.degree,
        "genus": chart.genus if genus is None else genus,
        "vertices": vertices,
        "edges": edges,
        "loops": chart.loops if loops is None else loops,
        "pattern_loops": chart.pattern_loops if pattern_loops is None else pattern_loops,
        "_step": p,
    })
    return out


def _cut(items, ranks, gone, rank, new, top):
    """items without the objects in gone and with those in new appended,
    and their ranks, the new ones numbered from top.  Objects are found by
    bisecting on their ranks, and those items does not hold are passed
    over."""
    if not gone:
        if not new:
            return items, ranks
        return items + (*new,), ranks + (*range(top, top + len(new)),)
    at = {bisect_left(ranks, r) for r in map(rank.get, map(id, gone)) if r is not None}
    out, kept = list(items), list(ranks)
    for k in sorted(at, reverse=True):
        del out[k], kept[k]
    out += new
    kept += range(top, top + len(new))
    return tuple(out), tuple(kept)


def take_patch(before, after):
    """The Patch that made after from before: the patch check reads the
    darts it makes and the records it names.

    () when after is before, None when after is no rewrite of before.  It
    derives after's map, then drops after's link to before, so that a run
    of moves does not keep every earlier chart alive.
    """
    if after is before:
        return ()
    _derived(after)
    p = after.__dict__.pop("_step", None)
    return p if p is not None and p.parent is before else None


def drop_map(chart):
    """Forget the chart's map, a cache; the next use derives it in full.
    The chart's validity verdict stays."""
    chart.__dict__.pop("_derived", None)
    chart.__dict__.pop("_map", None)


def _header(chart):
    out = []
    if chart.degree < 2:
        out.append(f"degree {chart.degree} must be at least 2")
    if chart.genus < 0:
        out.append(f"genus {chart.genus} must be nonnegative")
    return out


def _face(d, alpha, sigma):
    """The walk of the face through d, from its least dart."""
    walk, cur = [d], d
    while (cur := sigma[alpha[cur]]) != d:
        walk.append(cur)
    k = walk.index(min(walk))
    return tuple(walk[k:] + walk[:k]) if k else tuple(walk)


def _ends(vertices):
    return {v.cycle[0] for v in vertices if v.kind == "free_end"}


def _derive(chart):
    """The chart's map-level violations and its SurfaceMap, derived in full;
    a vertex without darts breaks the dart structure."""
    vertices, edges = chart.vertices, chart.edges
    out = _header(chart)
    edge_at, alpha = {}, {}
    for idx, e in enumerate(edges):
        d1, d2 = e.darts
        if d1 == d2:
            out.append(f"edge {idx}: its two darts must differ")
        if d1 in edge_at:
            out.append(f"dart {d1} appears in more than one edge")
        edge_at[d1] = e
        if d2 in edge_at:
            out.append(f"dart {d2} appears in more than one edge")
        edge_at[d2] = e
        alpha[d1] = d2
        alpha[d2] = d1
        if e.head != d1 and e.head != d2:
            out.append(f"edge {idx}: head {e.head} is not one of its darts")
    vertex_at, sigma = {}, {}
    for vi, v in enumerate(vertices):
        cycle = v.cycle
        if not cycle:
            out.append(f"vertex {vi} has no darts")
            continue
        prev = cycle[-1]
        for d in cycle:
            if d in vertex_at:
                out.append(f"dart {d} appears in more than one vertex cycle")
            vertex_at[d] = v
            sigma[prev] = d
            prev = d
    if edge_at.keys() != vertex_at.keys():
        for d in sorted(edge_at.keys() ^ vertex_at.keys()):
            side = "edge" if d in edge_at else "vertex"
            out.append(f"dart {d} appears only on the {side} side")
    if out:
        return out, None

    # faces, each walked from its least dart
    face_at, nfaces = {}, 0
    for d in sorted(alpha):
        if d not in face_at:
            walk, cur = [d], sigma[alpha[d]]
            while cur != d:
                walk.append(cur)
                cur = sigma[alpha[cur]]
            walk = tuple(walk)
            for x in walk:
                face_at[x] = walk
            nfaces += 1
    comp, size = {}, {}
    for d in alpha:
        if d in comp:
            continue
        key = len(size)
        comp[d] = key
        group = [d]
        for x in group:
            y = alpha[x]
            if y not in comp:
                comp[y] = key
                group.append(y)
            y = sigma[x]
            if y not in comp:
                comp[y] = key
                group.append(y)
        size[key] = len(group)
    nv, ne = len(vertices), len(edges)
    rank = {id(v): k for k, v in enumerate(vertices)}
    rank.update({id(e): k for k, e in enumerate(edges)})
    sm = SurfaceMap(
        alpha, sigma, edge_at, vertex_at, face_at, comp, size, nfaces,
        frozenset(_ends(vertices)), rank, tuple(range(nv)), tuple(range(ne)),
        max(nv, ne), len(size), max(alpha, default=0),
    )
    return [], sm


def _searches(faces, alpha, face_at):
    """Group the given faces by connected component; faces is a list of
    distinct face walks, and face_at gives the walk of each dart.

    A face's neighbours are the faces across its edges, so the faces of a
    component are those one search over neighbours finds.  One
    breadth-first search starts at each face; the searches expand a face
    each in turn, and one that meets another takes it in.  They stop once
    at most one is still running (Even and Shiloach), so the work is
    bounded by the smaller sides.  Each search keeps its faces in the
    order found, the expanded ones first.  Returns the faces of each
    finished search, and the running search as (faces, the number of them
    expanded) or None.
    """
    # a face is known by its first dart, the least
    owner, seen = {}, []
    for g, f in enumerate(faces):
        owner[f[0]] = g
        seen.append([f])
    at = [0] * len(faces)
    running, done = range(len(faces)), []
    while len(running) > 1:
        for g in running:
            found = seen[g]
            if found is None:
                continue
            for d in found[at[g]]:
                f = face_at[alpha[d]]
                h = owner.get(f[0])
                if h is None:
                    owner[f[0]] = g
                    found.append(f)
                elif h != g:
                    other, a, b = seen[h], at[g], at[h]
                    for x in other:
                        owner[x[0]] = g
                    found[a:a] = other[:b]
                    found += other[b:]
                    at[g] += b
                    seen[h] = None
            at[g] += 1
            if at[g] == len(found):
                done.append(found)
        running = [g for g in running if seen[g] is not None and at[g] < len(seen[g])]
    return done, (seen[running[0]], at[running[0]]) if running else None


def _carry(chart, p):
    """(violations, map) of chart, made by rewrite with the Patch p.

    A patch that removes and makes no Edge or Vertex keeps the parent's
    map.  Otherwise the tables the patch changes are copied, which runs in
    C, and the rest is the patch's work: its darts are written and
    removed, the faces through a made dart are walked again, and the
    components are settled from those faces.  One face reaches one
    component, which needs no search; more are searched, and the size of
    the one left unexplored follows by difference.  A patch that does not
    fit its parent, or an output with a broken dart structure, is derived
    in full instead, which names the violations.
    """
    got = p.parent.__dict__.get("_derived") or _derived(p.parent)
    pout, pm = got
    # rewrite keeps the degree, so of the header only the genus can break
    if pout or chart.genus < 0:
        return _derive(chart)
    if p.ranks is None:
        return got
    ge, gv, ne, nv, made, cut = p.old_e, p.old_v, p.new_e, p.new_v, p.made, p.cut

    # a removed object is the parent's own when the parent's ranks hold
    # its identity, and then its darts are in the parent's tables; one
    # named twice is not found the second time.  Added objects follow top
    # in the order rewrite appends them.
    rank, top = pm.rank.copy(), pm.top
    for x in ge:
        if rank.pop(id(x), None) is None:
            return _derive(chart)
    for x in gv:
        if rank.pop(id(x), None) is None:
            return _derive(chart)
    for x in nv:
        rank[id(x)] = top
        top += 1
    for x in ne:
        rank[id(x)] = top
        top += 1

    # the dart tables, each copied only when the patch changes it: the
    # made darts are written over the parent's, then the removed darts not
    # made again are deleted.  A made dart in use elsewhere, or made twice,
    # shows as a table shorter than its count.
    n, m = 2 * len(ne), 2 * len(ge)
    alpha, edge_at, sigma, vertex_at = pm.alpha, pm.edge_at, pm.sigma, pm.vertex_at
    if n or m:
        alpha, edge_at, again = alpha.copy(), edge_at.copy(), made[:n]
        for e in ne:
            d1, d2 = e.darts
            if e.head != d1 and e.head != d2:
                return _derive(chart)
            alpha[d1], alpha[d2] = d2, d1
            edge_at[d1] = edge_at[d2] = e
        for d in set(cut[:m]).difference(again) if again else cut[:m]:
            del alpha[d], edge_at[d]
    if nv or gv:
        sigma, vertex_at, again = sigma.copy(), vertex_at.copy(), made[n:]
        for v in nv:
            cycle = v.cycle
            if not cycle:
                return _derive(chart)
            prev = cycle[-1]
            for d in cycle:
                vertex_at[d] = v
                sigma[prev] = d
                prev = d
        for d in set(cut[m:]).difference(again) if again else cut[m:]:
            del sigma[d], vertex_at[d]
    # the patch's darts left in one table must be those left in the other;
    # then they are the made darts, and the others are in neither
    if (
        len(alpha) != len(pm.alpha) + n - m
        or len(vertex_at) != len(pm.alpha) + len(made) - n - len(cut) + m
    ):
        return _derive(chart)
    # faces: a face walk changes only where it runs through a patch dart
    # (a changed edge, or a changed vertex entered from its partner).  So
    # the parent's faces through removed darts are stale, and every dart of
    # theirs that is left lies on a face through a made dart: walking
    # those faces replaces every stale entry but the removed darts'.  One
    # pass over the patch's darts finds the stale faces and the components
    # holding them, and the darts removed (in neither table now); a dart
    # in one table only breaks the dart structure.
    pface, pcomp = pm.face_at, pm.comp
    stale, keys, dead = set(), set(), []
    for d in {*made, *cut}:
        if (d in alpha) != (d in vertex_at):
            return _derive(chart)
        if d not in alpha:
            dead.append(d)
        f = pface.get(d)
        if f is not None:
            stale.add(id(f))
            keys.add(pcomp[d])
    last = max((pm.last, *made))
    if last not in alpha:
        # the largest dart was removed: the next one in use lies among as
        # many darts below it as were removed, unless numbers were skipped
        last = next(filter(alpha.__contains__, range(last - 1, last - 1 - len(dead), -1)), None)
        if last is None:
            last = max(alpha, default=0)
    face_at, comp = pface.copy(), pcomp
    if dead:
        comp = pcomp.copy()
        for d in dead:
            del face_at[d], comp[d]
    walks = []
    for d in made:
        # a made dart is new or removed and made again, so its face is
        # stale until walked here
        if face_at.get(d) not in walks:
            walk = _face(d, alpha, sigma)
            for x in walk:
                face_at[x] = walk
            walks.append(walk)

    # components: those holding a removed dart are replaced by those of the
    # walked faces.  Every piece left of a replaced component holds a made
    # dart, so one face means one component and no search.  The component
    # table is kept when the darts are the parent's and at most one
    # component is reached, which keeps its key.
    size = pm.size.copy()
    region = len(alpha) - len(pm.alpha)
    for k in keys:
        region += size.pop(k)
    if len(walks) > 1:
        done, running = _searches(walks, alpha, face_at)
    else:
        done, running = [], (walks, 0) if walks else None
    if running is not None and not keys:
        done.append(running[0])
        running = None
    if comp is pcomp and (done or len(keys) > 1 or len(alpha) > len(pm.alpha)):
        comp = pcomp.copy()
    if running is not None:
        # the running search's component: the largest parent component it
        # may hold keeps its key, and the made darts take it (those of the
        # finished searches are labelled below).  With more than one, the
        # others' darts take it too: those of its faces, and those of the
        # faces reached from its unexpanded ones.
        found, at = running
        keep = max(keys, key=pm.size.__getitem__) if len(keys) > 1 else next(iter(keys))
        if comp is not pcomp:
            for d in made:
                comp[d] = keep
        if len(keys) > 1:
            for f in found:
                for x in f:
                    comp[x] = keep
            stack = found[at:]
            while stack:
                for d in stack.pop():
                    f = face_at[alpha[d]]
                    if comp[f[0]] != keep:
                        for x in f:
                            comp[x] = keep
                        stack.append(f)
    fresh = pm.key
    for found in done:
        count = 0
        for f in found:
            for x in f:
                comp[x] = fresh
            count += len(f)
        size[fresh] = count
        region -= count
        fresh += 1
    if running is not None:
        size[keep] = region

    ends = pm.ends
    for v in gv:
        if v.kind == "free_end":
            ends = ends.difference(_ends(gv))
            break
    for v in nv:
        if v.kind == "free_end":
            ends = ends.union(_ends(nv))
            break
    sm = SurfaceMap(
        alpha, sigma, edge_at, vertex_at, face_at, comp, size,
        pm.nfaces + len(walks) - len(stale), ends, rank, *p.ranks, top, fresh, last,
    )
    return [], sm


def _word(edge_at, v):
    """Counterclockwise (label, out_sign) word around one vertex, a tuple."""
    seq = []
    for d in v.cycle:
        e = edge_at[d]
        seq.append((e.label, 1 if e.head != d else -1))
    return tuple(seq)


# the boundary words of a chart's vertices come from a small set, so each
# is matched once
@lru_cache(maxsize=4096)
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


@lru_cache(maxsize=4096)
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

    The map-level axioms (degree, genus, dart structure) are read off the
    chart's map, which a move's output carries through its patch (see
    rewrite), and the genus bound off Euler's formula (see
    _count_violations).  The full check runs the per-vertex and per-edge
    axioms everywhere and checks every loop and pattern-loop record; its
    verdict is kept on the frozen chart.  Given touched, a move's Patch
    (which names the darts of the objects it makes, and its records), it
    runs them only at the vertices holding one of those darts and at the
    edges the patch makes, and checks only those records; the () that
    take_patch gives for an unchanged chart leaves the map-level counts.
    The patch check suffices after a move over a valid chart: a vertex
    whose Vertex and Edge objects the move kept has the same word as
    before, a kept edge its label, and a kept record is unchanged.
    """
    if touched is None:
        got = chart.__dict__.get("_verdict")
        if got is None:
            got = tuple(_violations(chart, None))
            object.__setattr__(chart, "_verdict", got)
        return list(got)
    return _violations(chart, touched)


def _violations(chart, touched):
    out, sm = _derived(chart)
    if out:
        return list(out)
    if touched is None:
        verts = list(enumerate(chart.vertices))
        edges = enumerate(chart.edges)
        loops = enumerate(chart.loops)
        pats = enumerate(chart.pattern_loops)
    elif not touched:  # take_patch's () for an unchanged chart
        return _count_violations(chart, sm)
    else:
        # indices are looked up only for an item that fails; of the edges
        # at a patch's darts only those it makes can have a new label
        edges = [(None, e) for e in touched.new_e]
        verts = loops = pats = ()
        if touched.made:
            verts = {id(v): (None, v) for v in map(sm.vertex_at.get, touched.made) if v}.values()
        if touched.records:
            loops = [(None, x) for x in touched.records if type(x) is FloatingLoop]
            pats = [(None, x) for x in touched.records if type(x) is PatternLoop]
        if not (verts or edges or loops or pats):
            return _count_violations(chart, sm)
    return (
        _item_violations(chart, verts, edges, loops, pats)
        or _word_violations(chart, sm, verts)
        or _count_violations(chart, sm)
    )


def _item_violations(chart, verts, edges, loops, pats):
    """Kinds, degrees, labels, signs and curve indices of the given
    (index or None, item) pairs."""
    hi = chart.degree - 1
    bad_v, bad_e, bad_l, bad_p = [], [], [], []
    for vi, v in verts:
        want = VERTEX_DEGREE.get(v.kind)
        if want is None:
            bad_v.append((vi, v, f": unknown kind {v.kind!r}"))
        elif len(v.cycle) != want:
            bad_v.append((vi, v, f" ({v.kind}): degree {len(v.cycle)} != {want}"))
    for idx, e in edges:
        if not 1 <= e.label <= hi:
            bad_e.append((idx, e, f": label {e.label} out of range 1..{hi}"))
    for li, loop in loops:
        if not 1 <= loop.label <= hi:
            bad_l.append((li, loop, f": label {loop.label} out of range 1..{hi}"))
        if loop.sign not in (1, -1):
            bad_l.append((li, loop, ": sign must be +1 or -1"))
    for pi, pl in pats:
        if pl.sense not in (1, -1):
            bad_p.append((pi, pl, ": sense must be +1 or -1"))
        if pl.curve < 1:
            bad_p.append((pi, pl, ": curve index must be positive"))
    if bad_v or bad_e or bad_l or bad_p:
        return (
            _named(chart.vertices, "vertex", bad_v)
            + _named(chart.edges, "edge", bad_e)
            + _named(chart.loops, "loop", bad_l)
            + _named(chart.pattern_loops, "pattern loop", bad_p)
        )
    return []


def _word_violations(chart, sm, verts):
    """The boundary words of the given white and crossing vertices."""
    bad = []
    for vi, v in verts:
        if v.kind == "white" and _match_white(_word(sm.edge_at, v)) is None:
            text = ": white boundary word is not an adjacent-pair relator"
            bad.append((vi, v, text))
        elif v.kind == "crossing" and _match_crossing(_word(sm.edge_at, v)) is None:
            text = (
                ": invalid crossing word, need far labels in"
                " opposite-sign diagonal pairs"
            )
            bad.append((vi, v, text))
    return _named(chart.vertices, "vertex", bad) if bad else []


def _count_violations(chart, sm):
    """The summed genus of the map's components must fit the carrier: each
    is a closed oriented surface with V - E + F = 2 - 2g, so the sum is the
    number of components less half of the chart's V - E + F."""
    genus = len(sm.size) - (len(chart.vertices) - len(chart.edges) + sm.nfaces) // 2
    if genus > chart.genus:
        return [f"total component genus {genus} exceeds declared genus {chart.genus}"]
    return []


def _named(items, what, bad):
    """Messages for (index or None, item, text) triples, in index order and,
    for one index, in the order given; a missing index is the item's
    position in items, found by identity."""
    named = []
    for i, x, text in bad:
        if i is None:
            i = next(k for k, y in enumerate(items) if y is x)
        named.append((i, f"{what} {i}{text}"))
    named.sort(key=lambda m: m[0])
    return [m for _, m in named]


def _require_valid(chart):
    violations = validate_chart(chart)
    if violations:
        raise InvalidChart(violations)


def surface_map(chart):
    """The chart's SurfaceMap (alpha, sigma, face walks, components)."""
    return chart.__dict__.get("_map") or _valid_map(chart)


def _valid_map(chart):
    out, sm = _derived(chart)
    if out:
        raise InvalidChart(out)
    return sm


def _vertex(chart, v, kind):
    """The word of the Vertex v; ValueError unless it has the given kind."""
    if v.kind != kind:
        raise ValueError(f"vertex {v.cycle} is {v.kind}, not {kind}")
    return _word(surface_map(chart).edge_at, v)


def white_type(chart, v):
    """Ordered label pair and rotation offset of the white Vertex v's word."""
    got = _match_white(_vertex(chart, v, "white"))
    if got is None:
        raise ValueError(f"vertex {v.cycle} has no valid white word")
    return got


def middle_positions(chart, v):
    """Cycle positions of the two middle ends at the white Vertex v."""
    _, rot = white_type(chart, v)
    return {(1 - rot) % 6, (4 - rot) % 6}


def crossing_type(chart, v):
    """Label pair (i, j) with i < j and intersection sign of the crossing
    Vertex v."""
    got = _match_crossing(_vertex(chart, v, "crossing"))
    if got is None:
        raise ValueError(f"vertex {v.cycle} has no valid crossing word")
    return got


def chart_stats(chart):
    """Vertex counts and the algebraic crossing matrix."""
    _require_valid(chart)
    w = b = c = 0
    matrix = {}
    for v in chart.vertices:
        if v.kind == "white":
            w += 1
        elif v.kind == "black":
            b += 1
        elif v.kind == "crossing":
            c += 1
            pair, sign = crossing_type(chart, v)
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
    return bounds_of(chart_stats(chart), chart.degree)


def bounds_of(s, n):
    """unbraiding_bounds of a chart of degree n whose chart_stats are s."""
    u_w = s.w + 2 * s.c + n - 1
    lower = max(0, s.c_alg_total) if s.b == 0 else None
    return BoundsReport(
        u_w_upper=u_w,
        u_lower_blackless=lower,
        u_upper=u_w + s.c_alg_total,
        u_gamma_upper=s.w + n - 1,
    )


def _rotated(cycle):
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def canonical_dart_map(chart):
    """Dart renaming used by canonical_chart: numbered by first appearance."""
    surface_map(chart)  # raises on a broken dart structure
    verts = sorted(
        (Vertex(v.kind, _rotated(v.cycle)) for v in chart.vertices),
        key=lambda v: (v.cycle[0], v.kind),
    )
    remap = {}
    for v in verts:
        for d in v.cycle:
            if d not in remap:
                remap[d] = len(remap) + 1
    return remap


def canonical_chart(chart, remap=None):
    """Stable renaming: darts numbered by first appearance, everything sorted.

    Idempotent, so the serialized form is byte stable.  remap, when given,
    is the chart's canonical_dart_map.
    """
    if remap is None:
        remap = canonical_dart_map(chart)
    verts = [Vertex(v.kind, _rotated(v.cycle)) for v in chart.vertices]
    new_verts = sorted(
        (Vertex(v.kind, _rotated(tuple(remap[d] for d in v.cycle))) for v in verts),
        key=lambda v: (v.cycle[0], v.kind),
    )
    new_edges = []
    for e in chart.edges:
        d1, d2 = sorted((remap[e.darts[0]], remap[e.darts[1]]))
        new_edges.append(Edge(darts=(d1, d2), label=e.label, head=remap[e.head]))
    new_edges.sort(key=lambda e: e.darts[0])
    loops = tuple(sorted(chart.loops, key=lambda l: (l.label, l.sign, l.pinned)))
    patterns = tuple(sorted(chart.pattern_loops, key=lambda p: (p.curve, p.sense)))
    return Chart(
        degree=chart.degree,
        genus=chart.genus,
        vertices=tuple(new_verts),
        edges=tuple(new_edges),
        loops=loops,
        pattern_loops=patterns,
    )


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
        lines.append(f"loop label={loop.label} sign={sign_text(loop.sign)}")
    for pl in c.pattern_loops:
        lines.append(f"patternloop curve={pl.curve} sense={sign_text(pl.sense)}")
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"chart degree=(\S*) genus=(\S*)")


def _value(toks, i, key="", read=read_int, what=None):
    """read() of the value of toks[i], a `key<value>` token or with no key a
    dart id; a value it refuses is a TokenError asking for `what`, or saying
    that an integer is too long."""
    tok = toks[i]
    if key:
        tok = tok[len(key):] if tok.startswith(key) else ""
    try:
        return read(tok)
    except IntegerTooLong as exc:
        raise TokenError(i, str(exc)) from None
    except ValueError:
        what = what or (f"{key}<integer>" if key else "an integer dart id")
        raise TokenError(i, f"expected {what}") from None


def parse_chart(text):
    """Parse the chart file format, its integer and sign tokens read by
    read_int and read_sign; raises ParseError with line positions."""
    degree = genus = None
    declared = set()
    in_edge = set()
    in_cycle = set()
    vertices = []
    edges = []
    loops = []
    patterns = []
    rows = read_lines(text)
    for lineno, raw, _ in rows:
        degree, genus = read_header_ints(
            _HEADER_RE.fullmatch(raw.strip()), lineno, raw, "expected 'chart degree=<N> genus=<g>'"
        )
        break
    else:
        raise ParseError(1, 1, "missing chart header")
    for lineno, raw, toks in rows:
        try:
            kind = toks[0]
            if kind == "dart":
                if len(toks) != 2:
                    raise TokenError(0, "expected 'dart <id>'")
                d = _value(toks, 1)
                if d < 1:
                    raise TokenError(1, "dart ids must be positive")
                if d in declared:
                    raise TokenError(1, f"dart {d} declared twice")
                declared.add(d)
            elif kind == "edge":
                if len(toks) != 5:
                    raise TokenError(0, "expected 'edge <d1> <d2> label=<i> head=<d>'")
                d1, d2 = _value(toks, 1), _value(toks, 2)
                if not (
                    d1 != d2 and d1 in declared and d2 in declared
                    and d1 not in in_edge and d2 not in in_edge
                ):
                    # a dart named twice in the line is one already used
                    for i, d in ((1, d1), (2, d2)):
                        if d not in declared:
                            raise TokenError(i, f"dart {d} was never declared")
                        if d in in_edge:
                            raise TokenError(i, f"dart {d} already used by an edge")
                        in_edge.add(d)
                label = _value(toks, 3, "label=")
                if label < 1:
                    raise TokenError(3, "labels start at 1")
                head = _value(toks, 4, "head=")
                if head != d1 and head != d2:
                    raise TokenError(4, f"head {head} is not one of the darts")
                in_edge.update((d1, d2))
                edges.append(Edge((d1, d2), label, head))
            elif kind == "vertex":
                if len(toks) != 3:
                    raise TokenError(0, "expected 'vertex <kind> cycle=<d,...>'")
                vkind = toks[1]
                if vkind not in VERTEX_DEGREE:
                    raise TokenError(1, f"unknown vertex kind {vkind!r}")
                cycle = _value(toks, 2, "cycle=", read_ints, "cycle=<d,...>")
                new = set(cycle)
                if not (len(new) == len(cycle) and declared >= new and in_cycle.isdisjoint(new)):
                    for d in cycle:
                        if d not in declared:
                            raise TokenError(2, f"dart {d} was never declared")
                        if d in in_cycle:
                            raise TokenError(2, f"dart {d} already used by a vertex")
                        in_cycle.add(d)
                in_cycle |= new
                vertices.append(Vertex(vkind, cycle))
            elif kind == "loop":
                if len(toks) != 3:
                    raise TokenError(0, "expected 'loop label=<i> sign=<+|->'")
                label = _value(toks, 1, "label=")
                if label < 1:
                    raise TokenError(1, "labels start at 1")
                loop_sign = _value(toks, 2, "sign=", read_sign, "sign=+ or sign=-")
                # on a positive-genus surface a bare loop may be essential, so
                # parsed records come back pinned there
                loops.append(FloatingLoop(label=label, sign=loop_sign, pinned=genus > 0))
            elif kind == "patternloop":
                if len(toks) != 3:
                    raise TokenError(0, "expected 'patternloop curve=<k> sense=<+|->'")
                curve = _value(toks, 1, "curve=")
                if curve < 1:
                    raise TokenError(1, "curve indices start at 1")
                sense = _value(toks, 2, "sense=", read_sign, "sense=+ or sense=-")
                patterns.append(PatternLoop(curve=curve, sense=sense))
            else:
                raise TokenError(0, f"unknown directive {kind!r}")
        except TokenError as exc:
            raise exc.at(lineno, raw) from None
    return Chart(
        degree=degree,
        genus=genus,
        vertices=tuple(vertices),
        edges=tuple(edges),
        loops=tuple(loops),
        pattern_loops=tuple(patterns),
    )
