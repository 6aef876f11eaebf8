"""Tests for the chart module: surface maps, validation, stats, bounds."""

from dataclasses import replace

import pytest

from handleforge import chart as chart_mod
from handleforge.chart import (
    BoundsReport,
    Chart,
    ChartStats,
    Edge,
    FloatingLoop,
    InvalidChart,
    PatternLoop,
    Vertex,
    canonical_chart,
    chart_stats,
    crossing_type,
    drop_map,
    format_chart,
    is_unknotted_chart,
    middle_positions,
    parse_chart,
    rewrite,
    surface_map,
    unbraiding_bounds,
    validate_chart,
    white_type,
)
from handleforge.errors import ParseError


def mk(degree, genus, vertices=(), edges=(), loops=(), pattern_loops=()):
    return Chart(
        degree=degree,
        genus=genus,
        vertices=tuple(Vertex(kind=k, cycle=tuple(c)) for k, c in vertices),
        edges=tuple(
            Edge(darts=(d1, d2), label=lab, head=h) for d1, d2, lab, h in edges
        ),
        loops=tuple(loops),
        pattern_loops=tuple(pattern_loops),
    )


def free_edge_chart(degree=2, label=1):
    # one edge, two black endpoints: the unknotted building block
    return mk(
        degree,
        0,
        vertices=[("black", (1,)), ("black", (2,))],
        edges=[(1, 2, label, 2)],
    )


WHITE_RELATOR = [(1, +1), (2, +1), (1, +1), (2, -1), (1, -1), (2, -1)]


def white_spider(rotation=0, pair=(1, 2), degree=3):
    """White vertex with all six ends capped by black vertices."""
    i, j = pair
    base = [(1, +1), (2, +1), (1, +1), (2, -1), (1, -1), (2, -1)]
    seq = []
    for p in range(6):
        lab, sign = base[(p + rotation) % 6]
        seq.append((i if lab == 1 else j, sign))
    vertices = [("white", (1, 2, 3, 4, 5, 6))]
    edges = []
    for p, (lab, sign) in enumerate(seq):
        near, far = p + 1, p + 7
        vertices.append(("black", (far,)))
        edges.append((near, far, lab, far if sign > 0 else near))
    return mk(degree, 0, vertices=vertices, edges=edges)


def crossing_spider(pair=(1, 3), eps=1, delta=1, degree=4, base_dart=0):
    """Crossing vertex with all four ends capped by black vertices."""
    i, j = pair
    seq = [(i, eps), (j, delta), (i, -eps), (j, -delta)]
    b = base_dart
    vertices = [("crossing", (b + 1, b + 2, b + 3, b + 4))]
    edges = []
    for p, (lab, sign) in enumerate(seq):
        near, far = b + p + 1, b + p + 5
        vertices.append(("black", (far,)))
        edges.append((near, far, lab, far if sign > 0 else near))
    return mk(degree, 0, vertices=vertices, edges=edges)


def torus_crossing_chart(genus=1):
    # two closed curves labelled 1 and 3 meeting in one crossing; needs a torus
    return mk(
        4,
        genus,
        vertices=[("crossing", (1, 2, 3, 4))],
        edges=[(1, 3, 1, 3), (2, 4, 3, 4)],
    )


class TestValidation:
    def test_empty_chart_ok(self):
        assert validate_chart(mk(4, 0)) == []

    def test_empty_chart_on_torus_ok(self):
        # an empty chart fits on any carrier surface
        assert validate_chart(mk(2, 1)) == []

    def test_free_edge_ok(self):
        assert validate_chart(free_edge_chart()) == []

    def test_white_spider_ok(self):
        assert validate_chart(white_spider()) == []

    def test_white_spider_all_rotations_ok(self):
        for rotation in range(6):
            for pair in [(1, 2), (2, 1)]:
                c = white_spider(rotation=rotation, pair=pair)
                assert validate_chart(c) == [], (rotation, pair)

    def test_white_needs_adjacent_labels(self):
        # labels 1 and 3 around a white vertex are not an adjacent pair
        c = white_spider(pair=(1, 3), degree=4)
        assert validate_chart(c) != []

    def test_white_rejects_flipped_head(self):
        good = white_spider()
        e0 = good.edges[0]
        flipped = Edge(darts=e0.darts, label=e0.label, head=e0.darts[0])
        c = Chart(
            degree=good.degree,
            genus=good.genus,
            vertices=good.vertices,
            edges=(flipped,) + good.edges[1:],
        )
        assert validate_chart(c) != []

    def test_crossing_spider_ok(self):
        for eps in (1, -1):
            for delta in (1, -1):
                c = crossing_spider(eps=eps, delta=delta)
                assert validate_chart(c) == [], (eps, delta)

    def test_crossing_needs_far_labels(self):
        c = crossing_spider(pair=(1, 2), degree=3)
        assert any("crossing" in v for v in validate_chart(c))

    def test_label_out_of_range(self):
        c = free_edge_chart(degree=2, label=5)
        assert any("label" in v for v in validate_chart(c))

    def test_degree_mismatch_black(self):
        c = mk(
            2,
            0,
            vertices=[("black", (1, 2))],
            edges=[(1, 2, 1, 2)],
        )
        assert validate_chart(c) != []

    def test_unknown_kind(self):
        c = mk(2, 0, vertices=[("purple", (1,)), ("black", (2,))], edges=[(1, 2, 1, 2)])
        assert any("kind" in v for v in validate_chart(c))

    def test_dart_in_two_edges(self):
        c = mk(
            2,
            0,
            vertices=[("black", (1,)), ("black", (2,)), ("black", (3,))],
            edges=[(1, 2, 1, 2), (1, 3, 1, 3)],
        )
        assert validate_chart(c) != []

    def test_dart_missing_from_vertices(self):
        c = mk(2, 0, vertices=[("black", (1,))], edges=[(1, 2, 1, 2)])
        assert validate_chart(c) != []

    def test_head_must_belong_to_edge(self):
        c = mk(
            2,
            0,
            vertices=[("black", (1,)), ("black", (2,))],
            edges=[(1, 2, 1, 7)],
        )
        assert validate_chart(c) != []

    def test_torus_chart_needs_genus(self):
        assert validate_chart(torus_crossing_chart(genus=1)) == []
        bad = torus_crossing_chart(genus=0)
        assert any("genus" in v for v in validate_chart(bad))

    def test_multiple_violations_accumulate(self):
        c = mk(
            2,
            0,
            vertices=[("black", (1, 2)), ("purple", (3,)), ("black", (4,))],
            edges=[(1, 2, 9, 2), (3, 4, 1, 4)],
        )
        assert len(validate_chart(c)) >= 3

    def test_loop_label_checked(self):
        c = mk(3, 0, loops=[FloatingLoop(label=7, sign=1)])
        assert any("label" in v for v in validate_chart(c))
        ok = mk(3, 0, loops=[FloatingLoop(label=2, sign=-1)])
        assert validate_chart(ok) == []

    def test_pattern_loop_sense_checked(self):
        c = mk(3, 0, pattern_loops=[PatternLoop(curve=1, sense=0)])
        assert validate_chart(c) != []

    @pytest.mark.parametrize("chart, want", [
        (mk(1, 0), ["degree 1 must be at least 2"]),
        (mk(2, -1), ["genus -1 must be nonnegative"]),
        (mk(2, 0, vertices=[("black", (1,))], edges=[(1, 1, 1, 1)]),
         ["edge 0: its two darts must differ", "dart 1 appears in more than one edge"]),
        (mk(2, 0, vertices=[("black", (1,)), ("black", (2,)), ("black", (3,))],
            edges=[(1, 2, 1, 2), (3, 2, 1, 2)]),
         ["dart 2 appears in more than one edge"]),
        (mk(2, 0, vertices=[("black", (1,)), ("black", (1,)), ("black", (2,))],
            edges=[(1, 2, 1, 2)]),
         ["dart 1 appears in more than one vertex cycle"]),
    ], ids=["degree-1", "genus-minus-1", "one-dart-edge", "second-dart-twice",
            "dart-in-two-vertices"])
    def test_a_hand_built_header_or_dart_structure_fault_is_named(self, chart, want):
        assert validate_chart(chart) == want
        with pytest.raises(InvalidChart) as exc:
            surface_map(chart)
        assert exc.value.violations == want


class TestSurfaceMap:
    def test_free_edge_map(self):
        m = surface_map(free_edge_chart())
        assert m.alpha[1] == 2 and m.alpha[2] == 1
        assert m.sigma[1] == 1 and m.sigma[2] == 2
        assert len(m.faces) == 1

    def test_white_spider_single_face(self):
        m = surface_map(white_spider())
        assert len(m.faces) == 1
        assert sorted(m.darts) == list(range(1, 13))

    def test_torus_face_count(self):
        m = surface_map(torus_crossing_chart())
        assert len(m.faces) == 1  # chi = 1 - 2 + 1 = 0

    def test_phi_is_sigma_after_alpha(self):
        m = surface_map(crossing_spider())
        for d in m.darts:
            assert m.phi[d] == m.sigma[m.alpha[d]]

    def test_map_is_derived_once_per_value(self):
        c = crossing_spider()
        assert surface_map(c) is surface_map(c)

    def test_replace_does_not_inherit_the_map(self):
        # the torus chart's two loops share one face; moving the crossing's
        # ends apart gives a planar chart with two more faces
        torus = torus_crossing_chart()
        m = surface_map(torus)
        assert validate_chart(torus) == []
        split = replace(torus, edges=(Edge((1, 2), 1, 2), Edge((3, 4), 3, 4)))
        assert surface_map(split) is not m
        assert len(surface_map(split).faces) == 3
        assert len(surface_map(torus).faces) == 1
        broken = replace(torus, edges=torus.edges[:1])
        assert validate_chart(broken) == [
            "dart 2 appears only on the vertex side",
            "dart 4 appears only on the vertex side",
        ]
        assert validate_chart(torus) == []


def genus_two_chart(genus=0):
    """Closed curves of labels 1 and 3 that cross four times, the 3-curve
    taking the crossings in the order 0, 1, 3, 2: one component of genus 2."""
    return mk(
        4,
        genus,
        vertices=[("crossing", tuple(range(4 * k + 1, 4 * k + 5))) for k in range(4)],
        edges=[(1, 7, 1, 7), (5, 11, 1, 11), (9, 15, 1, 15), (13, 3, 1, 3),
               (2, 8, 3, 8), (6, 16, 3, 16), (14, 12, 3, 12), (10, 4, 3, 4)],
    )


def two_tori(genus=0):
    """Two copies of the torus crossing chart, one component each."""
    return mk(
        4,
        genus,
        vertices=[("crossing", (1, 2, 3, 4)), ("crossing", (5, 6, 7, 8))],
        edges=[(1, 3, 1, 3), (2, 4, 3, 4), (5, 7, 1, 7), (6, 8, 3, 8)],
    )


def reference_genus(chart):
    """The summed genus of the chart's components, each read off
    V - E + F = 2 - 2g, by a walk of the chart's own alpha and sigma."""
    alpha, sigma = {}, {}
    for e in chart.edges:
        a, b = e.darts
        alpha[a], alpha[b] = b, a
    for v in chart.vertices:
        for k, d in enumerate(v.cycle):
            sigma[d] = v.cycle[(k + 1) % len(v.cycle)]
    root = {}
    for d in alpha:
        if d not in root:
            root[d], todo = d, [d]
            while todo:
                x = todo.pop()
                for y in (alpha[x], sigma[x]):
                    if y not in root:
                        root[y] = d
                        todo.append(y)
    chi = dict.fromkeys(root.values(), 0)
    for v in chart.vertices:
        chi[root[v.cycle[0]]] += 1
    for e in chart.edges:
        chi[root[e.darts[0]]] -= 1
    walked = set()
    for d in alpha:
        if d not in walked:
            chi[root[d]] += 1
            while d not in walked:
                walked.add(d)
                d = sigma[alpha[d]]
    assert all(x <= 2 and x % 2 == 0 for x in chi.values()), chi
    return sum((2 - x) // 2 for x in chi.values())


class TestGenusByEuler:
    """The genus bound read off four counts agrees with a reference that
    sums (2 - chi) / 2 over the components of its own walk."""

    @pytest.mark.parametrize("build, components, genus", [
        (torus_crossing_chart, 1, 1),
        (two_tori, 2, 2),
        (genus_two_chart, 1, 2),
    ], ids=["torus", "two-tori", "genus-two"])
    def test_the_genus_bound_matches_the_reference(self, build, components, genus):
        chart = build(0)
        assert reference_genus(chart) == genus
        assert len(surface_map(chart).size) == components
        assert validate_chart(chart) == [
            f"total component genus {genus} exceeds declared genus 0"
        ]
        assert validate_chart(build(genus)) == []

    def test_planar_charts_have_genus_zero(self):
        for chart in (free_edge_chart(), white_spider(), crossing_spider(), mk(4, 0)):
            assert reference_genus(chart) == 0
            assert validate_chart(chart) == []


class TestDartlessVertex:
    """A vertex without darts breaks the dart structure: no map is made."""

    def test_it_is_a_dart_structure_violation(self):
        base = free_edge_chart()
        c = replace(base, vertices=base.vertices + (Vertex("white", ()),))
        assert validate_chart(c) == ["vertex 2 has no darts"]
        with pytest.raises(InvalidChart) as exc:
            surface_map(c)
        assert exc.value.violations == ["vertex 2 has no darts"]
        with pytest.raises(InvalidChart):
            format_chart(c)


class TestPatchThatDoesNotFit:
    """A rewrite whose patch does not fit its parent gets no carried map:
    its map is derived in full, which names what is wrong."""

    @pytest.mark.parametrize("make, want", [
        (lambda c: rewrite(c, genus=-1), ["genus -1 must be nonnegative"]),
        # an edge equal to the parent's, but not the parent's own object
        (lambda c: rewrite(c, (Edge((1, 2), 1, 2),)), []),
        (lambda c: rewrite(c, (Vertex(c.vertices[0].kind, c.vertices[0].cycle),)), []),
        (lambda c: rewrite(c, (c.edges[0], c.edges[0])),
         ["dart 1 appears only on the vertex side", "dart 2 appears only on the vertex side"]),
        (lambda c: rewrite(c, (c.edges[0],), (Edge((1, 2), 1, 9),)),
         ["edge 0: head 9 is not one of its darts"]),
    ], ids=["negative-genus", "foreign-object", "foreign-vertex", "object-named-twice",
            "head-off-its-edge"])
    def test_the_output_map_is_derived_in_full(self, monkeypatch, make, want):
        parent = free_edge_chart()
        surface_map(parent)
        derived = []
        full = chart_mod._derive
        monkeypatch.setattr(chart_mod, "_derive", lambda ch: derived.append(ch) or full(ch))
        out = make(parent)
        assert validate_chart(out) == want
        assert derived == [out]


class TestStats:
    def test_empty(self):
        s = chart_stats(mk(4, 0))
        assert (s.w, s.b, s.c) == (0, 0, 0)
        assert s.c_alg_matrix == {}
        assert s.c_alg_total == 0

    def test_free_edge(self):
        s = chart_stats(free_edge_chart())
        assert (s.w, s.b, s.c) == (0, 2, 0)

    def test_white_spider(self):
        s = chart_stats(white_spider())
        assert (s.w, s.b, s.c) == (1, 6, 0)

    def test_crossing_positive(self):
        s = chart_stats(crossing_spider(eps=1, delta=1))
        assert s.c == 1
        assert s.c_alg_matrix == {(1, 3): 1}
        assert s.c_alg_total == 1

    def test_crossing_negative(self):
        # reversing one strand direction flips the intersection sign
        s = chart_stats(crossing_spider(eps=1, delta=-1))
        assert s.c_alg_matrix == {(1, 3): -1}

    def test_opposite_crossings_cancel(self):
        a = crossing_spider(eps=1, delta=1, base_dart=0)
        b = crossing_spider(eps=1, delta=-1, base_dart=8)
        c = mk(
            4,
            0,
            vertices=[(v.kind, v.cycle) for v in a.vertices + b.vertices],
            edges=[(e.darts[0], e.darts[1], e.label, e.head) for e in a.edges + b.edges],
        )
        s = chart_stats(c)
        assert s.c == 2
        assert s.c_alg_matrix == {(1, 3): 0}
        assert s.c_alg_total == 0

    def test_c_alg_total_bounded_by_c(self):
        for eps in (1, -1):
            for delta in (1, -1):
                s = chart_stats(crossing_spider(eps=eps, delta=delta))
                assert s.c_alg_total <= s.c

    def test_free_end_not_counted_as_black(self):
        c = mk(
            2,
            0,
            vertices=[("free_end", (1,)), ("black", (2,))],
            edges=[(1, 2, 1, 2)],
        )
        assert chart_stats(c).b == 1

    def test_invalid_chart_raises(self):
        bad = free_edge_chart(label=9)
        with pytest.raises(InvalidChart):
            chart_stats(bad)

    def test_stats_invariant_under_dart_renaming(self):
        base = white_spider()
        remap = {d: 7 * d + 3 for d in range(1, 13)}
        renamed = Chart(
            degree=base.degree,
            genus=base.genus,
            vertices=tuple(
                Vertex(kind=v.kind, cycle=tuple(remap[d] for d in v.cycle))
                for v in base.vertices
            ),
            edges=tuple(
                Edge(
                    darts=(remap[e.darts[0]], remap[e.darts[1]]),
                    label=e.label,
                    head=remap[e.head],
                )
                for e in base.edges
            ),
        )
        assert validate_chart(renamed) == []
        assert chart_stats(renamed) == chart_stats(base)


class TestVerdict:
    def test_the_full_verdict_is_kept_on_the_chart(self, monkeypatch):
        calls = []
        real = chart_mod._violations
        monkeypatch.setattr(
            chart_mod, "_violations", lambda c, t: calls.append(t) or real(c, t)
        )
        c = free_edge_chart(degree=4, label=9)
        want = ["edge 0: label 9 out of range 1..3"]
        got = validate_chart(c)
        assert got == want
        got.append("changed by the caller")
        assert validate_chart(c) == want
        drop_map(c)
        assert validate_chart(c) == want
        assert calls == [None]
        # a patch check is not kept
        assert validate_chart(c, [1]) == want
        assert calls == [None, [1]]


class TestClassifiers:
    def test_white_type_and_middles(self):
        c = white_spider(rotation=0)
        pair, rot = white_type(c, c.vertices[0])
        assert pair == (1, 2) and rot == 0
        assert middle_positions(c, c.vertices[0]) == {1, 4}

    def test_middles_follow_rotation(self):
        for r in range(6):
            c = white_spider(rotation=r)
            assert middle_positions(c, c.vertices[0]) == {(1 - r) % 6, (4 - r) % 6}

    def test_crossing_type(self):
        c = crossing_spider(eps=1, delta=-1)
        pair, sign = crossing_type(c, c.vertices[0])
        assert pair == (1, 3) and sign == -1

    def test_a_vertex_of_another_kind_or_a_bad_word_is_refused(self):
        cross = crossing_spider()
        c, black = cross.vertices[0], cross.vertices[1]
        near = crossing_spider(pair=(1, 2), degree=3)
        flat = white_spider(pair=(1, 1), degree=3)
        for call, message in [
            (lambda: white_type(cross, c), "vertex (1, 2, 3, 4) is crossing, not white"),
            (lambda: middle_positions(cross, c), "vertex (1, 2, 3, 4) is crossing, not white"),
            (lambda: crossing_type(cross, black), "vertex (5,) is black, not crossing"),
            (lambda: crossing_type(near, near.vertices[0]),
             "vertex (1, 2, 3, 4) has no valid crossing word"),
            (lambda: white_type(flat, flat.vertices[0]),
             "vertex (1, 2, 3, 4, 5, 6) has no valid white word"),
        ]:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


class TestUnknotted:
    def test_empty_is_unknotted(self):
        assert is_unknotted_chart(mk(4, 0))

    def test_free_edges_are_unknotted(self):
        a = free_edge_chart()
        two = mk(
            2,
            0,
            vertices=[("black", (1,)), ("black", (2,)), ("black", (3,)), ("black", (4,))],
            edges=[(1, 2, 1, 2), (3, 4, 1, 3)],
        )
        assert is_unknotted_chart(a)
        assert is_unknotted_chart(two)

    def test_white_is_not_unknotted(self):
        assert not is_unknotted_chart(white_spider())

    def test_floating_loop_blocks_unknotted(self):
        c = mk(3, 0, loops=[FloatingLoop(label=1, sign=1)])
        assert not is_unknotted_chart(c)

    def test_pattern_loop_blocks_unknotted(self):
        c = mk(3, 0, pattern_loops=[PatternLoop(curve=1, sense=1)])
        assert not is_unknotted_chart(c)

    def test_free_end_component_not_unknotted(self):
        c = mk(
            2,
            0,
            vertices=[("free_end", (1,)), ("black", (2,))],
            edges=[(1, 2, 1, 2)],
        )
        assert not is_unknotted_chart(c)


class TestBounds:
    def test_empty_degree_four(self):
        r = unbraiding_bounds(mk(4, 0))
        assert r == BoundsReport(
            u_w_upper=3, u_lower_blackless=0, u_upper=3, u_gamma_upper=3
        )

    def test_free_edge_degree_two(self):
        r = unbraiding_bounds(free_edge_chart())
        assert r.u_w_upper == 1
        assert r.u_lower_blackless is None  # has black vertices
        assert r.u_upper == 1
        assert r.u_gamma_upper == 1

    def test_white_spider_bounds(self):
        r = unbraiding_bounds(white_spider())
        # w=1, c=0, N=3
        assert r.u_w_upper == 1 + 0 + 2
        assert r.u_gamma_upper == 1 + 2
        assert r.u_lower_blackless is None

    def test_blackless_lower_bound(self):
        c = torus_crossing_chart()
        r = unbraiding_bounds(c)
        s = chart_stats(c)
        assert s.b == 0
        assert r.u_w_upper == 0 + 2 * 1 + 3
        assert r.u_lower_blackless == s.c_alg_total == 1
        assert r.u_upper == r.u_w_upper + s.c_alg_total

    def test_floor_at_degree(self):
        for n in (2, 3, 4, 5):
            assert unbraiding_bounds(mk(n, 0)).u_w_upper >= n - 1


FREE_EDGE_TEXT = """chart degree=2 genus=0
dart 1
dart 2
edge 1 2 label=1 head=2
vertex black cycle=1
vertex black cycle=2
"""


class TestFileFormat:
    def test_format_free_edge(self):
        assert format_chart(free_edge_chart()) == FREE_EDGE_TEXT

    def test_parse_format_round_trip(self):
        c = parse_chart(FREE_EDGE_TEXT)
        assert format_chart(c) == FREE_EDGE_TEXT

    def test_canonical_idempotent(self):
        for chart in [free_edge_chart(), white_spider(), crossing_spider()]:
            once = canonical_chart(chart)
            assert canonical_chart(once) == once
            assert format_chart(once) == format_chart(chart)

    def test_round_trip_renumbers(self):
        base = white_spider()
        remap = {d: 100 - d for d in range(1, 13)}
        scrambled = Chart(
            degree=base.degree,
            genus=base.genus,
            vertices=tuple(
                Vertex(kind=v.kind, cycle=tuple(remap[d] for d in v.cycle))
                for v in base.vertices
            ),
            edges=tuple(
                Edge(
                    darts=(remap[e.darts[0]], remap[e.darts[1]]),
                    label=e.label,
                    head=remap[e.head],
                )
                for e in base.edges
            ),
        )
        text = format_chart(scrambled)
        again = parse_chart(text)
        assert format_chart(again) == text
        assert chart_stats(again) == chart_stats(base)

    def test_extension_lines_round_trip(self):
        c = mk(
            3,
            0,
            loops=[FloatingLoop(label=2, sign=-1), FloatingLoop(label=1, sign=1)],
            pattern_loops=[PatternLoop(curve=2, sense=-1), PatternLoop(curve=1, sense=1)],
        )
        text = format_chart(c)
        assert "loop label=1 sign=+" in text
        assert "loop label=2 sign=-" in text
        assert "patternloop curve=1 sense=+" in text
        back = parse_chart(text)
        assert format_chart(back) == text
        # canonical order sorts the records
        assert back.loops[0].label == 1
        assert back.pattern_loops[0].curve == 1

    def test_round_trip_all_small_charts(self):
        for chart in [
            mk(4, 0),
            free_edge_chart(),
            white_spider(rotation=2, pair=(2, 1)),
            crossing_spider(eps=-1, delta=1),
            torus_crossing_chart(),
        ]:
            text = format_chart(chart)
            assert format_chart(parse_chart(text)) == text

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ParseError) as info:
            parse_chart("charrt degree=2 genus=0\n")
        assert info.value.line == 1

    def test_parse_rejects_unknown_dart_in_edge(self):
        text = "chart degree=2 genus=0\ndart 1\nedge 1 2 label=1 head=2\n"
        with pytest.raises(ParseError) as info:
            parse_chart(text)
        assert info.value.line == 3

    def test_parse_rejects_duplicate_dart(self):
        with pytest.raises(ParseError):
            parse_chart("chart degree=2 genus=0\ndart 1\ndart 1\n")

    def test_parse_rejects_bad_head(self):
        text = "chart degree=2 genus=0\ndart 1\ndart 2\nedge 1 2 label=1 head=3\n"
        with pytest.raises(ParseError):
            parse_chart(text)

    def test_parse_rejects_junk_line(self):
        with pytest.raises(ParseError) as info:
            parse_chart("chart degree=2 genus=0\nwobble 3\n")
        assert info.value.line == 2

    def test_parse_rejects_zero_label(self):
        text = "chart degree=2 genus=0\ndart 1\ndart 2\nedge 1 2 label=0 head=2\n"
        with pytest.raises(ParseError):
            parse_chart(text)


# Odd and malformed chart lines, with the chart the parser reads from each
# text or its exact ParseError (line, column, message).  Every integer token
# (header, dart id, label, head, cycle dart, curve) is ASCII digits, leading
# zeros allowed: "+3", "-2", "1_0" and non-ASCII digits are refused with the
# message of the token's field.  A dart named twice in one edge or vertex
# line is refused like one used by an earlier line.  The column is where the
# token at fault starts; a header error is at column 1.
H = "chart degree=4 genus=0"
D = "dart 1\ndart 2\ndart 12"
PARSE_TABLE = [
    (f"{H}\ndart +3\ndart 4\nedge 3 4 label=1 head=4",
     ('error', 2, 6, 'expected an integer dart id')),
    (f"{H}\ndart 1_0\ndart 11\nedge 10 11 label=1 head=11",
     ('error', 2, 6, 'expected an integer dart id')),
    (f"{H}\ndart \uff13\ndart 4\nedge 3 4 label=1 head=4",
     ('error', 2, 6, 'expected an integer dart id')),
    (f"{H}\ndart 007\ndart 8\nedge 7 8 label=1 head=8",
     ('chart', 4, 0, (), (((7, 8), 1, 8),), (), ())),
    (f"{H}\n  dart\t5  \ndart\xa06\nedge 5 6 label=1 head=6",
     ('chart', 4, 0, (), (((5, 6), 1, 6),), (), ())),
    (f"{H}\ndart 0",
     ('error', 2, 6, 'dart ids must be positive')),
    (f"{H}\ndart -2",
     ('error', 2, 6, 'expected an integer dart id')),
    (f"{H}\ndart 1\ndart 1",
     ('error', 3, 6, 'dart 1 declared twice')),
    (f"{H}\ndart 1\ndart +1",
     ('error', 3, 6, 'expected an integer dart id')),
    (f"{H}\ndart 1 2",
     ('error', 2, 1, "expected 'dart <id>'")),
    (f"{H}\ndart",
     ('error', 2, 1, "expected 'dart <id>'")),
    (f"{H}\ndart x",
     ('error', 2, 6, 'expected an integer dart id')),
    (f"{H}\ndart 1.0",
     ('error', 2, 6, 'expected an integer dart id')),
    (f"{H}\ndart 1\x1cdart 2\x85dart 2",
     ('error', 4, 6, 'dart 2 declared twice')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=2",
     ('chart', 4, 0, (), (((1, 2), 1, 2),), (), ())),
    (f"{H}\n{D}\nedge 1 2 label=+1 head=2",
     ('error', 5, 10, 'expected label=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=007 head=2",
     ('chart', 4, 0, (), (((1, 2), 7, 2),), (), ())),
    (f"{H}\n{D}\nedge 1 2 label=1_0 head=2",
     ('error', 5, 10, 'expected label=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=\uff11 head=2",
     ('error', 5, 10, 'expected label=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=0 head=2",
     ('error', 5, 10, 'labels start at 1')),
    (f"{H}\n{D}\nedge 1 2 label=-1 head=2",
     ('error', 5, 10, 'expected label=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=x head=2",
     ('error', 5, 10, 'expected label=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label= head=2",
     ('error', 5, 10, 'expected label=<integer>')),
    (f"{H}\n{D}\nedge 1 2 head=2 label=1",
     ('error', 5, 10, 'expected label=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=x",
     ('error', 5, 18, 'expected head=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=12",
     ('error', 5, 18, 'head 12 is not one of the darts')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=02",
     ('chart', 4, 0, (), (((1, 2), 1, 2),), (), ())),
    (f"{H}\n{D}\nedge 1 2 label=1 head=-2",
     ('error', 5, 18, 'expected head=<integer>')),
    (f"{H}\n{D}\nedge 1 3 label=1 head=1",
     ('error', 5, 8, 'dart 3 was never declared')),
    (f"{H}\n{D}\nedge 12 3 label=1 head=12",
     ('error', 5, 9, 'dart 3 was never declared')),
    (f"{H}\n{D}\nedge +1 2 label=1 head=2",
     ('error', 5, 6, 'expected an integer dart id')),
    (f"{H}\n{D}\nedge 1 x label=1 head=1",
     ('error', 5, 8, 'expected an integer dart id')),
    (f"{H}\n{D}\nedge 1 1 label=1 head=1",
     ('error', 5, 8, 'dart 1 already used by an edge')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=2\nedge 2 12 label=1 head=2",
     ('error', 6, 6, 'dart 2 already used by an edge')),
    (f"{H}\n{D}\nedge 1 2 label=1",
     ('error', 5, 1, "expected 'edge <d1> <d2> label=<i> head=<d>'")),
    (f"{H}\n{D}\nedge 1 2 label=1 head=2 extra",
     ('error', 5, 1, "expected 'edge <d1> <d2> label=<i> head=<d>'")),
    (f"{H}\n{D}\nedge 1 2 label=9 head=2",
     ('chart', 4, 0, (), (((1, 2), 9, 2),), (), ())),
    (f"{H}\n{D}\nedge \uff11 2 label=1 head=2",
     ('error', 5, 6, 'expected an integer dart id')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=+2",
     ('error', 5, 18, 'expected head=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=\uff12",
     ('error', 5, 18, 'expected head=<integer>')),
    (f"{H}\n{D}\nedge 1 2 label=1 head=2_",
     ('error', 5, 18, 'expected head=<integer>')),
    (f"{H}\n{D}\nvertex black cycle=1",
     ('chart', 4, 0, (('black', (1,)),), (), (), ())),
    (f"{H}\n{D}\nvertex white cycle=1,,2",
     ('error', 5, 14, 'expected cycle=<d,...>')),
    (f"{H}\n{D}\nvertex blob cycle=1",
     ('error', 5, 8, "unknown vertex kind 'blob'")),
    (f"{H}\n{D}\nvertex black cycle=1,",
     ('error', 5, 14, 'expected cycle=<d,...>')),
    (f"{H}\n{D}\nvertex black cycle=,1",
     ('error', 5, 14, 'expected cycle=<d,...>')),
    (f"{H}\n{D}\nvertex black cycle=01",
     ('chart', 4, 0, (('black', (1,)),), (), (), ())),
    (f"{H}\n{D}\nvertex black cycle=+1",
     ('error', 5, 14, 'expected cycle=<d,...>')),
    (f"{H}\n{D}\nvertex black cycle=\uff11",
     ('error', 5, 14, 'expected cycle=<d,...>')),
    (f"{H}\n{D}\nvertex black cycle=3",
     ('error', 5, 14, 'dart 3 was never declared')),
    (f"{H}\n{D}\nvertex black cycle=1,1",
     ('error', 5, 14, 'dart 1 already used by a vertex')),
    (f"{H}\n{D}\nvertex black cycle=1\nvertex black cycle=2,1",
     ('error', 6, 14, 'dart 1 already used by a vertex')),
    (f"{H}\n{D}\nvertex black",
     ('error', 5, 1, "expected 'vertex <kind> cycle=<d,...>'")),
    (f"{H}\n{D}\nvertex black cyc=1",
     ('error', 5, 14, 'expected cycle=<d,...>')),
    (f"{H}\n{D}\nvertex black cycle=1 x",
     ('error', 5, 1, "expected 'vertex <kind> cycle=<d,...>'")),
    (f"{H}\n{D}\nvertex crossing cycle=12,2,1",
     ('chart', 4, 0, (('crossing', (12, 2, 1)),), (), (), ())),
    (f"{H}\n{D}\nvertex Black cycle=1",
     ('error', 5, 8, "unknown vertex kind 'Black'")),
    (f"{H}\n{D}\nvertex black cycle=1_2",
     ('error', 5, 14, 'expected cycle=<d,...>')),
    (f"{H}\n{D}\nvertex free_end cycle=12\nvertex white cycle=1,2",
     ('chart', 4, 0, (('free_end', (12,)), ('white', (1, 2))), (), (), ())),
    ("chart degree=4 genus=1\nloop label=1 sign=+\nloop label=3 sign=-",
     ('chart', 4, 1, (), (), ((1, 1, True), (3, -1, True)), ())),
    (f"{H}\nloop label=1 sign=*",
     ('error', 2, 14, 'expected sign=+ or sign=-')),
    (f"{H}\nloop label=0 sign=+",
     ('error', 2, 6, 'labels start at 1')),
    (f"{H}\nloop sign=+ label=1",
     ('error', 2, 6, 'expected label=<integer>')),
    (f"{H}\nloop label=1",
     ('error', 2, 1, "expected 'loop label=<i> sign=<+|->'")),
    (f"{H}\npatternloop curve=2 sense=-\npatternloop curve=1 sense=+",
     ('chart', 4, 0, (), (), (), ((2, -1), (1, 1)))),
    (f"{H}\npatternloop curve=0 sense=+",
     ('error', 2, 13, 'curve indices start at 1')),
    (f"{H}\npatternloop curve=1 sense=+-",
     ('error', 2, 21, 'expected sense=+ or sense=-')),
    (f"{H}\nwobble 3",
     ('error', 2, 1, "unknown directive 'wobble'")),
    (f"{H}\nDART 1",
     ('error', 2, 1, "unknown directive 'DART'")),
    ("dart 1",
     ('error', 1, 1, "expected 'chart degree=<N> genus=<g>'")),
    ("",
     ('error', 1, 1, 'missing chart header')),
    ("\n  \n",
     ('error', 1, 1, 'missing chart header')),
    ("chart degree=2 genus=0 extra",
     ('error', 1, 1, "expected 'chart degree=<N> genus=<g>'")),
    ("chart  degree=2 genus=0",
     ('error', 1, 1, "expected 'chart degree=<N> genus=<g>'")),
    ("  chart degree=2 genus=0  \r\ndart 1\r\n",
     ('chart', 2, 0, (), (), (), ())),
    ("chart degree=+2 genus=0",
     ('error', 1, 1, "expected 'chart degree=<N> genus=<g>'")),
    ("chart degree=\uff12 genus=0",
     ('error', 1, 1, "expected 'chart degree=<N> genus=<g>'")),
    ("chart degree=2 genus=-1",
     ('error', 1, 1, "expected 'chart degree=<N> genus=<g>'")),
    ("chart degree=2",
     ('error', 1, 1, "expected 'chart degree=<N> genus=<g>'")),
    ("\n\nchart degree=3 genus=2\n\ndart 4\n\n",
     ('chart', 3, 2, (), (), (), ())),
    (f"{H}\npatternloop curve=1",
     ('error', 2, 1, "expected 'patternloop curve=<k> sense=<+|->'")),
]


def _parsed(text):
    try:
        c = parse_chart(text)
    except ParseError as exc:
        return ("error", exc.line, exc.column, exc.message)
    return (
        "chart", c.degree, c.genus,
        tuple((v.kind, v.cycle) for v in c.vertices),
        tuple((e.darts, e.label, e.head) for e in c.edges),
        tuple((x.label, x.sign, x.pinned) for x in c.loops),
        tuple((p.curve, p.sense) for p in c.pattern_loops),
    )


@pytest.mark.parametrize(
    "text, want", PARSE_TABLE, ids=[f"{k:02d}" for k in range(len(PARSE_TABLE))]
)
def test_the_parser_reads_odd_lines_as_pinned(text, want):
    assert _parsed(text) == want
