"""Tests for the chart module: surface maps, validation, stats, bounds."""

from dataclasses import replace

import pytest

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
    format_chart,
    is_unknotted_chart,
    middle_positions,
    parse_chart,
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


class TestClassifiers:
    def test_white_type_and_middles(self):
        c = white_spider(rotation=0)
        pair, rot = white_type(c, 0)
        assert pair == (1, 2) and rot == 0
        assert middle_positions(c, 0) == {1, 4}

    def test_middles_follow_rotation(self):
        for r in range(6):
            c = white_spider(rotation=r)
            assert middle_positions(c, 0) == {(1 - r) % 6, (4 - r) % 6}

    def test_crossing_type(self):
        c = crossing_spider(eps=1, delta=-1)
        pair, sign = crossing_type(c, 0)
        assert pair == (1, 3) and sign == -1


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
