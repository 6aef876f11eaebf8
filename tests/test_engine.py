"""Tests for the rewriting engine: moves on decorated surfaces.

Frozen outcomes were derived by hand from the rotation-system semantics:
white words are cyclic rotations of the hexagonal relator, crossing words
of the far-commutation square, and every move is checked against the
stats-delta table and exact (canonical) reversibility.
"""

import dataclasses
import hashlib
import operator
import os
import random
import re
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from handleforge import chart as chart_mod
from handleforge import cli
from handleforge import engine
from handleforge.braid import BraidWord, format_word, parse_word
from handleforge.chart import (
    Chart,
    Edge,
    FloatingLoop,
    PatternLoop,
    Vertex,
    canonical_chart,
    chart_stats,
    format_chart,
    parse_chart,
    surface_map,
    validate_chart,
)
from handleforge.engine import (
    AbsorbLoopIntoFreeEdge,
    AttachTrivialHandle,
    AttachedHandle,
    Bridge,
    CIM1Add,
    CIM1Erase,
    CIM2Absorb,
    CIM2Reconnect,
    CIM2Split,
    CIM3Bootstrap,
    CIM3Cancel,
    CIIIEliminate,
    CIIRetract,
    CIISweep,
    CIR2Bootstrap,
    CIR2Insert,
    CIR2Straighten,
    ConvertViaGeneratorSet,
    CrossingTransfer,
    DecoratedSurface,
    DetachTrivialHandle,
    EngineTrace,
    FreeEdgeRelabel,
    HandleSlideDecorated,
    HasBlackVertices,
    LabelConstraintViolated,
    MissingGeneratorHandles,
    MoveHandleAcrossEdge,
    NonCommutingDecoration,
    NonTrivialHandle,
    NotRepeatedPattern,
    OrientationReversalAid,
    PatternCancel,
    PatternCapture,
    PatternTwist,
    RotateTrivialHandleDecoration,
    SiteMismatch,
    SlideEndAlongEdge,
    StuckWhiteVertex,
    apply_move,
    certify_trace,
    derived_cocore,
    empty_surface,
    enumerate_chart_moves,
    format_script,
    generate_blackless_chart,
    parse_script,
    surfaces_equal,
    unbraid_repeated_pattern,
    unbraid_with_branch,
    unbraid_without_branch,
)
from handleforge.errors import ParseError
from test_chart import reference_genus

WHITE_BASE = [(1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1)]


def mk(degree=4, genus=0, vertices=(), edges=(), loops=(), pattern_loops=()):
    return Chart(degree, genus, tuple(vertices), tuple(edges),
                 tuple(loops), tuple(pattern_loops))


def surf(chart, handles=()):
    return DecoratedSurface(chart, tuple(handles))


def free_edge_chart(label=1, degree=4):
    return mk(degree=degree, vertices=(
        Vertex("black", (1,)), Vertex("black", (2,)),
    ), edges=(Edge((1, 2), label, 2),))


def two_free_edges(l1=1, l2=3, degree=4):
    return mk(degree=degree, vertices=(
        Vertex("black", (1,)), Vertex("black", (2,)),
        Vertex("black", (3,)), Vertex("black", (4,)),
    ), edges=(Edge((1, 2), l1, 2), Edge((3, 4), l2, 4)))


def white_spider(rotation=0, pair=(1, 2), degree=4):
    # a white vertex whose six edges all end at black vertices
    i, j = pair
    seq = []
    for k in range(6):
        lab, sign = WHITE_BASE[(k + rotation) % 6]
        seq.append((i if lab == 1 else j, sign))
    verts = [Vertex("white", tuple(range(1, 7)))]
    edges = []
    for k in range(6):
        lab, sign = seq[k]
        d_w, d_b = k + 1, k + 7
        verts.append(Vertex("black", (d_b,)))
        edges.append(Edge((d_w, d_b), lab, d_b if sign > 0 else d_w))
    return mk(degree=degree, vertices=tuple(verts), edges=tuple(edges))


def assert_valid(chart):
    violations = validate_chart(chart)
    assert violations == [], violations


class TestRecordMoves:
    def test_add_then_erase_restores(self):
        s = empty_surface(4)
        s2, inv = apply_move(s, CIM1Add(2, 1))
        assert len(s2.chart.loops) == 1
        assert s2.chart.loops[0].label == 2
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_erase_rejects_pinned_records(self):
        ch = mk(genus=1, loops=(FloatingLoop(1, 1, pinned=True),))
        with pytest.raises(SiteMismatch):
            apply_move(surf(ch), CIM1Erase(0))

    def test_split_spawns_record_and_absorb_removes_it(self):
        s = surf(free_edge_chart(label=2))
        s2, inv = apply_move(s, CIM2Split(1, sign=-1))
        assert s2.chart.loops == (FloatingLoop(2, -1),)
        assert s2.chart.edges == s.chart.edges
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_absorb_requires_matching_label(self):
        ch = mk(vertices=(Vertex("black", (1,)), Vertex("black", (2,))),
                edges=(Edge((1, 2), 1, 2),), loops=(FloatingLoop(3, 1),))
        with pytest.raises(LabelConstraintViolated):
            apply_move(surf(ch), CIM2Absorb(1, 0))


class TestReconnect:
    def test_merges_two_free_edges(self):
        # same label, opposite flow: reconnect the two inner darts
        ch = mk(vertices=(
            Vertex("black", (1,)), Vertex("black", (2,)),
            Vertex("black", (3,)), Vertex("black", (4,)),
        ), edges=(Edge((1, 2), 1, 2), Edge((3, 4), 1, 4)))
        s = surf(ch)
        s2, inv = apply_move(s, CIM2Reconnect(2, 3))
        darts = {frozenset(e.darts) for e in s2.chart.edges}
        assert darts == {frozenset({2, 3}), frozenset({1, 4})}
        assert_valid(s2.chart)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_rejects_label_mismatch(self):
        s = surf(two_free_edges(1, 3))
        with pytest.raises(LabelConstraintViolated):
            apply_move(s, CIM2Reconnect(2, 3))

    def test_rejects_codirected_darts(self):
        # both darts are heads: the strands flow the same way
        ch = mk(vertices=(
            Vertex("black", (1,)), Vertex("black", (2,)),
            Vertex("black", (3,)), Vertex("black", (4,)),
        ), edges=(Edge((1, 2), 1, 2), Edge((3, 4), 1, 3)))
        with pytest.raises(SiteMismatch):
            apply_move(surf(ch), CIM2Reconnect(2, 3))

    def test_a_reconnect_that_lowers_the_genus_is_undone_by_a_restore(self):
        # two tori, one component each: the band between them joins them
        # into one torus, where the new edges cobound no face, so the named
        # inverse CIM2Reconnect(1, 3) is refused and a restore undoes it
        ch = mk(genus=2, vertices=(
            Vertex("crossing", (1, 2, 3, 4)), Vertex("crossing", (5, 6, 7, 8)),
        ), edges=(Edge((1, 3), 1, 3), Edge((2, 4), 3, 4),
                  Edge((5, 7), 1, 7), Edge((6, 8), 3, 8)))
        s = surf(ch)
        out, inv = apply_move(s, CIM2Reconnect(1, 7))
        assert reference_genus(out.chart) == 1
        assert len(surface_map(out.chart).size) == 1
        with pytest.raises(SiteMismatch) as exc:
            apply_move(out, CIM2Reconnect(1, 3))
        assert str(exc.value) == "the two darts do not cobound a face"
        assert type(inv) is engine._Restore
        assert apply_move(out, inv)[0] is s


class TestCrossingPair:
    def test_insert_on_far_edges_and_straighten_back(self):
        s = surf(two_free_edges(1, 3))
        s2, inv = apply_move(s, CIR2Insert(1, 3))
        st = chart_stats(s2.chart)
        assert st.c == 2
        assert st.c_alg_total == 0
        assert st.b == 4
        assert_valid(s2.chart)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_insert_rejects_adjacent_labels(self):
        s = surf(two_free_edges(1, 2))
        with pytest.raises(LabelConstraintViolated):
            apply_move(s, CIR2Insert(1, 3))

    def test_bootstrap_from_two_records_round_trips(self):
        ch = mk(loops=(FloatingLoop(1, 1), FloatingLoop(3, -1)))
        s = surf(ch)
        s2, inv = apply_move(s, CIR2Bootstrap(0, 1))
        st = chart_stats(s2.chart)
        assert st.c == 2
        assert st.c_alg_total == 0
        assert s2.chart.loops == ()
        assert_valid(s2.chart)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)


class TestBranchCrossing:
    def test_sweep_creates_one_crossing_and_retract_undoes(self):
        s = surf(two_free_edges(1, 3))
        s2, inv = apply_move(s, CIISweep(1, 3))
        st = chart_stats(s2.chart)
        assert st.c == 1
        assert st.b == 4
        assert st.c_alg_total == 1
        assert_valid(s2.chart)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_sweep_needs_a_black_end(self):
        ch = white_spider()
        # dart 13 does not exist; dart 1 is a white-side dart
        with pytest.raises(SiteMismatch):
            apply_move(surf(ch), CIISweep(1, 3))


class TestWhiteElimination:
    def test_eliminate_at_corner_leaves_three_free_edges(self):
        s = surf(white_spider(rotation=0))
        s2, inv = apply_move(s, CIIIEliminate(1))
        st = chart_stats(s2.chart)
        assert st.w == 0
        assert st.b == 6
        assert st.c == 0
        labels = sorted(e.label for e in s2.chart.edges)
        assert labels == [1, 2, 2]
        assert_valid(s2.chart)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_eliminate_rejects_middle_positions(self):
        # rotation 0 puts the middles at cycle positions 1 and 4
        s = surf(white_spider(rotation=0))
        for dart in (2, 5):
            with pytest.raises(SiteMismatch):
                apply_move(s, CIIIEliminate(dart))

    def test_eliminate_every_corner_of_every_rotation(self):
        for rot in range(6):
            s = surf(white_spider(rotation=rot))
            middles = {(1 - rot) % 6, (4 - rot) % 6}
            for pos in range(6):
                if pos in middles:
                    continue
                s2, inv = apply_move(s, CIIIEliminate(pos + 1))
                assert chart_stats(s2.chart).w == 0
                assert_valid(s2.chart)
                s3, _ = apply_move(s2, inv)
                assert surfaces_equal(s3, s)


class TestWhitePair:
    def quintet(self):
        loops = tuple(FloatingLoop(lab, 1)
                      for lab in (2, 1, 2, 1, 2))
        return surf(mk(loops=loops))

    def test_bootstrap_builds_a_valid_pair(self):
        s = self.quintet()
        s2, inv = apply_move(s, CIM3Bootstrap(1, 2, (0, 1, 2, 3, 4)))
        st = chart_stats(s2.chart)
        assert st.w == 2
        assert st.b == 0
        assert s2.chart.loops == ()
        assert_valid(s2.chart)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_cancel_spawns_the_records_back(self):
        s = self.quintet()
        s2, _ = apply_move(s, CIM3Bootstrap(1, 2, (0, 1, 2, 3, 4)))
        # cancel at any dart of the joining edge; engine finds the pair
        e0 = next(e for e in s2.chart.edges)
        s3, _ = apply_move(s2, CIM3Cancel(e0.darts[0]))
        assert chart_stats(s3.chart).w == 0
        assert sorted(l.label for l in s3.chart.loops) == [1, 1, 2, 2, 2]

    def test_bootstrap_rejects_far_labels(self):
        s = self.quintet()
        with pytest.raises(LabelConstraintViolated):
            apply_move(s, CIM3Bootstrap(1, 3, (0, 1, 2, 3, 4)))


class TestHandleBasics:
    def test_attach_carries_genus_and_feet(self):
        s = empty_surface(4)
        s2, inv = apply_move(s, AttachTrivialHandle(cocore_label=1))
        assert s2.chart.genus == 1
        assert len(s2.handles) == 1
        h = s2.handles[0]
        assert h.feet is not None
        assert format_word(derived_cocore(s2, h.id)) == "s1"
        assert_valid(s2.chart)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_plain_attach_and_detach(self):
        s = empty_surface(4)
        s2, _ = apply_move(s, AttachTrivialHandle())
        h = s2.handles[0]
        assert h.feet is None
        assert format_word(derived_cocore(s2, h.id)) == "e"
        s3, _ = apply_move(s2, DetachTrivialHandle(h.id))
        assert surfaces_equal(s3, s)

    def test_rotation_cycle_matches_quarter_turns(self):
        s, _ = apply_move(empty_surface(4), AttachTrivialHandle(cocore_label=3))
        hid = s.handles[0].id
        s2, _ = apply_move(s, RotateTrivialHandleDecoration(hid, "cw"))
        assert s2.handles[0].feet is None
        assert format_word(s2.handles[0].coreloop) == "s3"
        s3, _ = apply_move(s2, RotateTrivialHandleDecoration(hid, "cw"))
        assert format_word(derived_cocore(s3, hid)) == "S3"
        assert format_word(s3.handles[0].coreloop) == "e"
        # two more quarter turns complete the cycle
        s4, _ = apply_move(s3, RotateTrivialHandleDecoration(hid, "cw"))
        s5, _ = apply_move(s4, RotateTrivialHandleDecoration(hid, "cw"))
        assert surfaces_equal(s5, s)

    def test_ccw_inverts_cw(self):
        s, _ = apply_move(empty_surface(4), AttachTrivialHandle(cocore_label=2))
        hid = s.handles[0].id
        s2, inv = apply_move(s, RotateTrivialHandleDecoration(hid, "cw"))
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)


class TestHandleWordMoves:
    def carried(self, letters):
        # a footless handle carrying the given coreloop letters
        s, _ = apply_move(empty_surface(4), AttachTrivialHandle())
        hid = s.handles[0].id
        for gen, sign in letters:
            s, _ = apply_move(s, CIM1Add(gen, sign))
            s, _ = apply_move(
                s, MoveHandleAcrossEdge(hid, loop=0, side="right"))
        return s, hid

    def test_capture_builds_the_coreloop(self):
        s, hid = self.carried([(3, 1), (2, -1)])
        assert format_word(s.handles[0].coreloop) == "s3 S2"

    def test_capture_then_emit_round_trips(self):
        s, hid = self.carried([(3, 1)])
        s2, inv = apply_move(
            s, MoveHandleAcrossEdge(hid, emit_label=2, emit_sign=1,
                                    side="right"))
        assert format_word(s2.handles[0].coreloop) == "s3 S2"
        assert s2.chart.loops == (FloatingLoop(2, 1),)
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_conjugation_across_an_edge(self):
        base = free_edge_chart(label=1)
        s, _ = apply_move(surf(base), AttachTrivialHandle())
        hid = s.handles[0].id
        s, _ = apply_move(s, CIM1Add(2, 1))
        s, _ = apply_move(s, MoveHandleAcrossEdge(hid, loop=0))
        s2, inv = apply_move(s, MoveHandleAcrossEdge(hid, dart=1, sign=1))
        assert format_word(s2.handles[0].coreloop) == "s1 s2 S1"
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_push_at_a_free_end_cancels_a_letter(self):
        base = free_edge_chart(label=1)
        s, _ = apply_move(surf(base), AttachTrivialHandle())
        hid = s.handles[0].id
        for gen, sign in ((2, 1), (1, 1)):
            s, _ = apply_move(s, CIM1Add(gen, sign))
            s, _ = apply_move(
                s, MoveHandleAcrossEdge(hid, loop=0, side="left"))
        assert format_word(s.handles[0].coreloop) == "s1 s2"
        s2, _ = apply_move(
            s, MoveHandleAcrossEdge(hid, end=1, sign=-1, side="left"))
        assert format_word(s2.handles[0].coreloop) == "s2"


class TestBridgeAndTransfer:
    def crossed_circles(self):
        # two circles with far labels crossing twice
        s = surf(mk(loops=(FloatingLoop(1, 1), FloatingLoop(3, 1))))
        s, _ = apply_move(s, CIR2Bootstrap(0, 1))
        return s

    def collect(self, s, hid, x_dart):
        # bridge, pull the crossing through, then restore a clean span
        s, _ = apply_move(s, Bridge(hid, x_dart))
        s, _ = apply_move(s, CrossingTransfer(x_dart, hid))
        h = next(h for h in s.handles if h.id == hid)
        u1, u2 = h.feet
        emap = {d: e for e in s.chart.edges for d in e.darts}
        if emap[u1] is not emap[u2]:
            s, _ = apply_move(s, CIM2Reconnect(u1, u2))
        return s

    def test_transfer_collects_one_crossing_per_handle(self):
        s = self.crossed_circles()
        for _ in range(2):
            s, _ = apply_move(s, AttachTrivialHandle(cocore_label=1))
            hid = s.handles[-1].id
            x_dart = next(d for v in s.chart.vertices if v.kind == "crossing"
                          for d in v.cycle[:1])
            s = self.collect(s, hid, x_dart)
        st = chart_stats(s.chart)
        assert st.c == 0
        decos = set()
        for h in s.handles:
            cocore = derived_cocore(s, h.id)
            assert cocore is not None
            decos.add((format_word(cocore), format_word(h.coreloop)))
        cocores = {a for a, _ in decos}
        cores = sorted(b for _, b in decos)
        assert cocores == {"s1"}
        assert cores == ["S3", "s3"]

    def test_weak_form_transfer_is_reversible(self):
        s = self.crossed_circles()
        s1, _ = apply_move(s, AttachTrivialHandle(cocore_label=1))
        hid = s1.handles[-1].id
        x_dart = next(d for v in s1.chart.vertices if v.kind == "crossing"
                      for d in v.cycle[:1])
        s2, inv_b = apply_move(s1, Bridge(hid, x_dart))
        s3, inv_t = apply_move(s2, CrossingTransfer(x_dart, hid))
        s4, _ = apply_move(s3, inv_t)
        assert surfaces_equal(s4, s2)
        s5, _ = apply_move(s4, inv_b)
        assert surfaces_equal(s5, s1)


class TestHandleAbsorption:
    def test_slide_cancels_paired_decorations(self):
        bt = TestBridgeAndTransfer()
        s = bt.crossed_circles()
        for _ in range(2):
            s, _ = apply_move(s, AttachTrivialHandle(cocore_label=1))
            hid = s.handles[-1].id
            x_dart = next(d for v in s.chart.vertices if v.kind == "crossing"
                          for d in v.cycle[:1])
            s = bt.collect(s, hid, x_dart)
        k, l = (h.id for h in s.handles)
        s2, inv = apply_move(s, HandleSlideDecorated(k, l, "A"))
        assert format_word(s2.handles[0].coreloop) == "e"
        assert s2.handles[1].feet is None
        s3, _ = apply_move(s2, RotateTrivialHandleDecoration(l, "cw"))
        got = {(format_word(derived_cocore(s3, h.id)),
                format_word(h.coreloop)) for h in s3.handles}
        assert got == {("s1", "e"), ("S3", "e")} or got == {("s1", "e"), ("s3", "e")}
        s4, _ = apply_move(s2, inv)
        assert surfaces_equal(s4, s)

    def test_handle_component_absorbs_into_a_black_edge(self):
        base = free_edge_chart(label=2)
        s, _ = apply_move(surf(base), AttachTrivialHandle(cocore_label=2))
        hid = s.handles[0].id
        s2, inv = apply_move(s, AbsorbLoopIntoFreeEdge(hid, 1))
        assert s2.handles[0].feet is None
        assert len(s2.chart.edges) == 1
        assert format_word(derived_cocore(s2, hid)) == "e"
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_convert_requires_the_other_generators(self):
        s, _ = apply_move(empty_surface(4), AttachTrivialHandle(cocore_label=1))
        hid = s.handles[0].id
        with pytest.raises(MissingGeneratorHandles):
            apply_move(s, ConvertViaGeneratorSet(hid, 3))
        for lab in (2, 3):
            s, _ = apply_move(s, AttachTrivialHandle(cocore_label=lab))
        s2, _ = apply_move(s, ConvertViaGeneratorSet(hid, 3, -1))
        assert format_word(derived_cocore(s2, hid)) == "S3"

    def test_free_edge_relabel_needs_generator_handles(self):
        s = surf(free_edge_chart(label=1))
        with pytest.raises(MissingGeneratorHandles):
            apply_move(s, FreeEdgeRelabel(1, 3))
        for lab in (1, 2, 3):
            s, _ = apply_move(s, AttachTrivialHandle(cocore_label=lab))
        s2, inv = apply_move(s, FreeEdgeRelabel(1, 3))
        assert surface_map(s2.chart).edge_at[1].label == 3
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_slide_end_is_a_validated_no_op(self):
        s = surf(free_edge_chart(label=1))
        s2, _ = apply_move(s, SlideEndAlongEdge(1, 2))
        assert surfaces_equal(s2, s)
        with pytest.raises(SiteMismatch):
            apply_move(s, SlideEndAlongEdge(99, 1))

    def test_orientation_reversal_aid_round_trips_and_certifies(self):
        s = surf(white_spider())
        s2, inv = apply_move(s, OrientationReversalAid(1))
        assert s2.chart.genus == 1
        assert [(h.feet, h.coreloop.letters) for h in s2.handles] == [(None, ())]
        before = {e.darts: e.head for e in s.chart.edges}
        after = {e.darts: e.head for e in s2.chart.edges}
        assert before.keys() == after.keys()
        assert all(after[d] != head for d, head in before.items())
        assert surfaces_equal(apply_move(s2, inv)[0], s)
        trace = parse_script("move reverseaid dart=1\n", s)
        assert trace.steps == (OrientationReversalAid(1),)
        res = certify_trace(trace)
        assert res.ok
        assert surfaces_equal(res.final, s2)
        with pytest.raises(SiteMismatch):
            apply_move(s, OrientationReversalAid(7))

    def test_orientation_reversal_aid_needs_free_strands(self):
        # sweep a far-labelled free end across one of the spider's strands
        spider = white_spider(degree=5)
        ch = mk(degree=5,
                vertices=(*spider.vertices, Vertex("black", (13,)), Vertex("black", (14,))),
                edges=(*spider.edges, Edge((13, 14), 4, 14)))
        s, _ = apply_move(surf(ch), CIISweep(13, 7))
        with pytest.raises(SiteMismatch, match="end freely"):
            apply_move(s, OrientationReversalAid(1))


class TestSurfacesEqual:
    def base(self):
        s, _ = apply_move(surf(free_edge_chart(label=1)), AttachTrivialHandle(cocore_label=3))
        return s

    def test_renamed_darts_and_ids_are_equal(self):
        s = self.base()
        shift = {d: d + 100 for d in surface_map(s.chart).darts}
        ch = s.chart
        renamed = mk(
            vertices=[Vertex(v.kind, tuple(shift[d] for d in v.cycle)) for v in ch.vertices],
            edges=[Edge(tuple(shift[d] for d in e.darts), e.label, shift[e.head])
                   for e in ch.edges],
            genus=ch.genus,
        )
        h = s.handles[0]
        moved = replace(h, id=7, feet=tuple(shift[d] for d in h.feet))
        assert surfaces_equal(surf(renamed, [moved]), s)

    def test_a_different_chart_is_unequal(self):
        s = self.base()
        other, _ = apply_move(s, CIM1Add(2, 1))
        assert not surfaces_equal(other, s)
        assert not surfaces_equal(s, other)

    def test_handles_that_differ_are_unequal(self):
        s = self.base()
        h = s.handles[0]
        for other in (
            replace(h, feet=tuple(reversed(h.feet))),
            replace(h, coreloop=BraidWord(4, (1,))),
            replace(h, mn=(1, 0)),
        ):
            assert not surfaces_equal(DecoratedSurface(s.chart, (other,)), s), other

    @pytest.mark.xfail(
        strict=True,
        reason="canonical_dart_map roots cycles at their least dart, so a "
        "renaming that reorders darts changes the key (ROADMAP item 5)",
    )
    def test_a_dart_shuffle_is_equal(self):
        ch = generate_blackless_chart(4, 12, random.Random(1))
        darts = sorted(surface_map(ch).darts)
        shuffled = list(darts)
        random.Random(5).shuffle(shuffled)
        to = dict(zip(darts, shuffled))
        renamed = mk(
            vertices=[Vertex(v.kind, tuple(to[d] for d in v.cycle)) for v in ch.vertices],
            edges=[Edge(tuple(to[d] for d in e.darts), e.label, to[e.head])
                   for e in ch.edges],
            loops=ch.loops,
        )
        assert_valid(renamed)
        assert surfaces_equal(surf(renamed), surf(ch))


class TestMoveTable:
    """Random legal moves: validity, the stats-delta table, reversibility."""

    def test_random_moves_respect_the_delta_table(self):
        rng = random.Random(11)
        checked = 0
        for seed in range(6):
            gen = random.Random(seed)
            ch = generate_blackless_chart(4, 5 + 2 * seed, gen)
            assert_valid(ch)
            s = surf(ch)
            moves = enumerate_chart_moves(s)
            if len(moves) > 40:
                moves = rng.sample(moves, 40)
            before = chart_stats(s.chart)
            for mv in moves:
                s2, inv = apply_move(s, mv)
                assert_valid(s2.chart)
                after = chart_stats(s2.chart)
                assert after.b == before.b
                dw = after.w - before.w
                dc = after.c - before.c
                diffs = {k: after.c_alg_matrix.get(k, 0) - v
                         for k, v in before.c_alg_matrix.items()
                         if after.c_alg_matrix.get(k, 0) != v}
                diffs.update({k: v for k, v in after.c_alg_matrix.items()
                              if k not in before.c_alg_matrix and v != 0})
                if isinstance(mv, (CIM1Add, CIM1Erase, CIM2Split,
                                   CIM2Absorb, CIM2Reconnect)):
                    assert (dw, dc, diffs) == (0, 0, {})
                elif isinstance(mv, (CIR2Insert, CIR2Bootstrap)):
                    assert (dw, dc, diffs) == (0, 2, {})
                elif isinstance(mv, CIR2Straighten):
                    assert (dw, dc, diffs) == (0, -2, {})
                elif isinstance(mv, CIISweep):
                    assert (dw, dc) == (0, 1)
                    assert len(diffs) == 1
                    assert abs(next(iter(diffs.values()))) == 1
                elif isinstance(mv, CIIRetract):
                    assert (dw, dc) == (0, -1)
                elif isinstance(mv, CIIIEliminate):
                    assert (dw, dc, diffs) == (-1, 0, {})
                elif isinstance(mv, CIM3Bootstrap):
                    assert (dw, dc, diffs) == (2, 0, {})
                elif isinstance(mv, CIM3Cancel):
                    assert (dw, dc, diffs) == (-2, 0, {})
                s3, _ = apply_move(s2, inv)
                assert surfaces_equal(s3, s), type(mv).__name__
                checked += 1
        assert checked >= 60


    def test_apply_move_refuses_a_non_move(self):
        with pytest.raises(TypeError, match="not a move"):
            apply_move(empty_surface(4), (1, 2))


class TestUnbraidWeak:
    def test_empty_chart_needs_no_handles(self):
        s = empty_surface(4)
        final, count, trace = unbraid_without_branch(s)
        assert count == 0
        assert trace.steps == ()
        assert certify_trace(trace).ok

    def test_rejects_black_vertices(self):
        with pytest.raises(HasBlackVertices):
            unbraid_without_branch(surf(free_edge_chart()))

    def test_contractible_records_are_erased(self):
        ch = mk(loops=(FloatingLoop(1, 1), FloatingLoop(2, -1)))
        final, count, trace = unbraid_without_branch(surf(ch))
        assert count == 0
        assert final.chart.loops == ()
        assert certify_trace(trace).ok

    def test_pinned_record_rides_a_generator_handle(self):
        ch = mk(genus=1, loops=(FloatingLoop(2, 1, pinned=True),))
        final, count, trace = unbraid_without_branch(surf(ch))
        assert count == 1
        assert final.chart.loops == ()
        assert format_word(derived_cocore(final, final.handles[0].id)) == "s2"
        assert certify_trace(trace).ok

    def test_crossed_circles_need_two_handles(self):
        ch = mk(loops=(FloatingLoop(1, 1), FloatingLoop(3, 1)))
        s = surf(ch)
        s, _ = apply_move(s, CIR2Bootstrap(0, 1))
        final, count, trace = unbraid_without_branch(s)
        st = chart_stats(s.chart)
        assert count == 2
        assert count <= st.w + 2 * st.c + 3
        assert certify_trace(trace).ok

    def test_white_pair_cancels_without_handles(self):
        s = TestWhitePair().quintet()
        s, _ = apply_move(s, CIM3Bootstrap(1, 2, (0, 1, 2, 3, 4)))
        final, count, trace = unbraid_without_branch(s)
        assert count == 0
        assert chart_stats(final.chart).w == 0
        assert certify_trace(trace).ok

    def test_random_charts_within_bound(self):
        for seed in range(10):
            rng = random.Random(100 + seed)
            ch = generate_blackless_chart(4, 5 + (seed * 5) % 26, rng)
            st = chart_stats(ch)
            final, count, trace = unbraid_without_branch(surf(ch))
            bound = st.w + 2 * st.c + 3
            assert count <= bound, (seed, count, bound)
            res = certify_trace(trace)
            assert res.ok, (seed, res.step, res.reason)

    def test_strong_mode_trivializes_coreloops(self):
        ch = mk(loops=(FloatingLoop(1, 1), FloatingLoop(3, 1)))
        s = surf(ch)
        s, _ = apply_move(s, CIR2Bootstrap(0, 1))
        final, count, trace = unbraid_without_branch(s, mode="strong")
        assert count >= 2
        for h in final.handles:
            assert format_word(h.coreloop) == "e"
        assert certify_trace(trace).ok


class TestUnbraidBranch:
    def test_free_edge_is_already_unknotted(self):
        s = surf(free_edge_chart())
        final, count, trace = unbraid_with_branch(s)
        assert count == 0
        assert trace.steps == ()
        assert certify_trace(trace).ok

    def test_spider_unknots_by_elimination_alone(self):
        s = surf(white_spider(rotation=2))
        final, count, trace = unbraid_with_branch(s)
        assert count == 0
        assert chart_stats(final.chart).w == 0
        assert certify_trace(trace).ok

    def test_blackless_input_delegates(self):
        ch = mk(loops=(FloatingLoop(2, 1),))
        final, count, trace = unbraid_with_branch(surf(ch))
        assert count == 0
        assert final.chart.loops == ()
        assert certify_trace(trace).ok

    def test_a_loop_letter_with_no_free_end_of_its_label_stays(self):
        # four lone black ends of label 1, and a footless handle carrying s2
        s = surf(mk(degree=3, vertices=(
            Vertex("black", (1,)), Vertex("black", (2,)),
            Vertex("black", (3,)), Vertex("black", (4,)),
        ), edges=(Edge((1, 2), 1, 2), Edge((3, 4), 1, 4))))
        s = _attached(s, AttachTrivialHandle(), CIM1Add(2, 1), MoveHandleAcrossEdge(1, loop=0))
        final, count, trace = unbraid_with_branch(s)
        assert (count, trace.steps) == (0, ())
        assert final.handles[0].coreloop.letters == (2,)
        assert certify_trace(trace).ok


class TestRepeatedPattern:
    def handle(self):
        return AttachedHandle(1, BraidWord(2), None, mn=(1, 0))

    def test_rejects_map_structure(self):
        s = surf(free_edge_chart(degree=2), (self.handle(),))
        with pytest.raises(NotRepeatedPattern):
            unbraid_repeated_pattern(s)

    def test_adjacent_opposite_senses_cancel(self):
        ch = mk(degree=2, pattern_loops=(PatternLoop(1, 1), PatternLoop(2, -1)))
        s = surf(ch, (self.handle(),))
        final, trace = unbraid_repeated_pattern(s)
        assert final.chart.pattern_loops == ()
        assert final.handles[0].mn == (1, 0)
        assert "handle-mn=1,0" in trace.claims
        assert certify_trace(trace).ok

    def test_single_curve_gives_odd_residue(self):
        ch = mk(degree=2, pattern_loops=(PatternLoop(1, 1),))
        s = surf(ch, (self.handle(),))
        final, trace = unbraid_repeated_pattern(s)
        assert final.handles[0].mn == (1, 1)
        assert "handle-mn=1,1" in trace.claims
        assert certify_trace(trace).ok

    def test_two_like_senses_untwist(self):
        ch = mk(degree=2, pattern_loops=(PatternLoop(1, 1), PatternLoop(2, 1)))
        s = surf(ch, (self.handle(),))
        final, trace = unbraid_repeated_pattern(s)
        assert final.handles[0].mn == (1, 0)
        assert any(isinstance(mv, PatternTwist) for mv in trace.steps)
        assert certify_trace(trace).ok

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(-12, 13) for n in range(-12, 13)])
    def test_every_coil_ends_in_its_documented_representative(self, m, n):
        s = surf(mk(degree=2), (AttachedHandle(1, BraidWord(2), None, mn=(m, n)),))
        final, trace = unbraid_repeated_pattern(s)
        want = (m, n % (2 * abs(m)) if m else n)
        assert final.handles[0].mn == want
        assert len(trace.steps) == (abs(n - want[1]) // (2 * abs(m)) if m else 0)
        assert trace.claims == ("empty", f"handle-mn={want[0]},{want[1]}")
        assert certify_trace(trace).ok


class TestCertification:
    def test_tampered_step_is_reported_by_index(self):
        ch = mk(loops=(FloatingLoop(1, 1),))
        s = surf(ch)
        final, count, trace = unbraid_without_branch(s)
        bad = trace.replace_steps(trace.steps + (CIM1Erase(5),))
        res = certify_trace(bad)
        assert not res.ok
        assert res.step == len(trace.steps)

    @pytest.mark.parametrize("claim, ok", [
        ("added-handles=1", True),
        ("added-handles=0", False),
        ("handle-count<=0", False),
    ])
    def test_the_orientation_aid_counts_as_an_attached_handle(self, claim, ok):
        s = surf(white_spider())
        trace = parse_script(f"move reverseaid dart=1\nclaim {claim}\n", s)
        res = certify_trace(trace)
        assert res.ok is ok, res.reason
        if not ok:
            assert res.reason == f"claim {claim}: 1 handles were attached"

    def test_the_attaching_steps_are_counted_only_for_a_count_claim(
        self, monkeypatch
    ):
        s = surf(white_spider())
        text = "move reverseaid dart=1\n"
        res = certify_trace(parse_script(text, s).replace_claims(("added-handles=one",)))
        assert (res.ok, res.step, res.reason) == (
            False, None, "claim added-handles=one: expected added-handles=<integer>")
        # isinstance refuses a non-class, so counting the steps would raise
        monkeypatch.setattr(engine, "_ATTACHING", None)
        assert certify_trace(parse_script(text + "claim weak-forms\n", s)).ok
        with pytest.raises(TypeError):
            certify_trace(parse_script(text + "claim weak-forms\nclaim added-handles=1\n", s))

    def test_false_claim_fails(self):
        s = surf(white_spider())
        final, count, trace = unbraid_with_branch(s)
        bad = trace.replace_claims(("empty",))
        res = certify_trace(bad)
        assert not res.ok
        assert res.step is None
        assert "empty" in res.reason


class TestScripts:
    def test_round_trip_through_text(self):
        s = empty_surface(4)
        text = ("move attach cocore=s1\n"
                "move rotate handle=1 dir=cw\n"
                "claim unknotted\n")
        trace = parse_script(text, s)
        assert len(trace.steps) == 2
        assert certify_trace(trace).ok
        assert parse_script(format_script(trace), s).steps == trace.steps

    def test_unbraider_traces_serialize(self):
        rng = random.Random(7)
        ch = generate_blackless_chart(4, 12, rng)
        s = surf(ch)
        final, count, trace = unbraid_without_branch(s)
        text = format_script(trace)
        again = parse_script(text, s)
        assert again.steps == trace.steps
        assert again.claims == trace.claims
        assert certify_trace(again).ok

    def test_parse_reports_bad_lines(self):
        with pytest.raises(ParseError) as info:
            parse_script("move cim1add label=1 sign=+\nmove bogus x=1\n",
                         empty_surface(4))
        assert info.value.line == 2


class TestBundledFixture:
    """The packaged twist-spun trefoil chart and its unknotting script."""

    @staticmethod
    def _load():
        from importlib import resources

        from handleforge.chart import is_unknotted_chart, parse_chart

        root = resources.files("handleforge") / "data"
        ch = parse_chart((root / "twist_spun_trefoil.chart").read_text())
        assert validate_chart(ch) == []
        assert not is_unknotted_chart(ch)
        return ch, (root / "twist_spun_trefoil.script").read_text()

    def test_exactly_one_white_is_directly_eliminable(self):
        ch, _ = self._load()
        st = chart_stats(ch)
        assert (ch.degree, st.w, st.b, st.c) == (4, 6, 6, 0)
        s = surf(ch)
        sites = []
        for v in ch.vertices:
            if v.kind != "white":
                continue
            for d in v.cycle:
                try:
                    s2, _ = apply_move(s, CIIIEliminate(dart=d))
                except ValueError:
                    continue
                sites.append((d, chart_stats(s2.chart).w))
        # one live site, and firing it drops the white count by one
        assert sites == [(25, 5)]

    def test_proof_script_certifies_with_one_handle(self):
        ch, script = self._load()
        trace = parse_script(script, surf(ch))
        report = certify_trace(trace)
        assert report.ok, report
        assert trace.claims == ("unknotted", "added-handles=1",
                                "handle-deco=s3,e")


def _created_darts(before, after):
    """Darts of after's edges and vertices that before does not hold by identity."""
    old = {id(x) for x in before.edges + before.vertices}
    return [d for e in after.edges if id(e) not in old for d in e.darts] + [
        d for v in after.vertices if id(v) not in old for d in v.cycle
    ]


def _other_dart(e, dart):
    return e.darts[0] if e.darts[1] == dart else e.darts[1]


def _harness_surfaces():
    """The surfaces of the random-move acceptance harness, with its sampler."""
    rng = random.Random(70)
    root = resources.files("handleforge") / "data"
    surfaces = [surf(parse_chart((root / "twist_spun_trefoil.chart").read_text()))]
    for i in range(40):
        degree = rng.randint(2, 4)
        chart = generate_blackless_chart(degree, rng.randint(5, 25), random.Random(2000 + i))
        surfaces.append(surf(chart))
    return rng, surfaces


class TestPatchChecks:
    """apply_move checks each output on the move's patch plus the map-level
    axioms, and its handles only when they or the free ends changed; that
    must decide validity exactly as the full check of a fresh copy does."""

    @staticmethod
    def _compare_every_check(monkeypatch):
        seen = {"valid": 0, "invalid": 0}
        original = engine._check_surface

        def verdict(*args):
            try:
                original(*args)
            except SiteMismatch as exc:
                return str(exc)
            return None

        def check(s, touched=None, held=None):
            if touched is None:
                return original(s, touched, held)
            full = verdict(surf(_fresh_copy(s.chart), s.handles))
            patch = verdict(s, touched, held)
            assert patch == full
            seen["invalid" if full else "valid"] += 1
            if patch is not None:
                raise SiteMismatch(patch)

        monkeypatch.setattr(engine, "_check_surface", check)
        return seen

    def test_patch_check_matches_full_check_on_random_moves(self, monkeypatch):
        seen = self._compare_every_check(monkeypatch)
        rng, surfaces = _harness_surfaces()
        sites = random.Random(71)
        applied = 0
        for s in surfaces:
            if applied >= 1000:
                break
            offered = enumerate_chart_moves(s)
            moves = rng.sample(offered, 40) if len(offered) > 40 else offered
            for mv in moves:
                s2, inv = apply_move(s, mv)
                apply_move(s2, inv)
                applied += 1
            # inserts the enumerator does not offer: where the two edges
            # share a face but the finger would leave the plane, only the
            # map-level Euler count refuses the output
            emap, offered = surface_map(s.chart).edge_at, set(offered)
            others = [
                CIR2Insert(a, b)
                for a in emap
                for b in emap
                if a < b
                and abs(emap[a].label - emap[b].label) >= 2
                and CIR2Insert(a, b) not in offered
            ]
            for mv in sites.sample(others, min(40, len(others))):
                try:
                    apply_move(s, mv)
                except ValueError:
                    pass
        assert applied >= 1000
        assert seen["valid"] >= 2000 and seen["invalid"] >= 50, seen

    def test_patch_check_matches_full_check_while_unbraiding(self, monkeypatch):
        seen = self._compare_every_check(monkeypatch)
        rng = random.Random(60)
        for i in range(200):
            degree = rng.randint(2, 4)
            chart = generate_blackless_chart(
                degree, rng.randint(5, 30), random.Random(1000 + i)
            )
            unbraid_without_branch(surf(chart))
        assert seen["valid"] > 5000, seen

    def test_corrupted_patch_is_refused_by_both_checks(self):
        rng, surfaces = _harness_surfaces()
        pick = random.Random(72)
        refused = {"label": 0, "head": 0, "swap": 0}
        for s in surfaces[1:]:
            ch = s.chart
            moves = enumerate_chart_moves(s)
            if len(moves) > 40:
                moves = rng.sample(moves, 40)
            for mv in moves:
                out = apply_move(s, mv)[0].chart
                created = set(_created_darts(ch, out))
                at = surface_map(out).vertex_at
                # created edges between two vertices, one of them a crossing
                # or a white vertex, whose word the edge enters
                edges = [
                    k
                    for k, e in enumerate(out.edges)
                    if e.darts[0] in created
                    and at[e.darts[0]] is not at[e.darts[1]]
                    and {at[d].kind for d in e.darts} & {"crossing", "white"}
                ]
                vertices = [
                    k
                    for k, v in enumerate(out.vertices)
                    if v.kind in ("crossing", "white") and v.cycle[0] in created
                ]
                bad = []
                if edges:
                    k = pick.choice(edges)
                    e = out.edges[k]
                    # one label step, or the other orientation
                    label = e.label + 1 if e.label + 1 < ch.degree else e.label - 1
                    for kind, new in (
                        ("label", Edge(e.darts, label, e.head)),
                        ("head", Edge(e.darts, e.label, _other_dart(e, e.head))),
                    ):
                        edges2 = out.edges[:k] + (new,) + out.edges[k + 1 :]
                        bad.append((kind, replace(out, edges=edges2)))
                if vertices:
                    k = pick.choice(vertices)
                    v = out.vertices[k]
                    # two neighbouring ends trade places: another rotation
                    new = Vertex(v.kind, (v.cycle[1], v.cycle[0]) + v.cycle[2:])
                    verts2 = out.vertices[:k] + (new,) + out.vertices[k + 1 :]
                    bad.append(("swap", replace(out, vertices=verts2)))
                for kind, chart in bad:
                    assert validate_chart(chart) != [], kind
                    assert validate_chart(chart, _created_darts(ch, chart)) != [], kind
                    refused[kind] += 1
        assert min(refused.values()) >= 100, refused

    def test_apply_move_refuses_a_corrupted_output(self, monkeypatch):
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        moves = enumerate_chart_moves(s)
        insert = next(mv for mv in moves if isinstance(mv, CIR2Insert))
        reconnect = next(mv for mv in moves if isinstance(mv, CIM2Reconnect))

        def corrupting(cls, corrupt):
            honest = engine._APPLY[cls]

            def applier(s, mv):
                out, inv = honest(s, mv)
                return DecoratedSurface(corrupt(out.chart), out.handles), inv

            monkeypatch.setitem(engine._APPLY, cls, applier)

        def swap_last_vertex(ch):
            v = ch.vertices[-1]  # the second new crossing
            bad = Vertex(v.kind, (v.cycle[1], v.cycle[0]) + v.cycle[2:])
            return replace(ch, vertices=ch.vertices[:-1] + (bad,))

        def flip_last_edge(ch):
            e = ch.edges[-1]  # a new edge between two old vertices
            bad = Edge(e.darts, e.label, _other_dart(e, e.head))
            return replace(ch, edges=ch.edges[:-1] + (bad,))

        for mv, corrupt in ((insert, swap_last_vertex), (reconnect, flip_last_edge)):
            apply_move(s, mv)
            corrupting(type(mv), corrupt)
            with pytest.raises(SiteMismatch):
                apply_move(s, mv)

    def test_corrupted_records_and_handles_are_refused(self, monkeypatch):
        # each applier hands over an honest patch that names what it adds, so
        # the output carries its map and only the patch check can refuse it;
        # it must say what a full check of a fresh copy says
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        s, _ = apply_move(s, AttachTrivialHandle(cocore_label=1))
        ch, n, hid = s.chart, s.chart.degree, s.handles[0].id
        ends = surface_map(ch).ends
        strand = next(e for e in ch.edges if e.darts[0] not in ends)
        k = len(ch.loops)

        def records(rec):
            loops = ch.loops + (rec,)
            return lambda s, mv: engine._rewrite(s, (), (rec,), loops=loops)

        def patterns(rec):
            pats = ch.pattern_loops + (rec,)
            return lambda s, mv: engine._rewrite(s, (), (rec,), pattern_loops=pats)

        def handles(h):
            more = s.handles + (h,)
            return lambda s, mv: engine._rewrite(s, handles=more, genus=ch.genus + 1)

        cases = (
            (records(FloatingLoop(0, 1)), f"loop {k}: label 0 out of range 1..3"),
            (records(FloatingLoop(n, 1)), f"loop {k}: label 4 out of range 1..3"),
            (records(FloatingLoop(1, 2)), f"loop {k}: sign must be +1 or -1"),
            (
                patterns(PatternLoop(0, 1)),
                "pattern loop 0: curve index must be positive",
            ),
            (handles(AttachedHandle(hid, BraidWord(n))), f"duplicate handle id {hid}"),
            (
                handles(AttachedHandle(hid + 1, BraidWord(n + 1))),
                f"handle {hid + 1}: loop word degree mismatch",
            ),
            (
                handles(AttachedHandle(hid + 1, BraidWord(n), strand.darts)),
                "free ends and handle feet out of step",
            ),
        )
        full = chart_mod._derive
        derived = []
        monkeypatch.setattr(
            chart_mod, "_derive", lambda c: derived.append(c) or full(c)
        )
        for corrupt, want in cases:
            made = []

            def applier(s, mv, corrupt=corrupt):
                out = corrupt(s, mv)
                made.append(out)
                return out, mv

            monkeypatch.setitem(engine._APPLY, CIM1Add, applier)
            with pytest.raises(SiteMismatch) as exc:
                apply_move(s, CIM1Add(1, 1))
            assert str(exc.value) == want
            (out,) = made
            assert not any(c is out.chart for c in derived)
            fresh = surf(_fresh_copy(out.chart), out.handles)
            with pytest.raises(SiteMismatch, match=f"^{re.escape(want)}$"):
                engine._check_surface(fresh)

    def test_an_unchecked_input_is_checked_in_full(self):
        # a crossing of the adjacent labels 1 and 2, which the record move
        # below does not touch; the map itself is a planar star
        bad = mk(
            vertices=[Vertex("crossing", (1, 2, 3, 4))]
            + [Vertex("black", (d,)) for d in (5, 6, 7, 8)],
            edges=[Edge((d, d + 4), 1 + d % 2, d + 4) for d in (1, 2, 3, 4)],
        )
        assert validate_chart(bad) == [
            "vertex 0: invalid crossing word, need far labels in opposite-sign"
            " diagonal pairs"
        ]
        with pytest.raises(SiteMismatch):
            apply_move(surf(bad), CIM1Add(1, 1))


class TestCertifyInitialState:
    def test_invalid_initial_chart_is_refused_before_replay(self):
        bad = Chart(4, 0, (Vertex("white", (1,)),), (Edge((1, 2), 1, 2),))
        trace = EngineTrace(DecoratedSurface(bad, ()), (), ("handle-count<=0",))
        res = certify_trace(trace)
        assert not res.ok
        assert res.step is None
        assert "dart 2 appears only on the edge side" in res.reason

    def test_surface_checks_apply_to_the_initial_state(self):
        feet = AttachedHandle(1, BraidWord(4), (1, 2), None)
        trace = EngineTrace(surf(mk(), (feet,)), (), ())
        res = certify_trace(trace)
        assert not res.ok and res.step is None
        assert "free ends and handle feet" in res.reason


class TestGenerator:
    # sha256 of format_chart for the first five charts of the blackless
    # acceptance run (degree and steps drawn from Random(60)) and for
    # (4, 80, Random(1)), as made when every step listed all insert sites
    PINNED = (
        (3, 14, 1000, "26803d85945c3a14e6fe05e1ebee7a4d9db70e0f3c785237259ff7ecc27e0ab2"),
        (4, 9, 1001, "7c343ff57ded466f9f46e1417c103f6a6f646d1de4a0071fd9a3ceacec605130"),
        (3, 12, 1002, "0ad61ea97f6937bc0598d46bafa245fd1105b1f5d1a95ef71cd2591156288ead"),
        (3, 19, 1003, "7920d633d5c0e0b6cf163463545ade405e03bb69cdfa6db3bf948b5a61d8b527"),
        (3, 6, 1004, "fd1ac2030df398be861d1979a4b0b935c6939eeb0794bc1779533c878118cb9f"),
        (4, 80, 1, "37f0e3d251636eef0b5dfd12a68a69212712c020b3226ee29dbde5214719fbd8"),
    )

    def test_seeded_charts_are_unchanged(self):
        rng = random.Random(60)
        assert [(rng.randint(2, 4), rng.randint(5, 30)) for _ in range(5)] == [
            (degree, steps) for degree, steps, _, _ in self.PINNED[:5]
        ]
        for degree, steps, seed, digest in self.PINNED:
            chart = generate_blackless_chart(degree, steps, random.Random(seed))
            text = format_chart(chart).encode()
            assert hashlib.sha256(text).hexdigest() == digest, (degree, steps, seed)

    # the first 20 hex digits of sha256 over format_chart(canonical_chart(c))
    # for c = generate_blackless_chart(4, steps, Random(1)), as made when
    # every insert step listed all its sites
    LARGE = ((80, "37f0e3d251636eef0b5d"), (160, "ef9fca2c70bb40c51636"),
             (320, "cfdd3ec66d3dec08c4de"))

    def test_large_seeded_charts_are_unchanged(self):
        for steps, digest in self.LARGE:
            chart = generate_blackless_chart(4, steps, random.Random(1))
            text = format_chart(canonical_chart(chart)).encode()
            assert hashlib.sha256(text).hexdigest()[:20] == digest, steps

    def test_counted_insert_sites_are_the_listed_ones(self, monkeypatch):
        # at every step of a seeded run that draws an insert, the counted
        # sites are as many as the listed ones and equal at the positions
        # probed, and a run that draws from the list makes the same chart
        counted = engine._InsertSites
        probe = random.Random(7)
        seen = {"draws": 0, "sites": 0}

        def listed(m, degree):
            want = _listed_insert_sites(m)
            got = counted(m, degree)
            assert len(got) == len(want) > 0
            picks = probe.sample(range(len(want)), min(5, len(want)))
            for k in {0, len(want) - 1, *picks}:
                assert got[k] == want[k]
            with pytest.raises(IndexError):
                got[len(want)]
            seen["draws"] += 1
            seen["sites"] += len(want)
            return want

        rng = random.Random(14)
        runs = [(rng.randint(2, 5), rng.randint(5, 80), 3000 + i) for i in range(200)]
        made = [generate_blackless_chart(d, n, random.Random(seed)) for d, n, seed in runs]
        monkeypatch.setattr(engine, "_InsertSites", listed)
        for (degree, steps, seed), chart in zip(runs, made):
            again = generate_blackless_chart(degree, steps, random.Random(seed))
            assert again == chart, (degree, steps, seed)
        assert seen["draws"] > 500 and seen["sites"] > 10**6, seen

    def test_site_counts_that_disagree_with_the_map_are_a_fault(self, monkeypatch):
        # an insert test that refuses every site across two components,
        # which the counts include, leaves the scan short of the site drawn
        planar = engine._planar_insert
        monkeypatch.setattr(engine, "_planar_insert", lambda m, a, pa, b: (
            m.comp.get(a) == m.comp.get(b) and planar(m, a, pa, b)))
        with pytest.raises(AssertionError) as exc:
            generate_blackless_chart(4, 40, random.Random(0))
        assert str(exc.value) == "the site counts disagree with the map"


def _listed_insert_sites(m):
    """Every CIR2Insert site (a, b) with a < b of the map m, listed in dart
    pair order: the list the generator drew from before it counted them."""
    emap, darts = m.edge_at, m.darts
    return [
        (a, b)
        for ai, a in enumerate(darts)
        for b in darts[ai + 1 :]
        if emap[a] is not emap[b]
        and abs(emap[a].label - emap[b].label) >= 2
        and engine._planar_insert(m, a, engine._other(emap[a], a), b)
    ]


class TestPinnedTraces:
    # sha256 of format_script for traces made when every move derived its
    # output's map in full; carrying the map must not change one move
    PINNED = (
        (40, "weak", "877f6c7be1fc9799e31decbd7935365083a568b70f3be5143ae4b873c550ec80"),
        (40, "strong", "e36bb8002dc21b57588b4f8c1af9b90c51434d18eb4d150fbe65cfc16c83e8d9"),
        (80, "weak", "9ea5295bf1f5f8f49332304f4414e30237066b666d33bb97330bae205e0af14f"),
        (80, "strong", "97b3056151463ca61fa5fd343b259899474cf779b292135af781b30ff8812375"),
    )
    BRANCH = "faa4dfac6755e3c2010722cde9bc439583c9fd7f5d09fec2660e556e899fdbdb"
    BRANCH_CROSSING = "adc32068f59aab93d1e308145ccb6b471a95d621f9a0cdabaad9da7dc97621d3"

    @staticmethod
    def _digest(trace):
        return hashlib.sha256(format_script(trace).encode()).hexdigest()

    def test_blackless_traces_are_unchanged(self):
        for steps, mode, digest in self.PINNED:
            chart = generate_blackless_chart(4, steps, random.Random(1))
            _, _, trace = unbraid_without_branch(surf(chart), mode)
            assert self._digest(trace) == digest, (steps, mode)

    def test_branch_trace_of_the_bundled_chart_is_unchanged(self):
        root = resources.files("handleforge") / "data"
        chart = parse_chart((root / "twist_spun_trefoil.chart").read_text())
        _, handles, trace = unbraid_with_branch(surf(chart))
        assert (handles, len(trace.steps)) == (0, 22)
        assert self._digest(trace) == self.BRANCH

    def test_branch_mode_collects_a_crossing_and_drains_its_handle(self):
        # one crossing made by sweeping a black end across a far strand
        ch = mk(vertices=[Vertex("black", (d,)) for d in range(1, 9)],
                edges=(Edge((1, 2), 1, 2), Edge((3, 4), 3, 4),
                       Edge((5, 6), 3, 6), Edge((7, 8), 2, 8)))
        s, _ = apply_move(surf(ch), CIISweep(1, 3))
        final, handles, trace = unbraid_with_branch(s)
        assert [type(mv) for mv in trace.steps] == [
            AttachTrivialHandle, Bridge, CrossingTransfer, CIM2Reconnect,
            MoveHandleAcrossEdge, AbsorbLoopIntoFreeEdge,
        ]
        assert handles == 1
        assert [(h.feet, h.coreloop.letters) for h in final.handles] == [(None, ())]
        assert certify_trace(trace).ok
        assert self._digest(trace) == self.BRANCH_CROSSING


def _old_planar_reconnect(m, a, pa, b, pb):
    """The reconnect rule of the earlier enumeration: both transpositions
    (a pb) and (b pa) must split a face."""
    if m.comp.get(a) != m.comp.get(b):
        return True
    f = m.face_at[a]
    if m.face_at[pb] is not f:
        return False
    span = (f.index(a) - f.index(pb)) % len(f)

    def piece_x(d):
        return 0 < (f.index(d) - f.index(pb)) % len(f) <= span

    in_f_b, in_f_pa = m.face_at[b] is f, m.face_at[pa] is f
    if in_f_b and in_f_pa:
        return piece_x(b) == piece_x(pa)
    if in_f_b or in_f_pa:
        return False
    return m.face_at[b] is m.face_at[pa]


def _offered_before(s, moves):
    """The moves the earlier enumeration offered, which listed an insert
    only for a dart pair in dart order and a reconnect only under
    _old_planar_reconnect."""
    m = surface_map(s.chart)
    rank = {d: k for k, d in enumerate(m.darts)}
    for mv in moves:
        if isinstance(mv, CIR2Insert) and rank[mv.a] > rank[mv.b]:
            continue
        if isinstance(mv, CIM2Reconnect):
            pa = engine._other(m.edge_at[mv.a], mv.a)
            pb = engine._other(m.edge_at[mv.b], mv.b)
            if not _old_planar_reconnect(m, mv.a, pa, mv.b, pb):
                continue
        yield mv


def _pin(moves):
    moves = list(moves)
    return len(moves), hashlib.sha256(repr(moves).encode()).hexdigest()


class TestPinnedEnumeration:
    # (count, sha256 of repr(enumerate_chart_moves(...))) now, and as offered
    # when inserts were listed for one dart order and reconnects only when
    # both face transpositions split; the earlier list is a subsequence
    PINNED = (
        (4, 30, 3, (5074, "a0b9e1cfbc4e3fb550e4222fe3e244715c6199897edd653dcdf013deba5a659d"),
         (3449, "9fd294e71edec411b2f2a65b3b876da863225579648c313ef0115c6f2d9f69a6")),
        (3, 20, 5, (1457, "0d812a88bf4aa2daaf9b006eb0b295093132743af50212a9a3d97d702dca992a"),
         (1457, "0d812a88bf4aa2daaf9b006eb0b295093132743af50212a9a3d97d702dca992a")),
    )
    BUNDLED = (
        (65, "159732db2ae07f1d45917debb954103193ec35add88129b516511eb8e38bb765"),
        (59, "fe12423aa0ae55c89b8a9643c922343b43be0bcfe09f134b7f6d15423082108a"),
    )

    @staticmethod
    def _pins(chart):
        s = surf(chart)
        moves = enumerate_chart_moves(s)
        return _pin(moves), _pin(_offered_before(s, moves))

    def test_generated_charts_offer_the_same_moves(self):
        for degree, steps, seed, now, before in self.PINNED:
            chart = generate_blackless_chart(degree, steps, random.Random(seed))
            assert self._pins(chart) == (now, before), (degree, steps, seed)

    def test_the_bundled_chart_offers_the_same_moves(self):
        root = resources.files("handleforge") / "data"
        chart = parse_chart((root / "twist_spun_trefoil.chart").read_text())
        assert self._pins(chart) == self.BUNDLED


class TestEnumeratedOutputs:
    """On genus-0 charts, the reconnects and inserts enumerate_chart_moves
    offers make exactly the outputs apply_move accepts from any dart pair."""

    def _check(self, chart):
        s = surf(chart)
        m = surface_map(chart)
        made = {}
        for a in m.darts:
            for b in m.darts:
                ea, eb = m.edge_at[a], m.edge_at[b]
                if ea is eb:
                    continue
                if abs(ea.label - eb.label) >= 2:
                    mv = CIR2Insert(a, b)
                elif ea.label == eb.label and (ea.head == a) != (eb.head == b):
                    mv = CIM2Reconnect(a, b)
                else:
                    continue
                try:
                    out, _ = apply_move(s, mv)
                except ValueError:
                    continue
                made[mv] = (type(mv), canonical_chart(out.chart))
        offered = [mv for mv in enumerate_chart_moves(s)
                   if isinstance(mv, (CIM2Reconnect, CIR2Insert))]
        assert [mv for mv in offered if mv not in made] == []
        assert {made[mv] for mv in offered} == set(made.values())

    @pytest.mark.parametrize("degree,steps,seed", [
        *((4, 12, k) for k in range(6)), (3, 10, 9), (4, 25, 7),
    ])
    def test_generated_charts(self, degree, steps, seed):
        self._check(generate_blackless_chart(degree, steps, random.Random(seed)))

    def test_the_bundled_chart(self):
        root = resources.files("handleforge") / "data"
        self._check(parse_chart((root / "twist_spun_trefoil.chart").read_text()))


BENCH_CHARTS = Path(__file__).resolve().parents[1] / "bench" / "data"


def _fresh_copy(chart):
    """The same chart as a new value, which derives its map in full."""
    return Chart(chart.degree, chart.genus, chart.vertices, chart.edges,
                 chart.loops, chart.pattern_loops)


def _map_key(m):
    """A map as plain data: dart tables, faces as a set of walks and their
    count, and components as a partition of darts with their sizes."""
    parts = {}
    for d, k in m.comp.items():
        parts.setdefault(k, set()).add(d)
    assert set(parts) == set(m.size)
    comps = {frozenset(p): m.size[k] for k, p in parts.items()}
    return (
        m.alpha, m.sigma, m.edge_at, m.vertex_at, m.face_at,
        set(m.face_at.values()), m.nfaces, comps, m.ends,
    )


class TestCarriedMap:
    """apply_move carries the input's map through the move's patch; the
    carried map must be the map a full derivation of the output finds."""

    @staticmethod
    def _compare_every_output(monkeypatch):
        seen = {"carried": 0}
        original = engine._check_surface

        def check(s, touched=None, held=None):
            original(s, touched, held)
            out, m = chart_mod._derived(s.chart)
            fout, fm = chart_mod._derive(_fresh_copy(s.chart))
            assert out == fout
            assert _map_key(m) == _map_key(fm)
            # the carried ranks order the vertex and edge tuples
            ch = s.chart
            assert len(m.rank) == len(ch.vertices) + len(ch.edges)
            for items, kept in ((ch.vertices, m.vranks), (ch.edges, m.eranks)):
                ranks = [m.rank[id(x)] for x in items]
                assert ranks == sorted(set(ranks)) and all(r < m.top for r in ranks)
                assert kept == tuple(ranks)
            # the next component key and the largest dart kept in the map
            assert all(k < m.key for k in m.size)
            assert m.last == max(m.alpha, default=0)
            seen["carried"] += touched is not None

        monkeypatch.setattr(engine, "_check_surface", check)
        return seen

    def test_carried_map_equals_a_full_derivation(self, monkeypatch):
        seen = self._compare_every_output(monkeypatch)
        rng = random.Random(60)
        charts = [
            generate_blackless_chart(rng.randint(2, 4), rng.randint(5, 30),
                                     random.Random(1000 + i))
            for i in range(30)
        ]
        charts += [
            parse_chart((BENCH_CHARTS / f"unbraid_v{n}.chart").read_text())
            for n in (52, 106)
        ]
        for chart in charts:
            for mode in ("weak", "strong"):
                _, _, trace = unbraid_without_branch(surf(chart), mode)
                assert certify_trace(trace).ok
        root = resources.files("handleforge") / "data"
        bundled = parse_chart((root / "twist_spun_trefoil.chart").read_text())
        _, _, trace = unbraid_with_branch(surf(bundled))
        assert certify_trace(trace).ok
        script = parse_script((root / "twist_spun_trefoil.script").read_text(),
                              surf(bundled))
        assert certify_trace(script).ok
        assert seen["carried"] > 8000, seen

    def test_one_full_derivation_per_unbraid_and_certify(self, monkeypatch):
        calls = []
        full = chart_mod._derive

        def counting(chart):
            calls.append(chart)
            return full(chart)

        monkeypatch.setattr(chart_mod, "_derive", counting)
        chart = parse_chart((BENCH_CHARTS / "unbraid_v106.chart").read_text())
        s = surf(chart)
        final, _, trace = unbraid_without_branch(s, "weak")
        parsed = parse_script(format_script(trace), s)
        assert certify_trace(parsed).ok
        assert len(trace.steps) == 381
        assert calls == [chart]
        # a run hands its final surface back without the map, a cache that
        # the next use derives again
        surface_map(final.chart)
        assert calls == [chart, final.chart]

    def test_moves_that_keep_the_graph_share_the_map(self):
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        m = surface_map(s.chart)
        added, _ = apply_move(s, CIM1Add(1, 1))
        assert surface_map(added.chart) is m
        erased, _ = apply_move(added, CIM1Erase(len(added.chart.loops) - 1))
        assert surface_map(erased.chart) is m


class TestRecordOnlyPatch:
    """A rewrite that removes and makes no Edge or Vertex hands over its
    input's map itself, and is checked on the records it names, the genus
    bound and, when they changed, the handles."""

    def test_the_output_shares_its_inputs_map(self):
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        m = surface_map(s.chart)
        e = min(s.chart.edges, key=lambda e: e.darts)
        k = len(s.chart.loops)
        # None stands for the inverse of the move before it
        steps = [
            CIM1Add(1, 1),
            CIM2Split(e.darts[0], -1),
            None,
            AttachTrivialHandle(),
            MoveHandleAcrossEdge(1, loop=k),
            None,
            CIM1Erase(k),
            DetachTrivialHandle(1),
        ]
        inv = None
        for mv in steps:
            s, inv = apply_move(s, mv or inv)
            assert surface_map(s.chart) is m, mv or inv
        assert len(s.chart.loops) == k and s.chart.genus == 0 and not s.handles
        pats = surf(mk(pattern_loops=(PatternLoop(1, 1), PatternLoop(2, -1))))
        out, _ = apply_move(pats, PatternCancel(0))
        assert surface_map(out.chart) is surface_map(pats.chart)

    def test_a_genus_only_rewrite_below_the_component_genus_is_refused(self):
        # two circles crossing once: a map of genus 1, declared genus 1,
        # with a footless handle whose detach would declare genus 0
        torus = mk(
            genus=1,
            vertices=(Vertex("crossing", (1, 2, 3, 4)),),
            edges=(Edge((1, 3), 1, 3), Edge((2, 4), 3, 4)),
        )
        s = surf(torus, (AttachedHandle(1, BraidWord(4)),))
        want = "total component genus 1 exceeds declared genus 0"
        assert validate_chart(replace(torus, genus=0)) == [want]
        with pytest.raises(SiteMismatch, match=f"^{want}$"):
            apply_move(s, DetachTrivialHandle(1))
        assert apply_move(s, AttachTrivialHandle())[0].chart.genus == 2

    def test_a_restore_patch_with_an_unsigned_record_is_refused(self):
        s = surf(mk(pattern_loops=(PatternLoop(1, 1), PatternLoop(2, -1))))
        out, inv = apply_move(s, PatternCancel(0))
        assert type(inv) is engine._Restore and inv.before is s and inv.after is out
        bad = replace(inv, before=surf(replace(s.chart, loops=(FloatingLoop(1, 0),))))
        with pytest.raises(SiteMismatch, match=r"^loop 0: sign must be \+1 or -1$"):
            apply_move(out, bad)
        assert surfaces_equal(apply_move(out, inv)[0], s)

    def test_values_made_in_one_step_equal_the_dataclass_built_ones(self):
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        s, _ = apply_move(s, AttachTrivialHandle(cocore_label=1))
        out, _ = apply_move(s, CIM1Add(2, -1))
        ch = out.chart
        built = Chart(ch.degree, ch.genus, ch.vertices, ch.edges, ch.loops, ch.pattern_loops)
        again = DecoratedSurface(built, out.handles)
        for one, other in ((ch, built), (out, again)):
            assert type(one) is type(other)
            assert one == other and other == one
            assert hash(one) == hash(other) and repr(one) == repr(other)
        for value, name in ((ch, "genus"), (out, "handles")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert replace(ch, genus=2) == replace(built, genus=2)
        assert replace(out, handles=()) == replace(again, handles=())


class TestIncrementalPathRefusals:
    """A broken applier output that carries its patch is refused with the
    violations a full check of a fresh copy reports."""

    @staticmethod
    def _refused_like_a_fresh_copy(monkeypatch, s, mv, applier):
        made = []

        def recording(s, mv):
            out, inv = applier(s, mv)
            made.append(out)
            return out, inv

        monkeypatch.setitem(engine._APPLY, type(mv), recording)
        with pytest.raises(SiteMismatch) as exc:
            apply_move(s, mv)
        (out,) = made
        want = validate_chart(_fresh_copy(out.chart))
        assert want
        assert str(exc.value) == "; ".join(want)
        return want, out.chart

    def test_a_live_dart_reused_in_a_new_edge(self, monkeypatch):
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        mv = next(m for m in enumerate_chart_moves(s) if isinstance(m, CIM2Reconnect))
        emap = surface_map(s.chart).edge_at
        ea, eb = emap[mv.a], emap[mv.b]
        live = next(d for d in sorted(emap) if emap[d] is not ea and emap[d] is not eb)

        def applier(s, mv):
            new = (Edge((mv.a, mv.b), ea.label, mv.a), Edge((live, mv.b + 10**6), 1, live))
            return engine._rewrite(s, (ea, eb), new), mv

        want, _ = self._refused_like_a_fresh_copy(monkeypatch, s, mv, applier)
        assert f"dart {live} appears in more than one edge" in want

    def test_a_dart_left_only_on_the_vertex_side(self, monkeypatch):
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        mv = next(m for m in enumerate_chart_moves(s) if isinstance(m, CIM2Reconnect))
        e = surface_map(s.chart).edge_at[mv.a]

        def applier(s, mv):
            return engine._rewrite(s, (e,), ()), mv

        want, _ = self._refused_like_a_fresh_copy(monkeypatch, s, mv, applier)
        assert want == [f"dart {d} appears only on the vertex side" for d in sorted(e.darts)]

    def test_a_vertex_rewritten_in_place(self, monkeypatch):
        # only the vertex changes: its darts alone name the patch
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        mv = next(m for m in enumerate_chart_moves(s) if isinstance(m, CIM2Reconnect))
        v = next(v for v in s.chart.vertices if v.kind == "crossing")
        bad = Vertex(v.kind, (v.cycle[1], v.cycle[0]) + v.cycle[2:])

        def applier(s, mv):
            return engine._rewrite(s, (v,), (bad,)), mv

        want, _ = self._refused_like_a_fresh_copy(monkeypatch, s, mv, applier)
        assert len(want) == 1 and "invalid crossing word" in want[0]

    def test_a_dartless_vertex(self, monkeypatch):
        s = surf(generate_blackless_chart(4, 20, random.Random(5)))
        mv = next(m for m in enumerate_chart_moves(s) if isinstance(m, CIM2Reconnect))

        def applier(s, mv):
            return engine._rewrite(s, (), (Vertex("white", ()),)), mv

        want, out = self._refused_like_a_fresh_copy(monkeypatch, s, mv, applier)
        assert want == [f"vertex {len(out.vertices) - 1} has no darts"]

    def test_a_non_planar_insert_refused_by_the_euler_count(self, monkeypatch):
        calls = []
        full = chart_mod._derive
        monkeypatch.setattr(chart_mod, "_derive", lambda ch: calls.append(ch) or full(ch))
        honest = engine._APPLY[CIR2Insert]
        refused = 0
        for seed in range(5, 10):
            s = surf(generate_blackless_chart(4, 20, random.Random(seed)))
            surface_map(s.chart)
            offered = set(enumerate_chart_moves(s))
            emap = surface_map(s.chart).edge_at
            for a in sorted(emap):
                for b in sorted(emap):
                    mv = CIR2Insert(a, b)
                    if a >= b or abs(emap[a].label - emap[b].label) < 2 or mv in offered:
                        continue
                    try:
                        honest(s, mv)
                    except ValueError:
                        continue
                    # the applier accepts the site; only the genus bound,
                    # read off the counts carried through the patch,
                    # refuses the output, with the reference's genus
                    want, out = self._refused_like_a_fresh_copy(
                        monkeypatch, s, mv, honest
                    )
                    assert not any(c is out for c in calls)
                    genus = reference_genus(out)
                    assert genus > 0
                    assert want == [f"total component genus {genus} exceeds declared genus 0"]
                    refused += 1
        assert refused >= 5, refused


def test_a_dartless_vertex_fails_certification_before_any_step():
    base = free_edge_chart()
    ch = replace(base, vertices=base.vertices + (Vertex("white", ()),))
    got = certify_trace(EngineTrace(surf(ch), (CIM1Add(1, 1),)))
    assert (got.ok, got.step, got.reason) == (False, None, "vertex 2 has no darts")


def _line_events(fn, *args):
    """Line events inside handleforge while fn(*args) runs, after one
    untraced call that fills the caches the call uses."""
    root = os.path.dirname(engine.__file__)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    fn(*args)
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def _with_copies(ch, base, copies=4):
    """ch with disjoint copies of the chart base, darts shifted above ch's."""
    verts, edges = list(ch.vertices), list(ch.edges)
    shift = max(surface_map(ch).alpha)
    for k in range(1, copies + 1):
        for v in base.vertices:
            verts.append(Vertex(v.kind, tuple(d + k * shift for d in v.cycle)))
        for e in base.edges:
            darts = tuple(d + k * shift for d in e.darts)
            edges.append(Edge(darts, e.label, e.head + k * shift))
    assert len(verts) + len(edges) >= copies * (len(ch.vertices) + len(ch.edges))
    return replace(ch, vertices=tuple(verts), edges=tuple(edges))


class TestMoveCost:
    """A move costs its patch: the same move at the same darts runs as many
    lines on a surface padded with records, footless handles and a disjoint
    chart as on the surface itself."""

    BASE = generate_blackless_chart(4, 30, random.Random(3))
    # line events of one record erase on the spanned base surface: 111 when
    # a record-only patch came to share its input's map (the general patch
    # path ran 144), plus a tenth
    ERASE_CEILING = 122

    def _padded(self, s, handles):
        # ten times the records, ten times the handles (when handles) and
        # four disjoint copies of the base chart, darts shifted above s's
        ch = s.chart
        p = surf(_with_copies(ch, self.BASE), s.handles)
        for _ in range(10 * len(ch.loops)):
            p, _ = apply_move(p, CIM1Add(1, 1))
        for _ in range(10 * len(s.handles) if handles else 0):
            p, _ = apply_move(p, AttachTrivialHandle())
        return p

    def test_a_move_costs_its_patch(self):
        ch = self.BASE
        emap = surface_map(ch).edge_at
        cyc = min((v.cycle for v in ch.vertices if v.kind == "crossing"), key=min)
        i = min(emap[d].label for d in cyc)
        d_i = min(d for d in cyc if emap[d].label == i)
        spanned, _ = apply_move(surf(ch), AttachTrivialHandle(cocore_label=i))
        hid = spanned.handles[-1].id
        bridged, _ = apply_move(spanned, Bridge(hid, d_i))
        assert spanned.chart.loops and spanned.handles
        ends = surface_map(spanned.chart).ends
        reconnect = next(
            mv
            for mv in enumerate_chart_moves(spanned)
            if isinstance(mv, CIM2Reconnect) and not (mv.a in ends and mv.b in ends)
        )
        cancel = CIM3Cancel(next(engine._cim3_sites(spanned.chart)))
        cases = (
            (spanned, CIM1Erase(len(ch.loops) - 1), True),
            (spanned, reconnect, True),
            (spanned, cancel, True),
            (spanned, AttachTrivialHandle(cocore_label=1), False),
            (spanned, Bridge(hid, d_i), False),
            (bridged, CrossingTransfer(d_i, hid), False),
        )
        counts = {}
        for s, mv, handles in cases:
            padded = self._padded(s, handles)
            counts[type(mv).__name__] = (
                _line_events(apply_move, s, mv),
                _line_events(apply_move, padded, mv),
            )
        assert all(b <= 1.1 * a for a, b in counts.values()), counts
        assert counts["CIM1Erase"][0] <= self.ERASE_CEILING, counts


class TestRunSideSites:
    """The unbraid driver keeps its crossings in a list of its own and
    scans for CIII sites only where black vertices can make one."""

    def test_a_blackless_unbraid_scans_no_ciii_site(self, monkeypatch):
        def refuse(ch, whites):
            raise AssertionError("a blackless chart was scanned for CIII sites")

        charts = [parse_chart((BENCH_CHARTS / "unbraid_v52.chart").read_text())]
        charts += [generate_blackless_chart(d, 30, random.Random(d)) for d in (3, 4, 5)]
        monkeypatch.setattr(engine, "_ciii_sites", refuse)
        for chart in charts:
            for mode in ("weak", "strong"):
                _, _, trace = unbraid_without_branch(surf(chart), mode)
                assert certify_trace(trace).ok
            _, _, trace = unbraid_with_branch(surf(chart))
            assert certify_trace(trace).ok

    def test_branch_mode_still_eliminates_ciii_sites_among_the_whites(self, monkeypatch):
        # the driver's own scan is blinded, so the spider's one CIII site is
        # left to _cancel_whites, which must look for it on a chart with
        # black vertices
        real_sites, real_cancel = engine._ciii_sites, engine._cancel_whites
        cancelling = []

        def sites(ch, whites):
            return real_sites(ch, whites) if cancelling else iter(())

        def cancel(run):
            cancelling.append(len(run.steps))
            return real_cancel(run)

        monkeypatch.setattr(engine, "_ciii_sites", sites)
        monkeypatch.setattr(engine, "_cancel_whites", cancel)
        _, _, trace = unbraid_with_branch(surf(white_spider()))
        assert cancelling == [0]
        assert [type(mv) for mv in trace.steps] == [CIIIEliminate]
        assert certify_trace(trace).ok

    def test_the_driver_costs_each_collected_crossing_alike_on_a_padded_chart(
        self, monkeypatch
    ):
        # line events of the crossing collection outside apply_move, per
        # crossing collected, with four disjoint copies of the chart added
        monkeypatch.setattr(engine, "_cancel_whites", lambda run: None)
        monkeypatch.setattr(engine, "_clear_records", lambda run: 0)
        base = TestMoveCost.BASE
        per = []
        for chart in (base, _with_copies(base, base)):
            s = surf(chart)
            unbraid_without_branch(s)
            events, (_, count, _) = _driver_events(monkeypatch, unbraid_without_branch, s)
            assert count == chart_stats(chart).c > 0
            per.append(events / count)
        assert per[1] <= 1.1 * per[0], per

    def _events_per_white(self, monkeypatch, extra=lambda ch: ch):
        """Line events of _cancel_whites outside apply_move, per white it
        removes, on the surface a branch-mode run leaves once the crossings
        are collected: on extra(base), and with four disjoint copies of the
        base chart added."""
        collected = []
        monkeypatch.setattr(engine, "_cancel_whites", lambda run: collected.append(run.state))
        monkeypatch.setattr(engine, "_clear_records", lambda run: 0)
        base = TestMoveCost.BASE
        for chart in (base, _with_copies(base, base)):
            unbraid_with_branch(surf(extra(chart)))
        monkeypatch.undo()
        per = []
        for state in collected:
            whites = sum(v.kind == "white" for v in state.chart.vertices)
            engine._cancel_whites(engine._Runner(state))
            run = engine._Runner(state)
            events, _ = _driver_events(monkeypatch, engine._cancel_whites, run)
            assert whites > 0
            assert not any(v.kind == "white" for v in run.state.chart.vertices)
            per.append(events / whites)
        return per

    def test_the_driver_costs_each_removed_white_alike_on_a_padded_chart(
        self, monkeypatch
    ):
        per = self._events_per_white(monkeypatch)
        assert per[1] <= 1.1 * per[0], per

    def test_the_driver_costs_each_removed_white_alike_beside_black_vertices(
        self, monkeypatch
    ):
        # a free edge with two black ends makes the driver look for CIII
        # sites, which it does only after a move that can make one: 153.5
        # and 151.9 events per white (20 and 100 whites), where a scan of
        # every vertex on each pass cost 478.6 and 1,877.3
        def with_black_edge(ch):
            top = max(surface_map(ch).alpha) + 1
            blacks = (Vertex("black", (top,)), Vertex("black", (top + 1,)))
            edge = Edge((top, top + 1), 1, top + 1)
            return replace(ch, vertices=ch.vertices + blacks, edges=ch.edges + (edge,))

        per = self._events_per_white(monkeypatch, with_black_edge)
        assert per[1] <= 1.1 * per[0], per


def _driver_events(monkeypatch, fn, *args):
    """(line events inside handleforge outside apply_move, result) of
    fn(*args)."""
    real_apply, inside = engine.apply_move, [0]

    def apply(s, mv):
        inside[0] += 1
        try:
            return real_apply(s, mv)
        finally:
            inside[0] -= 1

    root = os.path.dirname(engine.__file__)
    events = [0]

    def local(frame, event, arg):
        events[0] += event == "line"
        return local

    def calls(frame, event, arg):
        if inside[0] or not frame.f_code.co_filename.startswith(root):
            return None
        return local

    monkeypatch.setattr(engine, "apply_move", apply)
    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
        monkeypatch.setattr(engine, "apply_move", real_apply)
    return events[0], result


def test_ciii_sites_are_unchanged_along_a_run():
    # sha256 of repr of the CIIIEliminate sites at every state of the
    # bundled chart's branch run and of a seeded walk of enumerated moves
    # from it, as found when every white word was matched afresh; the walk
    # draws from the moves the earlier enumeration offered
    root = resources.files("handleforge") / "data"
    chart = parse_chart((root / "twist_spun_trefoil.chart").read_text())
    s = surf(chart)

    def ciii_sites(ch):
        return list(engine._ciii_sites(ch, [v for v in ch.vertices if v.kind == "white"]))

    _, _, trace = unbraid_with_branch(s)
    sites = [ciii_sites(s.chart)]
    for mv in trace.steps:
        s, _ = apply_move(s, mv)
        sites.append(ciii_sites(s.chart))
    rng, s = random.Random(9), surf(chart)
    for _ in range(60):
        s, _ = apply_move(s, rng.choice(list(_offered_before(s, enumerate_chart_moves(s)))))
        sites.append(ciii_sites(s.chart))
    assert (len(sites), sum(map(bool, sites)), sum(map(len, sites))) == (83, 62, 85)
    digest = hashlib.sha256(repr(sites).encode()).hexdigest()
    assert digest == "55abb12216975da5ba162430c21c2c9ef6fb874567b30f5945f298897a24f388"


def test_the_inverse_of_a_restore_patch_undoes_it():
    s = surf(generate_blackless_chart(4, 30, random.Random(3)))
    mv = next(m for m in enumerate_chart_moves(s) if isinstance(m, CIR2Straighten))
    out, inv = apply_move(s, mv)
    back, inv2 = apply_move(out, inv)
    assert surfaces_equal(back, s)
    again, _ = apply_move(back, inv2)
    assert surfaces_equal(again, out)


def test_a_restore_gives_back_the_input_itself_and_checks_nothing(monkeypatch):
    s = surf(generate_blackless_chart(4, 30, random.Random(3)))
    mv = next(m for m in enumerate_chart_moves(s) if isinstance(m, CIR2Straighten))
    out, inv = apply_move(s, mv)
    # a surface equal to out that holds every object of out's, made by a
    # move and its inverse, is still not the surface the move made
    added, erase = apply_move(out, CIM1Add(1, 1))
    twin, _ = apply_move(added, erase)
    assert twin == out and twin.chart is not out.chart and twin.handles is out.handles
    for name in ("vertices", "edges", "loops", "pattern_loops"):
        assert all(map(operator.is_, getattr(twin.chart, name), getattr(out.chart, name)))
    checks = []
    check = engine._check_surface
    monkeypatch.setattr(engine, "_check_surface", lambda *a: checks.append(a) or check(*a))
    back, inv2 = apply_move(out, inv)
    assert back is s
    assert apply_move(back, inv2)[0] is out
    assert checks == []
    with pytest.raises(SiteMismatch, match="^restore patch does not match the surface$"):
        apply_move(twin, inv)


def test_a_restore_patch_refuses_every_other_surface():
    # a restore applies only to the surface its move made: the move's
    # input, an equal copy of its output made of new objects and the
    # outputs of other moves are not that surface
    s = surf(generate_blackless_chart(4, 30, random.Random(3)))
    first, second = [m for m in enumerate_chart_moves(s) if isinstance(m, CIR2Straighten)][:2]
    out, inv = apply_move(s, first)
    c = out.chart
    copy = replace(
        c,
        vertices=tuple(Vertex(v.kind, v.cycle) for v in c.vertices),
        edges=tuple(Edge(e.darts, e.label, e.head) for e in c.edges),
    )
    assert copy == c
    others = [
        s,
        surf(copy),
        apply_move(s, second)[0],
        surf(generate_blackless_chart(4, 30, random.Random(4))),
    ]
    for other in others:
        with pytest.raises(SiteMismatch, match="^restore patch does not match the surface$"):
            apply_move(other, inv)
    assert surfaces_equal(apply_move(out, inv)[0], s)


def test_a_restore_patch_that_made_nothing_checks_what_the_move_left():
    # CIM3Cancel makes no Edge or Vertex, and its inverse is a restore: the
    # surface the move started from.  It applies only to the surface the
    # move made, or it would graft the white pair and the first chart's
    # records onto any surface (loops 2 -> 8, vertices 6 -> 8 here)
    s = surf(generate_blackless_chart(4, 30, random.Random(3)))
    mv = next(m for m in enumerate_chart_moves(s) if isinstance(m, CIM3Cancel))
    out, inv = apply_move(s, mv)
    assert type(inv) is engine._Restore
    other = surf(generate_blackless_chart(4, 5, random.Random(0)))
    more = apply_move(out, AttachTrivialHandle())[0]
    fewer = surf(replace(out.chart, loops=out.chart.loops[:-1]))
    for target in (other, s, fewer, more):
        with pytest.raises(SiteMismatch, match="^restore patch does not match the surface$"):
            apply_move(target, inv)
    assert surfaces_equal(apply_move(out, inv)[0], s)


def test_a_white_vertex_no_move_removes_is_a_typed_error(monkeypatch, tmp_path, capsys):
    # the spider's lone white goes by one CIIIEliminate; with its CIII
    # sites withheld it has no mirror or swapped partner either, and the
    # unbraiding stops with the typed error that names it
    run = engine._Runner(surf(white_spider()))
    engine._cancel_whites(run)
    assert [type(m) for m in run.steps] == [CIIIEliminate]
    monkeypatch.setattr(engine, "_ciii_sites", lambda ch, whites: iter(()))
    for rotation in range(6):
        run = engine._Runner(surf(white_spider(rotation)))
        with pytest.raises(StuckWhiteVertex, match=r"white vertex at darts \(1, 2, 3, 4, 5, 6\)$"):
            engine._cancel_whites(run)
    path = tmp_path / "spider.chart"
    path.write_text(format_chart(white_spider()))
    assert cli.main(["unbraid", str(path), "--mode", "branch"]) == 1
    assert capsys.readouterr().err == (
        "error: no move removes the white vertex at darts (1, 2, 3, 4, 5, 6)\n"
    )


def _off_default_moves():
    """One move of every class, each field away from its default."""
    away = {
        "sign": -1, "cocore_sign": -1, "emit_sign": -1, "side": "left",
        "direction": "ccw", "variant": "B", "loops": (1, 2, 3, 4, 5),
        "coreloop": BraidWord.from_signed(9, (1, -3)),
    }
    moves = []
    for cls in engine.CHART_MOVES + engine.SURFACE_MOVES:
        fields = dataclasses.fields(cls)
        mv = cls(**{f.name: away.get(f.name, 7 + k) for k, f in enumerate(fields)})
        for f in fields:
            assert getattr(mv, f.name) != f.default, (cls.__name__, f.name)
        moves.append(mv)
    return tuple(moves)


def test_every_move_class_applies_and_round_trips_through_text():
    assert set(engine._APPLY) == {*engine.CHART_MOVES, *engine.SURFACE_MOVES, engine._Restore}
    s = surf(mk(degree=9))
    trace = EngineTrace(s, _off_default_moves(), ())
    assert parse_script(format_script(trace), s).steps == trace.steps


# the script text of every move class, as written before the codec was
# derived from the move classes; a renamed key or move name shows here
PINNED_MOVE_TEXT = """\
move cim1add label=7 sign=- index=9
move cim1erase loop=7
move cim2split dart=7 sign=- index=9
move cim2absorb dart=7 loop=8
move cim2reconnect a=7 b=8
move cir2insert a=7 b=8
move cir2loops i=7 j=8
move cir2straighten a=7 b=8
move cii black=7 target=8
move ciiretract dart=7
move ciii dart=7
move cim3loops x=7 y=8 loops=1,2,3,4,5
move cim3cancel dart=7
move attach cocore=S7 coreloop=s1.S3
move detach handle=7
move across handle=7 dart=8 end=9 loop=10 emit=11 sign=- emitsign=- side=left index=15
move bridge handle=7 dart=8
move transfer dart=7 handle=8 side=left
move rotate handle=7 dir=ccw
move convert handle=7 label=8 sign=-
move relabel dart=7 label=8
move slide handle=7 over=8 variant=B
move reverseaid dart=7
move slideend dart=7 along=8
move absorbhandle handle=7 dart=8
move patterncancel index=7
move patterncapture index=7
move patterntwist sign=-
"""


def test_the_script_text_of_every_move_class_is_pinned():
    trace = EngineTrace(surf(mk(degree=9)), _off_default_moves(), ())
    assert format_script(trace) == PINNED_MOVE_TEXT


# (class, field, bad value, site fields, error, message); the site fields
# alone would apply on _field_check_surface() wherever the class can
BAD_FIELDS = [
    (CIM1Add, "label", 0, {}, LabelConstraintViolated, "label 0 out of range"),
    (CIM1Add, "label", 4, {}, LabelConstraintViolated, "label 4 out of range"),
    (CIM1Add, "sign", 0, {}, SiteMismatch, "bad sign 0"),
    (CIM2Split, "sign", 2, {}, SiteMismatch, "bad sign 2"),
    (AttachTrivialHandle, "cocore_label", 4, {}, LabelConstraintViolated,
     "label 4 out of range"),
    (AttachTrivialHandle, "cocore_sign", 0, {}, SiteMismatch, "bad sign 0"),
    (MoveHandleAcrossEdge, "sign", 0, {"loop": 0}, SiteMismatch, "bad sign 0"),
    (MoveHandleAcrossEdge, "sign", 5, {"emit_label": 2}, SiteMismatch, "bad sign 5"),
    (MoveHandleAcrossEdge, "emit_label", 0, {}, LabelConstraintViolated,
     "label 0 out of range"),
    (MoveHandleAcrossEdge, "emit_sign", -2, {"loop": 0}, SiteMismatch, "bad sign -2"),
    (MoveHandleAcrossEdge, "side", "x", {"loop": 0}, SiteMismatch, "bad side 'x'"),
    (CrossingTransfer, "side", "up", {}, SiteMismatch, "bad side 'up'"),
    (RotateTrivialHandleDecoration, "direction", "x", {}, SiteMismatch,
     "bad direction 'x'"),
    (ConvertViaGeneratorSet, "label", 9, {}, LabelConstraintViolated,
     "label 9 out of range"),
    (ConvertViaGeneratorSet, "sign", 0, {}, SiteMismatch, "bad sign 0"),
    (FreeEdgeRelabel, "label", 9, {}, LabelConstraintViolated, "label 9 out of range"),
    (HandleSlideDecorated, "variant", "C", {}, SiteMismatch, "unknown variant 'C'"),
    (PatternTwist, "sign", 0, {}, SiteMismatch, "bad sign 0"),
]


def _field_check_surface():
    """Degree 4, footless handle 1, and loop record 0 of label 2."""
    s, _ = apply_move(empty_surface(4), AttachTrivialHandle())
    return apply_move(s, CIM1Add(2, 1))[0]


@pytest.mark.parametrize(
    "cls, name, bad, site, error, message", BAD_FIELDS,
    ids=[f"{c.__name__}-{n}={b!r}" for c, n, b, *_ in BAD_FIELDS],
)
def test_a_bad_sign_label_or_choice_is_refused(cls, name, bad, site, error, message):
    given = {**site, name: bad}
    required = {f.name: 1 for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.name not in given}
    mv = cls(**required, **given)
    with pytest.raises(error) as info:
        apply_move(_field_check_surface(), mv)
    assert str(info.value) == message


def test_every_sign_label_and_choice_field_has_a_refusal_case():
    checked = {
        (cls, f.name)
        for cls in engine.CHART_MOVES + engine.SURFACE_MOVES
        for f in dataclasses.fields(cls)
        if f.name.endswith("sign")
        or f.name in ("label", "cocore_label", "emit_label", "side", "direction", "variant")
    }
    assert checked == {(cls, name) for cls, name, *_ in BAD_FIELDS}


def test_the_site_fields_of_the_handle_refusals_apply():
    s = _field_check_surface()
    for site in ({"loop": 0}, {"emit_label": 2}):
        apply_move(s, MoveHandleAcrossEdge(1, **site))


def _two_crossed_pairs(degree=4):
    """Two bigons of crossings of labels 1 and 3: crossings at darts 1-4 and
    5-8 cancel, as do those at 9-12 and 13-16."""
    s = surf(mk(degree=degree, loops=tuple(FloatingLoop(lab, 1) for lab in (1, 3, 1, 3))))
    for _ in range(2):
        s, _ = apply_move(s, CIR2Bootstrap(0, 1))
    return s


def _twisted_white_pair():
    """Two white vertices joined by six edges on a torus; the edges at darts
    4 and 6 swap their ends at the second white, so the pair is not mirror
    wired."""
    ends = (12, 11, 10, 7, 8, 9)
    edges = [
        Edge((k, b), lab, b if sign > 0 else k)
        for k, (b, (lab, sign)) in enumerate(zip(ends, WHITE_BASE), start=1)
    ]
    whites = (Vertex("white", (1, 2, 3, 4, 5, 6)), Vertex("white", tuple(range(7, 13))))
    return surf(mk(genus=1, vertices=whites, edges=edges))


def _coiled(*senses):
    """Degree 2, one coiled handle and pattern copies of the given senses."""
    pats = tuple(PatternLoop(k, sense) for k, sense in enumerate(senses, start=1))
    return surf(mk(degree=2, pattern_loops=pats), (AttachedHandle(1, BraidWord(2), None, mn=(1, 0)),))


def _attached(s, *attach):
    """s after the given AttachTrivialHandle moves; the handles get ids 1, 2, ..."""
    for mv in attach:
        s, _ = apply_move(s, mv)
    return s


def _records(*loops, genus=0):
    """An empty degree-4 chart holding the given loop records."""
    return surf(mk(genus=genus, loops=loops))


_A = AttachTrivialHandle
_L = FloatingLoop

# the applier refusals, each with a surface that reaches it: (id, surface,
# move, error type, message)
REFUSALS = [
    ("straighten-one-crossing", _two_crossed_pairs, CIR2Straighten(1, 2),
     SiteMismatch, "need two distinct crossings"),
    ("straighten-same-sign", _two_crossed_pairs, CIR2Straighten(1, 9),
     SiteMismatch, "the two crossings do not cancel"),
    ("straighten-apart", _two_crossed_pairs, CIR2Straighten(1, 13),
     SiteMismatch, "the crossings are not adjacent along both strands"),
    ("retract-no-end", _two_crossed_pairs, CIIRetract(1),
     SiteMismatch, "no lone black end across the crossing"),
    ("cancel-not-white", _two_crossed_pairs, CIM3Cancel(1),
     SiteMismatch, "the edge does not join two white vertices"),
    ("cancel-twisted", _twisted_white_pair, CIM3Cancel(1),
     SiteMismatch, "the two white vertices are not mirror wired"),
    ("transfer-footless", lambda: _attached(_two_crossed_pairs(), _A()), CrossingTransfer(1, 1),
     SiteMismatch, "the handle has no feet to pull through"),
    ("transfer-unbridged", lambda: _attached(_two_crossed_pairs(), _A(cocore_label=1)),
     CrossingTransfer(1, 1), SiteMismatch, "the handle is not bridged at this crossing"),
    ("slide-itself", lambda: _attached(empty_surface(4), _A(cocore_label=1)),
     HandleSlideDecorated(1, 1, "A"), SiteMismatch, "a handle cannot slide across itself"),
    ("slide-coiled", lambda: _attached(_coiled(), _A()), HandleSlideDecorated(1, 2, "A"),
     NonTrivialHandle, "coiled handles cannot slide"),
    ("slide-footless", lambda: _attached(empty_surface(4), _A(), _A()),
     HandleSlideDecorated(1, 2, "A"), NonTrivialHandle, "both handles must carry clean spans"),
    ("slide-labels", lambda: _attached(empty_surface(4), _A(cocore_label=1), _A(cocore_label=3)),
     HandleSlideDecorated(1, 2, "A"), LabelConstraintViolated, "span labels 1 and 3 differ"),
    ("slide-A-opposite",
     lambda: _attached(empty_surface(4), _A(cocore_label=1), _A(cocore_label=1, cocore_sign=-1)),
     HandleSlideDecorated(1, 2, "A"), SiteMismatch, "the spans must run the same way"),
    ("slide-B-alike", lambda: _attached(empty_surface(4), _A(cocore_label=1), _A(cocore_label=1)),
     HandleSlideDecorated(1, 2, "B"), SiteMismatch, "the spans must run opposite ways"),
    ("absorb-loop-word",
     lambda: _attached(surf(free_edge_chart(degree=5)),
                       _A(cocore_label=1, coreloop=BraidWord.from_signed(5, (3,)))),
     AbsorbLoopIntoFreeEdge(1, 1),
     NonTrivialHandle, "the loop word must be empty to absorb the span"),
    ("absorb-itself", lambda: _attached(surf(free_edge_chart()), _A(cocore_label=1)),
     AbsorbLoopIntoFreeEdge(1, 3), SiteMismatch, "cannot absorb the span into itself"),
    ("absorb-label", lambda: _attached(surf(free_edge_chart()), _A(cocore_label=2)),
     AbsorbLoopIntoFreeEdge(1, 1), LabelConstraintViolated, "span label 2 vs target label 1"),
    ("absorb-no-end", lambda: _attached(empty_surface(4), _A(cocore_label=2), _A(cocore_label=2)),
     AbsorbLoopIntoFreeEdge(1, 3),
     SiteMismatch, "the target strand has no free end to slide over"),
    ("pattern-cancel-missing", lambda: _coiled(1, -1), PatternCancel(2),
     SiteMismatch, "no pattern copy 2"),
    ("pattern-cancel-outermost", lambda: _coiled(1, -1), PatternCancel(1),
     SiteMismatch, "no neighbouring copy outward"),
    ("pattern-cancel-alike", lambda: _coiled(1, 1), PatternCancel(0),
     SiteMismatch, "neighbouring senses do not cancel"),
    ("pattern-capture-missing", lambda: _coiled(1, -1), PatternCapture(2),
     SiteMismatch, "no pattern copy 2"),
    ("pattern-capture-outer", lambda: _coiled(1, -1), PatternCapture(1),
     SiteMismatch, "only the innermost copy can be captured"),
    ("relabel-span", lambda: _attached(empty_surface(4), _A(cocore_label=1)),
     FreeEdgeRelabel(1, 2), SiteMismatch, "both ends must be lone black vertices"),
    ("cir2loops-same", lambda: _records(_L(1, 1), _L(3, 1)), CIR2Bootstrap(0, 0),
     SiteMismatch, "need two distinct records"),
    ("cir2loops-near", lambda: _records(_L(1, 1), _L(2, 1)), CIR2Bootstrap(0, 1),
     LabelConstraintViolated, "labels 1 and 2 do not far-commute"),
    ("cir2loops-pinned", lambda: _records(_L(1, 1, pinned=True), _L(3, 1), genus=1),
     CIR2Bootstrap(0, 1), SiteMismatch, "pinned records cannot be rewired"),
    ("sweep-own-edge", lambda: surf(two_free_edges()), CIISweep(1, 2),
     SiteMismatch, "cannot sweep across the strand's own edge"),
    ("sweep-near", lambda: surf(two_free_edges(1, 2)), CIISweep(1, 3),
     LabelConstraintViolated, "labels 1 and 2 do not far-commute"),
    ("cim3loops-repeated", lambda: _records(*[_L(2, 1)] * 5), CIM3Bootstrap(1, 2, (0, 0, 1, 2, 3)),
     SiteMismatch, "need five distinct records"),
    ("cim3loops-labels", lambda: _records(*[_L(1, 1)] * 5), CIM3Bootstrap(1, 2, (0, 1, 2, 3, 4)),
     LabelConstraintViolated, "record labels must read (2, 1, 2, 1, 2), got (1, 1, 1, 1, 1)"),
    ("cim3loops-negative",
     lambda: _records(_L(2, 1), _L(1, 1), _L(2, -1), _L(1, 1), _L(2, 1)),
     CIM3Bootstrap(1, 2, (0, 1, 2, 3, 4)), SiteMismatch, "records must be plain positive loops"),
    ("attach-degree", lambda: empty_surface(4), _A(coreloop=BraidWord(3)),
     SiteMismatch, "coreloop degree 3 vs chart degree 4"),
    ("attach-footless-word", lambda: empty_surface(4), _A(coreloop=BraidWord.from_signed(4, (1,))),
     NonTrivialHandle, "a footless attachment must carry no loop word"),
    ("attach-two-letters", lambda: empty_surface(4),
     _A(1, coreloop=BraidWord.from_signed(4, (3, 3))),
     NonTrivialHandle, "a standard handle carries at most one loop letter"),
    ("detach-footless-word",
     lambda: _attached(_field_check_surface(), MoveHandleAcrossEdge(1, loop=0)),
     DetachTrivialHandle(1), NonTrivialHandle, "the handle still carries loop letters"),
    ("detach-two-letters",
     lambda: _attached(_records(_L(3, 1), _L(3, 1)), _A(1), MoveHandleAcrossEdge(1, loop=0),
                       MoveHandleAcrossEdge(1, loop=0)),
     DetachTrivialHandle(1), NonTrivialHandle, "the handle still carries loop letters"),
    ("detach-near-letter",
     lambda: _attached(_records(_L(2, 1)), _A(1), MoveHandleAcrossEdge(1, loop=0)),
     DetachTrivialHandle(1), NonCommutingDecoration, "loop letter too close to the span label"),
    ("detach-coiled", _coiled, DetachTrivialHandle(1),
     NonTrivialHandle, "a coiled handle cannot detach"),
    ("across-no-site", _field_check_surface, MoveHandleAcrossEdge(1),
     SiteMismatch, "exactly one of dart/end/loop/emit_label is required"),
    ("across-spanned-dart", lambda: _attached(surf(free_edge_chart()), _A(1)),
     MoveHandleAcrossEdge(1, dart=1), SiteMismatch, "a spanned handle cannot slide around a strand"),
    ("across-end-missing", _field_check_surface, MoveHandleAcrossEdge(1, end=99),
     SiteMismatch, "the push site must be a lone black end"),
    ("across-pinned", lambda: _attached(_records(_L(2, 1, pinned=True), genus=1), _A()),
     MoveHandleAcrossEdge(1, loop=0), SiteMismatch, "pinned records cannot be captured"),
    ("bridge-footless", lambda: _attached(surf(free_edge_chart()), _A()), Bridge(1, 1),
     NonTrivialHandle, "only a spanned handle can bridge"),
    ("bridge-own-span", lambda: _attached(empty_surface(4), _A(1)), Bridge(1, 1),
     SiteMismatch, "cannot bridge the handle onto its own span"),
    ("bridge-label", lambda: _attached(surf(free_edge_chart(label=3)), _A(1)), Bridge(1, 1),
     LabelConstraintViolated, "span label 1 vs strand label 3"),
    ("slideend-crossing", _two_crossed_pairs, SlideEndAlongEdge(1, 2),
     SiteMismatch, "only a lone end can slide"),
    ("twist-no-coil", lambda: empty_surface(4), PatternTwist(1),
     NotRepeatedPattern, "expected exactly one coiled handle"),
    ("split-no-dart", _two_crossed_pairs, CIM2Split(99, 1), SiteMismatch, "no dart 99"),
    ("add-no-slot", lambda: empty_surface(4), CIM1Add(1, 1, index=1),
     SiteMismatch, "no record slot 1"),
]


@pytest.mark.parametrize(
    "build, mv, error, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
)
def test_an_applier_refusal_is_typed_and_fails_its_certification_step(build, mv, error, message):
    s = build()
    with pytest.raises(error) as info:
        apply_move(s, mv)
    assert type(info.value) is error and str(info.value) == message
    # two moves that undo each other come first, so the refusal is step 2
    got = certify_trace(EngineTrace(s, (CIM1Add(1, 1), CIM1Erase(len(s.chart.loops)), mv)))
    assert (got.ok, got.step, got.reason) == (False, 2, f"{error.__name__}: {message}")


def _verdict(s, steps=(), claims=()):
    got = certify_trace(EngineTrace(s, tuple(steps), tuple(claims)))
    return got.ok, got.step, got.reason


def _two_coils():
    coil = AttachedHandle(1, BraidWord(2), None, mn=(1, 0))
    return surf(mk(degree=2), (coil, replace(coil, id=2)))


# the refusals outside the appliers that no other test reaches, each a call
# and what it gives: (id, call, a verdict or (error type, message))
OTHER_REFUSALS = [
    ("claim-empty-records", lambda: _verdict(_records(_L(1, 1)), claims=("empty",)),
     (False, None, "claim empty: records remain")),
    ("claim-weak-forms", lambda: _verdict(_coiled(), claims=("weak-forms",)),
     (False, None, "claim weak-forms: handle 1 is not in form")),
    ("claim-weak-forms-threaded",
     lambda: _verdict(_bridged_left_of_a_loop_letter(), claims=("weak-forms",)),
     (False, None, "claim weak-forms: handle 1 is not in form")),
    ("claim-handle-mn", lambda: _verdict(_coiled(), claims=("handle-mn=1,1",)),
     (False, None, "claim handle-mn=1,1: no coiled handle matches")),
    ("certify-not-a-move", lambda: _verdict(empty_surface(4), ("cim1add",)),
     (False, 0, "not a move: 'cim1add'")),
    ("script-restore",
     lambda: format_script(EngineTrace(empty_surface(4), (engine._Restore(None, None),))),
     (ValueError, "_Restore has no text form")),
    ("script-no-value", lambda: parse_script("move cim1add label\n", empty_surface(4)),
     (ParseError, "line 1, column 14: expected key=value, got 'label'")),
    ("script-empty-cocore", lambda: parse_script("move attach cocore=e\n", empty_surface(4)),
     (ParseError, "line 1, column 13: cocore must be a single letter")),
    ("unbraid-mode", lambda: unbraid_without_branch(empty_surface(4), "bogus"),
     (ValueError, "unknown mode 'bogus'")),
    ("pattern-two-coils", lambda: unbraid_repeated_pattern(_two_coils()),
     (NotRepeatedPattern, "expected exactly one coiled handle")),
]


@pytest.mark.parametrize(
    "call, want", [row[1:] for row in OTHER_REFUSALS], ids=[row[0] for row in OTHER_REFUSALS]
)
def test_a_claim_script_or_driver_refusal(call, want):
    if isinstance(want[0], type):
        error, message = want
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message
    else:
        assert call() == want


def _bridged_left_of_a_loop_letter():
    # the loop letter s4 does not commute with the crossing's s3, so the
    # side of the transfer shows in the handle's loop word
    loop = BraidWord.from_signed(5, (4,))
    s = _attached(_two_crossed_pairs(degree=5), _A(cocore_label=1, coreloop=loop))
    return apply_move(s, Bridge(1, 1))[0]


# the accepting branches no other test runs: (id, surface, move, a check of
# the output that only this branch passes)
ACCEPTED = [
    ("transfer-left", _bridged_left_of_a_loop_letter, CrossingTransfer(1, 1, side="left"),
     lambda out: out.handles[0].coreloop.letters == (-3, 4)),
    ("slide-B",
     lambda: _attached(empty_surface(4), _A(cocore_label=1), _A(cocore_label=1, cocore_sign=-1)),
     HandleSlideDecorated(1, 2, "B"), lambda out: out.handles[1].feet is None),
]


@pytest.mark.parametrize(
    "build, mv, made", [row[1:] for row in ACCEPTED], ids=[row[0] for row in ACCEPTED]
)
def test_an_accepting_branch_is_undone_by_its_inverse(build, mv, made):
    s = build()
    out, inv = apply_move(s, mv)
    assert made(out)
    assert apply_move(out, inv)[0] is s


def _across_surface():
    """A free edge of label 1 (dart 1 at a lone end), footless handle 1 and
    loop record 0 of label 2."""
    s, _ = apply_move(surf(free_edge_chart(label=1)), AttachTrivialHandle())
    return apply_move(s, CIM1Add(2, 1))[0]


# each form of MoveHandleAcrossEdge: its site, and the fields it reads
ACROSS_FORMS = {
    "dart": ({"dart": 1}, {"sign"}),
    "end": ({"end": 1}, {"sign", "side"}),
    "loop": ({"loop": 0}, {"side"}),
    "emit": ({"emit_label": 2}, {"emit_sign", "side", "index"}),
}


@pytest.mark.parametrize("form", ACROSS_FORMS)
@pytest.mark.parametrize(
    "name, value", [("sign", -1), ("emit_sign", -1), ("side", "left"), ("index", 1)]
)
def test_a_move_across_refuses_a_field_its_form_does_not_read(form, name, value):
    site, reads = ACROSS_FORMS[form]
    mv = MoveHandleAcrossEdge(1, **site, **{name: value})
    if name in reads:
        apply_move(_across_surface(), mv)
    else:
        with pytest.raises(SiteMismatch) as info:
            apply_move(_across_surface(), mv)
        assert str(info.value) == f"the {form} form takes no {name}"


def test_a_footless_attachment_refuses_a_cocore_sign():
    with pytest.raises(SiteMismatch) as info:
        apply_move(empty_surface(4), AttachTrivialHandle(None, -1))
    assert str(info.value) == "a footless attachment takes no cocore sign"
    apply_move(empty_surface(4), AttachTrivialHandle(1, -1))
