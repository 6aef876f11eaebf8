"""Tests for the rewriting engine: moves on decorated surfaces.

Frozen outcomes were derived by hand from the rotation-system semantics:
white words are cyclic rotations of the hexagonal relator, crossing words
of the far-commutation square, and every move is checked against the
stats-delta table and exact (canonical) reversibility.
"""

import hashlib
import random
from dataclasses import replace
from importlib import resources

import pytest

from handleforge import engine
from handleforge.braid import BraidWord, format_word, parse_word
from handleforge.chart import (
    Chart,
    Edge,
    FloatingLoop,
    PatternLoop,
    Vertex,
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
    NotRepeatedPattern,
    PatternCancel,
    PatternCapture,
    PatternTwist,
    RotateTrivialHandleDecoration,
    SiteMismatch,
    SlideEndAlongEdge,
    apply_chart_move,
    apply_move,
    apply_surface_move,
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
        assert s2.chart.edges[0].label == 3
        s3, _ = apply_move(s2, inv)
        assert surfaces_equal(s3, s)

    def test_slide_end_is_a_validated_no_op(self):
        s = surf(free_edge_chart(label=1))
        s2, _ = apply_move(s, SlideEndAlongEdge(1, 2))
        assert surfaces_equal(s2, s)
        with pytest.raises(SiteMismatch):
            apply_move(s, SlideEndAlongEdge(99, 1))


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

    def test_wrapper_dispatch(self):
        s = empty_surface(4)
        s2 = apply_chart_move(s, CIM1Add(1, 1))
        assert len(s2.chart.loops) == 1
        s3 = apply_surface_move(s2, AttachTrivialHandle())
        assert len(s3.handles) == 1
        with pytest.raises(TypeError):
            apply_chart_move(s, AttachTrivialHandle())
        with pytest.raises(TypeError):
            apply_surface_move(s, CIM1Add(1, 1))


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


class TestCertification:
    def test_tampered_step_is_reported_by_index(self):
        ch = mk(loops=(FloatingLoop(1, 1),))
        s = surf(ch)
        final, count, trace = unbraid_without_branch(s)
        bad = trace.replace_steps(trace.steps + (CIM1Erase(5),))
        res = certify_trace(bad)
        assert not res.ok
        assert res.step == len(trace.steps)

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
        from handleforge.errors import ParseError
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
    axioms; that must decide validity exactly as the full check does."""

    @staticmethod
    def _compare_every_check(monkeypatch):
        seen = {"valid": 0, "invalid": 0}
        original = engine._check_surface

        def check(s, touched=None):
            if touched is not None:
                full = validate_chart(s.chart)
                patch = validate_chart(s.chart, touched)
                assert (patch == []) == (full == []), (full, patch)
                seen["invalid" if full else "valid"] += 1
            return original(s, touched)

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
                slot = surface_map(out).slot_of
                # created edges between two vertices, one of them a crossing
                # or a white vertex, whose word the edge enters
                edges = [
                    k
                    for k, e in enumerate(out.edges)
                    if e.darts[0] in created
                    and slot[e.darts[0]][0] != slot[e.darts[1]][0]
                    and {out.vertices[slot[d][0]].kind for d in e.darts}
                    & {"crossing", "white"}
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
