import math
from functools import partial
from typing import get_args

import pytest
from hypothesis import example, given, settings, strategies as st

from handleforge import handles, kernels
from handleforge.braid import BraidWord, parse_word
from handleforge.errors import ParseError
from handleforge.handles import (
    BudgetExceeded,
    DecoratedHandle,
    DegenerateAllZero,
    HandleLabel,
    HandleMove,
    HandleSystem,
    HandleTrace,
    IllegalStep,
    IndexOutOfRange,
    Invert,
    NonTrivialLabel,
    NormalFormTag,
    PreconditionViolated,
    Rotate,
    Slide,
    Transfer7,
    Transfer9,
    Twist,
    apply_handle_move,
    classify_standard,
    count_reachable,
    enumerate_reachable,
    format_handles,
    format_trace,
    inverse_moves,
    normalize_general,
    normalize_hirose,
    normalize_with_stabilizer,
    parse_handles,
    parse_trace,
    replay_trace,
    stabilized,
    system_invariants,
)

TRIV = HandleLabel(())


def h(m, n, label=TRIV):
    return DecoratedHandle(label, m, n)


def gen(i, sign=1):
    return HandleLabel(((i, sign),))


def sys_of(*pairs, g=None, labels=None):
    handles = []
    for t, pair in enumerate(pairs):
        label = labels[t] if labels else TRIV
        handles.append(DecoratedHandle(label, pair[0], pair[1]))
    if g is None:
        g = max(
            (abs(gv) for hd in handles for gv, _ in hd.label.word), default=0
        )
    return HandleSystem(g, tuple(handles))


def entries(s):
    return tuple((hd.m, hd.n) for hd in s.handles)


@st.composite
def trivial_systems(draw, max_handles=3, bound=5):
    g = draw(st.integers(1, max_handles))
    pairs = [
        (draw(st.integers(-bound, bound)), draw(st.integers(-bound, bound)))
        for _ in range(g)
    ]
    return sys_of(*pairs)


@st.composite
def labeled_systems(draw, max_handles=3, bound=5):
    count = draw(st.integers(1, max_handles))
    g = count
    handles = []
    for _ in range(count):
        word = []
        for _ in range(draw(st.integers(0, 2))):
            word.append((draw(st.integers(1, g)), draw(st.sampled_from((1, -1)))))
        handles.append(
            DecoratedHandle(
                HandleLabel.reduce(tuple(word)),
                draw(st.integers(-bound, bound)),
                draw(st.integers(-bound, bound)),
            )
        )
    return HandleSystem(g, tuple(handles))


def legal_moves(s):
    g = len(s.handles)
    out = []
    for k in range(1, g + 1):
        hd = s.handles[k - 1]
        out.append(Invert(k))
        out.append(Twist(k, 1))
        out.append(Twist(k, -1))
        if hd.label.is_trivial:
            out.append(Rotate(k, "cw"))
            out.append(Rotate(k, "ccw"))
        for l in range(1, g + 1):
            if l == k:
                continue
            out.append(Slide(k, l, "A"))
            out.append(Slide(k, l, "B"))
            other = s.handles[l - 1]
            if other.label.is_trivial and other.n == 0:
                out.append(Transfer7(k, l, 1))
                out.append(Transfer7(k, l, -1))
            if hd.m == 0:
                out.append(Transfer9(k, l, 1))
                out.append(Transfer9(k, l, -1))
    return out


def every_move(count):
    """Every move of a system of count handles, whether its gates admit it
    or not, in legal_moves' order."""
    out = []
    for k in range(1, count + 1):
        out += [Invert(k), Twist(k, 1), Twist(k, -1), Rotate(k, "cw"), Rotate(k, "ccw")]
        for l in range(1, count + 1):
            if l != k:
                out += [Slide(k, l, "A"), Slide(k, l, "B")]
                out += [cls(k, l, sign) for cls in (Transfer7, Transfer9) for sign in (1, -1)]
    return out


class TestLabels:
    def test_trivial(self):
        assert TRIV.is_trivial
        assert not gen(1).is_trivial

    def test_multiply_free_reduces(self):
        assert (gen(1) * gen(1, -1)).is_trivial
        assert (gen(1) * gen(2)).word == ((1, 1), (2, 1))

    def test_inverse(self):
        ab = gen(1) * gen(2)
        assert (ab * ab.inverse()).is_trivial
        assert ab.inverse().word == ((2, -1), (1, -1))

    def test_abelianized(self):
        w = gen(1) * gen(2, -1) * gen(1)
        assert w.abelianized(3) == (2, -1, 0)


# the refusals of the label and system constructors: (id, build, message)
CONSTRUCTOR_REFUSALS = [
    ("generator-zero", lambda: HandleLabel(((0, 1),)),
     "generator index must be positive, got 0"),
    ("sign-two", lambda: HandleLabel(((1, 2),)), "sign must be +1 or -1, got 2"),
    ("unreduced", lambda: HandleLabel(((2, 1), (2, -1))), "label word is not freely reduced"),
    ("negative-count", lambda: HandleSystem(-1), "generator count must be non-negative"),
    ("generator-past-count", lambda: HandleSystem(1, (DecoratedHandle(gen(2), 1, 0),)),
     "label uses generator 2 but the system has only 1"),
]


@pytest.mark.parametrize(
    "build, message", [row[1:] for row in CONSTRUCTOR_REFUSALS],
    ids=[row[0] for row in CONSTRUCTOR_REFUSALS],
)
def test_a_label_or_system_constructor_refuses_a_bad_value(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


class TestMoves:
    def test_invert(self):
        s = sys_of((2, 3), labels=[gen(1)], g=1)
        r = apply_handle_move(s, Invert(1))
        assert r.handles[0] == DecoratedHandle(gen(1, -1), -2, -3)

    def test_invert_is_self_inverse(self):
        s = sys_of((2, 3), labels=[gen(1)], g=1)
        assert apply_handle_move(apply_handle_move(s, Invert(1)), Invert(1)) == s

    def test_twist(self):
        s = sys_of((2, 3))
        assert entries(apply_handle_move(s, Twist(1, 1))) == ((2, 7),)
        assert entries(apply_handle_move(s, Twist(1, -1))) == ((2, -1),)

    def test_twist_fixes_zero_cocore(self):
        s = sys_of((0, 5))
        assert entries(apply_handle_move(s, Twist(1, 1))) == ((0, 5),)

    def test_rotate(self):
        s = sys_of((2, 3))
        assert entries(apply_handle_move(s, Rotate(1, "cw"))) == ((-3, 2),)
        assert entries(apply_handle_move(s, Rotate(1, "ccw"))) == ((3, -2),)

    def test_rotate_directions_invert_each_other(self):
        s = sys_of((2, 3))
        r = apply_handle_move(apply_handle_move(s, Rotate(1, "cw")), Rotate(1, "ccw"))
        assert r == s

    def test_rotate_needs_trivial_label(self):
        s = sys_of((2, 3), labels=[gen(1)], g=1)
        with pytest.raises(PreconditionViolated):
            apply_handle_move(s, Rotate(1, "cw"))

    def test_slide_a(self):
        s = sys_of((2, 3), (5, 7), labels=[gen(1), gen(2)], g=2)
        r = apply_handle_move(s, Slide(1, 2, "A"))
        assert r.handles[0] == DecoratedHandle(gen(1) * gen(2), 2, 10)
        assert r.handles[1] == DecoratedHandle(gen(2), 3, 7)

    def test_slide_b(self):
        s = sys_of((2, 3), (5, 7), labels=[gen(1), gen(2)], g=2)
        r = apply_handle_move(s, Slide(1, 2, "B"))
        assert r.handles[0] == DecoratedHandle(gen(2, -1) * gen(1), 2, -4)
        assert r.handles[1] == DecoratedHandle(gen(2), 7, 7)

    def test_transfer7(self):
        s = sys_of((2, 3), (5, 0))
        r = apply_handle_move(s, Transfer7(1, 2, 1))
        assert entries(r) == ((2, 3), (7, 0))

    def test_transfer7_needs_zero_coreloop(self):
        s = sys_of((2, 3), (5, 1))
        with pytest.raises(PreconditionViolated):
            apply_handle_move(s, Transfer7(1, 2, 1))

    def test_transfer7_needs_trivial_target(self):
        s = sys_of((2, 3), (5, 0), labels=[TRIV, gen(1)], g=1)
        with pytest.raises(PreconditionViolated):
            apply_handle_move(s, Transfer7(1, 2, 1))

    def test_transfer9(self):
        s = sys_of((0, 3), (5, 7))
        r = apply_handle_move(s, Transfer9(1, 2, 1))
        assert entries(r) == ((0, 8), (5, 7))

    def test_transfer9_needs_zero_cocore(self):
        s = sys_of((1, 3), (5, 7))
        with pytest.raises(PreconditionViolated):
            apply_handle_move(s, Transfer9(1, 2, 1))

    def test_two_handle_moves_need_distinct_indices(self):
        s = sys_of((1, 0), (2, 0))
        with pytest.raises(PreconditionViolated):
            apply_handle_move(s, Slide(1, 1, "A"))

    def test_index_out_of_range(self):
        s = sys_of((1, 0))
        with pytest.raises(IndexOutOfRange):
            apply_handle_move(s, Invert(2))
        with pytest.raises(IndexOutOfRange):
            apply_handle_move(s, Invert(0))

    @pytest.mark.parametrize("build, message", [
        (lambda: Twist(1, 0), "twist sign must be +1 or -1"),
        (lambda: Rotate(1, "up"), "rotation direction must be 'cw' or 'ccw'"),
        (lambda: Slide(1, 2, "C"), "slide variant must be 'A' or 'B'"),
        (lambda: Transfer7(1, 2, 2), "transfer sign must be +1 or -1"),
        (lambda: Transfer9(1, 2, -2), "transfer sign must be +1 or -1"),
    ])
    def test_a_bad_sign_direction_or_variant_is_refused(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_a_value_that_is_no_handle_move_is_refused(self):
        for call in (lambda: apply_handle_move(sys_of((1, 0)), "twist"),
                     lambda: inverse_moves("twist")):
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == "not a handle move: 'twist'"

    def test_only_the_moves_with_a_checked_field_run_a_check(self):
        checked = {cls for cls in get_args(HandleMove) if hasattr(cls, "__post_init__")}
        assert checked == {Twist, Rotate, Slide, Transfer7, Transfer9}

    @given(labeled_systems().flatmap(
        lambda s: st.tuples(st.just(s), st.sampled_from(legal_moves(s)))))
    @example((sys_of((2, 3), (5, 0)), Transfer7(1, 2, -1)))
    @example((sys_of((0, 3), (5, 0)), Transfer9(1, 2, 1)))
    @settings(deadline=None, max_examples=200)
    def test_every_move_reverses_exactly(self, case):
        s, mv = case
        r = apply_handle_move(s, mv)
        for back in inverse_moves(mv):
            r = apply_handle_move(r, back)
        assert r == s


class TestTwistRule:
    """handles.twisted and handles.twists_into, the one statement of the
    twist that the normal forms and the engine's coil share."""

    @given(st.integers(-50, 50), st.integers(-10**6, 10**6), st.integers(-60, 60))
    @example(0, 7, 3)
    @settings(deadline=None, max_examples=300)
    def test_the_count_undoes_the_twist(self, m, n, k):
        target = n + 2 * m * k
        count = handles.twists_into(m, n, target)
        assert count == (k if m else 0)
        tb = handles._TraceBuilder(sys_of((m, n)))
        handles.repeat(tb, partial(Twist, 1), count)
        assert entries(tb.state) == ((m, target if m else n),)
        assert len(tb.moves) == abs(count)
        assert all(mv == Twist(1, 1 if count > 0 else -1) for mv in tb.moves)

    @given(st.integers(-50, 50).filter(bool), st.integers(-5000, 5000),
           st.integers(-5000, 5000))
    @settings(deadline=None, max_examples=300)
    def test_the_count_lands_in_the_window(self, m, n, low):
        count = handles.twists_into(m, n, low)
        landed = n
        for _ in range(abs(count)):
            landed = handles.twisted(m, landed, 1 if count > 0 else -1)
        assert low <= landed < low + 2 * abs(m)


class TestInvariants:
    def test_frozen_example(self):
        inv = system_invariants(sys_of((2, 4), (6, 2)))
        assert (inv.d, inv.pairing, inv.residue) == (2, 20, 4)

    def test_empty_system(self):
        inv = system_invariants(HandleSystem(0, ()))
        assert (inv.d, inv.pairing, inv.residue) == (0, 0, None)

    def test_unit_handle(self):
        inv = system_invariants(sys_of((1, 1)))
        assert (inv.d, inv.pairing, inv.residue) == (1, 1, 1)

    @given(labeled_systems(), st.data())
    @settings(deadline=None, max_examples=300)
    def test_move_deltas(self, s, data):
        moves = legal_moves(s)
        if not moves:
            return
        mv = data.draw(st.sampled_from(moves))
        before = system_invariants(s)
        after = system_invariants(apply_handle_move(s, mv))
        assert after.d == before.d
        assert after.residue == before.residue
        delta = after.pairing - before.pairing
        if isinstance(mv, Twist):
            hd = s.handles[mv.k - 1]
            assert delta == mv.sign * 2 * hd.m * hd.m
        elif isinstance(mv, Rotate):
            hd = s.handles[mv.k - 1]
            assert delta == -2 * hd.m * hd.n
        else:
            assert delta == 0

    @given(labeled_systems(), st.data())
    @settings(deadline=None, max_examples=200)
    def test_m_gcd_preserved_except_rotation(self, s, data):
        moves = [m for m in legal_moves(s) if not isinstance(m, Rotate)]
        if not moves:
            return
        mv = data.draw(st.sampled_from(moves))
        r = apply_handle_move(s, mv)
        assert math.gcd(*(hd.m for hd in s.handles)) == math.gcd(
            *(hd.m for hd in r.handles)
        )


class TestNormalizeGeneral:
    def test_euclid_pair(self):
        result, trace = normalize_general(sys_of((4, 0), (6, 0)))
        assert entries(result) == ((2, 0), (0, 0))
        assert replay_trace(trace) == result

    def test_already_normal_single(self):
        s = sys_of((1, 0), labels=[gen(1)], g=1)
        result, trace = normalize_general(s)
        assert result == s
        assert trace.steps == ()

    def test_coprime_pair(self):
        s = sys_of((3, 1), (5, 2), labels=[gen(1), gen(2)], g=2)
        result, trace = normalize_general(s)
        assert result.handles[0].m == 1
        assert replay_trace(trace) == result

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_general(HandleSystem(0, ()))

    @given(labeled_systems(max_handles=4))
    @settings(deadline=None, max_examples=150)
    def test_shape_and_replay(self, s):
        result, trace = normalize_general(s)
        assert replay_trace(trace) == result
        assert trace.initial == s
        ms = [hd.m for hd in result.handles]
        ns = [hd.n for hd in result.handles]
        assert all(m == 0 for m in ms[1:])
        assert all(n == 0 for n in ns[2:])
        assert ms[0] == math.gcd(*(hd.m for hd in s.handles))
        assert len(result.handles) == len(s.handles)


class TestNormalizeWithStabilizer:
    def test_worked_pair(self):
        s = sys_of((2, 1), (4, 3), labels=[gen(1), gen(2)], g=2)
        result, trace = normalize_with_stabilizer(s)
        assert entries(result) == ((0, 1), (0, 1), (2, 7))
        assert result.handles[2].label.abelianized(2) == (1, 2)
        assert result.handles[0].label == gen(1)
        assert result.handles[1].label == gen(2)
        assert replay_trace(trace) == result

    def test_single_unit(self):
        result, trace = normalize_with_stabilizer(sys_of((1, 0), labels=[gen(1)], g=1))
        assert entries(result) == ((0, 0), (1, 0))
        assert replay_trace(trace) == result

    def test_single_diagonal(self):
        result, _ = normalize_with_stabilizer(sys_of((3, 3), labels=[gen(1)], g=1))
        assert entries(result) == ((0, 0), (3, 3))
        assert result.handles[1].label.abelianized(1) == (1,)

    def test_all_zero_cocores_rejected(self):
        with pytest.raises(DegenerateAllZero):
            normalize_with_stabilizer(sys_of((0, 5), (0, 3)))

    @given(labeled_systems(max_handles=3, bound=4))
    @settings(deadline=None, max_examples=100)
    def test_shape_and_replay(self, s):
        if all(hd.m == 0 for hd in s.handles):
            with pytest.raises(DegenerateAllZero):
                normalize_with_stabilizer(s)
            return
        result, trace = normalize_with_stabilizer(s)
        assert replay_trace(trace) == result
        m = math.gcd(*(hd.m for hd in s.handles))
        pairing = sum(hd.m * hd.n for hd in s.handles)
        g = len(s.handles)
        assert len(result.handles) == g + 1
        last = result.handles[-1]
        assert (last.m, last.n) == (m, pairing // m)
        for j, hd in enumerate(result.handles[:-1]):
            assert hd.m == 0
            assert 0 <= hd.n < m
            assert hd.label == s.handles[j].label
        # the collector's label abelianizes to the m_j/m combination of inputs
        gc = s.generator_count
        expect = [0] * gc
        for hd in s.handles:
            for t, e in enumerate(hd.label.abelianized(gc)):
                expect[t] += (hd.m // m) * e
        assert last.label.abelianized(gc) == tuple(expect)


class TestClassifyStandard:
    def test_off_type(self):
        tag = classify_standard(sys_of((2, 4), (6, 0)))
        assert tag == NormalFormTag("off", 2)
        final = replay_trace(tag.trace)
        assert entries(final) == ((0, 0), (0, 0), (2, 0))

    def test_diagonal_type(self):
        tag = classify_standard(sys_of((2, 4), (6, 2)))
        assert tag == NormalFormTag("diagonal", 2)
        final = replay_trace(tag.trace)
        assert entries(final) == ((0, 0), (0, 0), (2, 2))

    def test_unit_diagonal(self):
        assert classify_standard(sys_of((1, 1))) == NormalFormTag("diagonal", 1)

    def test_zero_type(self):
        tag = classify_standard(sys_of((0, 0), (0, 0)))
        assert tag == NormalFormTag("zero", 0)
        assert entries(replay_trace(tag.trace)) == ((0, 0), (0, 0), (0, 0))

    def test_nontrivial_label_rejected(self):
        with pytest.raises(NonTrivialLabel):
            classify_standard(sys_of((1, 0), labels=[gen(1)], g=1))

    def test_pure_coreloop_system(self):
        tag = classify_standard(sys_of((0, 3)))
        assert tag == NormalFormTag("off", 3)
        assert entries(replay_trace(tag.trace)) == ((0, 0), (3, 0))

    @given(trivial_systems(max_handles=3, bound=6))
    @settings(deadline=None, max_examples=150)
    def test_trace_lands_on_claimed_form(self, s):
        tag = classify_standard(s)
        final = replay_trace(tag.trace)
        g = len(s.handles)
        assert all(e == (0, 0) for e in entries(final)[:g])
        expect = {
            "diagonal": (tag.k, tag.k),
            "off": (tag.k, 0),
            "zero": (0, 0),
        }[tag.kind]
        assert entries(final)[g] == expect


class TestNormalizeHirose:
    def test_zero_handle(self):
        tag = normalize_hirose(sys_of((0, 0)))
        assert tag == NormalFormTag("zero", 0)

    def test_empty_system(self):
        tag = normalize_hirose(HandleSystem(0, ()))
        assert tag == NormalFormTag("zero", 0)
        assert tag.trace.steps == ()

    def test_single_handle_cross_check(self):
        s = sys_of((2, 1))
        tag = normalize_hirose(s)
        assert tag == classify_standard(s)

    def test_split_unit_pair(self):
        tag = normalize_hirose(sys_of((1, 0), (0, 1)))
        assert tag == NormalFormTag("off", 1)
        assert entries(replay_trace(tag.trace)) == ((1, 0), (0, 0))

    def test_nontrivial_label_rejected(self):
        with pytest.raises(NonTrivialLabel):
            normalize_hirose(sys_of((1, 0), labels=[gen(1)], g=1))

    @given(trivial_systems(max_handles=3, bound=6))
    @settings(deadline=None, max_examples=150)
    def test_agrees_with_classification_and_replays(self, s):
        tag = normalize_hirose(s)
        assert tag == classify_standard(s)
        final = replay_trace(tag.trace)
        assert tag.trace.initial == s
        assert len(final.handles) == len(s.handles)
        expect = {
            "diagonal": (tag.k, tag.k),
            "off": (tag.k, 0),
            "zero": (0, 0),
        }[tag.kind]
        assert entries(final)[0] == expect
        assert all(e == (0, 0) for e in entries(final)[1:])


class TestReplay:
    def test_empty_trace(self):
        s = sys_of((1, 1))
        assert replay_trace(HandleTrace(s, ())) == s

    def test_illegal_step_reports_index(self):
        s = sys_of((1, 0), (2, 0), labels=[TRIV, gen(1)], g=1)
        trace = HandleTrace(s, (Invert(1), Rotate(2, "cw"), Invert(1)))
        with pytest.raises(IllegalStep) as exc:
            replay_trace(trace)
        assert exc.value.index == 1

    def test_out_of_range_step(self):
        trace = HandleTrace(sys_of((1, 0)), (Invert(3),))
        with pytest.raises(IllegalStep) as exc:
            replay_trace(trace)
        assert exc.value.index == 0


class TestEnumerateReachable:
    def test_all_zero_is_isolated(self):
        ball = enumerate_reachable(sys_of((0, 0)), 1, 3)
        assert ball == {sys_of((0, 0))}

    def test_rotation_neighbor(self):
        ball = enumerate_reachable(sys_of((1, 0)), 2, 3)
        assert sys_of((0, -1)) in ball

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded, match="states reached by layer"):
            enumerate_reachable(sys_of((1, 0), (0, 1)), 6, 9, max_states=50)

    @pytest.mark.parametrize("labels, force_slow, search", [
        (None, False, "handle search"),
        (None, True, "reachability search"),
        ([gen(1), TRIV], False, "reachability search"),
    ])
    def test_every_search_names_how_far_it_got(self, labels, force_slow, search):
        s = sys_of((1, 0), (0, 1), labels=labels, g=1)
        with pytest.raises(BudgetExceeded) as info:
            enumerate_reachable(s, 6, 9, max_states=50, force_slow=force_slow)
        assert str(info.value) == (
            f"{search} exceeded its budget of 50 states: "
            "at least 51 states reached by layer 2"
        )

    @given(trivial_systems(max_handles=2, bound=2))
    @settings(deadline=None, max_examples=30)
    def test_the_count_is_the_number_of_systems(self, s):
        assert count_reachable(s, 3, 5) == len(enumerate_reachable(s, 3, 5))

    def test_a_labelled_system_counts_its_systems(self):
        s = sys_of((1, 0), (0, 1), labels=[gen(1), TRIV], g=1)
        assert count_reachable(s, 2, 6) == len(enumerate_reachable(s, 2, 6)) > 1
        with pytest.raises(BudgetExceeded, match="^handle search exceeded"):
            count_reachable(sys_of((1, 0), (0, 1)), 6, 9, max_states=50)

    @given(trivial_systems(max_handles=2, bound=2))
    @settings(deadline=None, max_examples=30)
    def test_reachable_systems_share_invariants(self, s):
        inv = system_invariants(s)
        for r in enumerate_reachable(s, 3, 5):
            got = system_invariants(r)
            assert (got.d, got.residue) == (inv.d, inv.residue)

    def test_labeled_path_matches_kernel_path(self):
        s = sys_of((1, 2), (2, 0))
        slow = enumerate_reachable(s, 3, 4, force_slow=True)
        fast = enumerate_reachable(s, 3, 4)
        assert slow == fast

    def test_the_kernel_path_makes_one_handle_per_pair(self, monkeypatch):
        made = []

        def counting(*args):
            made.append(DecoratedHandle(*args))
            return made[-1]

        monkeypatch.setattr(handles, "DecoratedHandle", counting)
        ball = enumerate_reachable(sys_of((1, 2), (2, 0), (0, 1)), 3, 4)
        held = [hd for r in ball for hd in r.handles]
        pairs = {(hd.m, hd.n) for hd in held}
        assert len(held) > 3 * len(pairs)
        assert len(made) == len({id(hd) for hd in held}) == len(pairs)

    @pytest.mark.parametrize(
        "pairs, budget, bound",
        [
            (((5, 0), (0, 1)), 2, 3),
            (((0, 7), (1, 0)), 2, 3),
            (((4, 1), (1, 0)), 3, 3),
            (((2, 0), (5, 0)), 3, 3),
            (((20, 3), (1, 1), (0, 2)), 2, 20),
            (((1, 0),) * 7, 1, 2),
        ],
    )
    def test_paths_agree_on_starts_beyond_the_bound(self, pairs, budget, bound):
        # only the start may hold an entry beyond the bound; the tuple
        # kernel prunes its successors like the object-level search does
        s = sys_of(*pairs)
        slow = enumerate_reachable(s, budget, bound, force_slow=True)
        assert enumerate_reachable(s, budget, bound) == slow

    def test_a_slide_can_bring_the_start_inside_the_bound(self):
        ball = enumerate_reachable(sys_of((2, 0), (5, 0)), 1, 3)
        assert sys_of((2, 0), (3, 0)) in ball
        assert all(
            abs(hd.m) <= 3 and abs(hd.n) <= 3 for r in ball - {sys_of((2, 0), (5, 0))}
            for hd in r.handles
        )


class TestOneStep:
    """One step of kernels.handle_ball against apply_handle_move: the move
    rules are stated once in handles.py, and both read them."""

    @given(st.integers(0, 4).flatmap(
        lambda bound: st.tuples(st.just(bound), trivial_systems(max_handles=3, bound=bound + 2))))
    @settings(deadline=None, max_examples=200)
    @example((1, sys_of((3, 0), (0, 1), (1, 0))))
    @example((0, sys_of((0, 0), (2, -2))))
    def test_the_kernel_steps_where_apply_handle_move_does(self, case):
        bound, s = case
        accepted = []
        for mv in every_move(len(s.handles)):
            try:
                accepted.append((mv, apply_handle_move(s, mv)))
            except PreconditionViolated:
                pass
        assert [mv for mv, _ in accepted] == legal_moves(s)
        within = {
            entries(handles._canonical(r)) for _, r in accepted
            if all(abs(v) <= bound for pair in entries(r) for v in pair)
        }
        ball = kernels.handle_ball(entries(s), 1, bound, 10**6)
        assert set(ball) == within | {tuple(sorted(entries(s)))}


class TestTextFormats:
    def test_handles_round_trip(self):
        text = "handles g=2 degree=4 pattern=s1 s2\ng1 2 1\ng1.g2^-1 4 3\n"
        s = parse_handles(text)
        assert s.generator_count == 2
        assert s.pattern_braid == parse_word("s1 s2", 4)
        assert s.handles[0] == DecoratedHandle(gen(1), 2, 1)
        assert s.handles[1] == DecoratedHandle(gen(1) * gen(2, -1), 4, 3)
        assert parse_handles(format_handles(s)) == s

    def test_trivial_label_round_trip(self):
        text = "handles g=0 degree=2 pattern=e\n1 3 -4\n"
        s = parse_handles(text)
        assert s.handles[0] == DecoratedHandle(TRIV, 3, -4)
        assert parse_handles(format_handles(s)) == s

    def test_bad_inputs_rejected(self):
        for text in (
            "nothandles g=1 degree=2 pattern=e\n",
            "handles g=1 degree=2 pattern=e\ng2 1 0\n",
            "handles g=1 degree=2 pattern=e\ng1 1\n",
            "handles g=1 degree=2 pattern=e\ng1 one 0\n",
            "handles degree=2 pattern=e\n",
        ):
            with pytest.raises(ValueError):
                parse_handles(text)

    def test_a_text_with_no_lines_is_an_empty_handle_file(self):
        for text in ("", "\n  \n"):
            with pytest.raises(ParseError) as info:
                parse_handles(text)
            assert str(info.value) == "line 1, column 1: empty handle file"

    def test_a_handle_line_is_read_under_its_system_count(self):
        # handle lines are decoded once per text and generator count: the
        # line legal under g=2 is still refused under g=1
        line = "g2 1 0\n"
        s = parse_handles("handles g=2 degree=2 pattern=e\n" + line)
        assert s.handles == (DecoratedHandle(gen(2), 1, 0),)
        with pytest.raises(ValueError, match="line 2, column 1: .* exceeds system count 1"):
            parse_handles("handles g=1 degree=2 pattern=e\n" + line)

    def test_trace_round_trip(self):
        moves = (
            Invert(1),
            Twist(1, 1),
            Rotate(2, "cw"),
            Slide(1, 2, "A"),
            Transfer7(1, 2, 1),
            Transfer9(1, 2, -1),
        )
        text = format_trace(HandleTrace(HandleSystem(0), moves))
        assert text.splitlines()[1:] == [
            "invert 1",
            "twist 1 +",
            "rotate 2 cw",
            "slide 1 over 2 A",
            "transfer7 1 2 +",
            "transfer9 1 2 -",
        ]
        assert parse_trace(text) == (HandleSystem(0), moves)

    def test_every_move_class_has_a_verb(self):
        assert {cls for cls, _ in handles._VERBS.values()} == set(get_args(HandleMove))
        with pytest.raises(TypeError):
            format_trace(HandleTrace(HandleSystem(0), (HandleLabel(()),)))

    def test_a_trace_file_round_trips_with_its_start(self):
        t = normalize_with_stabilizer(sys_of((2, 4), (6, 0)))[1]
        text = format_trace(t)
        assert text.startswith("handles g=0 degree=2 pattern=e\n1 2 4\n1 6 0\n1 0 0\n")
        assert parse_trace(text) == (t.initial, t.steps)

    def test_a_trace_of_move_lines_only_has_no_start(self):
        assert parse_trace("\nslide 1 over 2 A\ninvert 2\n") == (
            None, (Slide(1, 2, "A"), Invert(2))
        )
        assert parse_trace("") == (None, ())

    def test_a_bad_trace_line_is_numbered_from_the_top_of_the_file(self):
        start = "handles g=0 degree=2 pattern=e\n1 1 0\n"
        for text, message in (
            (start + "invert 1\ntwist 1 2\n",
             "line 4, column 9: bad move: expected + or -, got '2'"),
            # leading and inner blank lines are counted too
            ("\n\n" + start + "\ninvert 1\ntwist 1 2\n",
             "line 7, column 9: bad move: expected + or -, got '2'"),
            ("\n\nhandles g=0 degree=2 pattern=e\n1 x 0\ninvert 1\n",
             "line 4, column 3: bad handle: expected an integer, got 'x'"),
            ("\nhandles g=0 degree=2 pattern=q\ninvert 1\n",
             "line 2, column 1: bad pattern braid: bad braid letter 'q'"),
        ):
            with pytest.raises(ParseError) as info:
                parse_trace(text)
            assert str(info.value) == message

    def test_stabilized_appends_trivial_handles(self):
        s = sys_of((2, 4), labels=[gen(1)], g=1)
        assert stabilized(s, 0) == s
        assert stabilized(s, 2) == HandleSystem(1, (h(2, 4, gen(1)), h(0, 0), h(0, 0)))
        assert stabilized(s, -1) == s

    def test_bad_trace_rejected(self):
        for text in ("invert", "twist 1 2", "slide 1 over 1 C", "invert 1\nwobble 3"):
            with pytest.raises(ParseError, match="bad move"):
                parse_trace(text)
