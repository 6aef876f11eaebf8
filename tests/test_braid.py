from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from handleforge import braid
from handleforge.braid import (
    BraidLetter,
    BraidWord,
    DegreeMismatch,
    conjugate,
    format_word,
    free_reduce,
    is_identity,
    oracle_is_identity,
    parse_word,
    permutation_of,
    reduce_far_commutation,
)


def w(text, degree=4):
    return parse_word(text, degree)


@st.composite
def braid_words(draw, min_degree=2, max_degree=4, max_len=10):
    degree = draw(st.integers(min_degree, max_degree))
    n = draw(st.integers(0, max_len))
    vals = [
        draw(st.integers(1, degree - 1)) * draw(st.sampled_from((1, -1)))
        for _ in range(n)
    ]
    return BraidWord.from_signed(degree, vals)


class TestConstruction:
    def test_degree_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            BraidWord(1, ())

    def test_letter_index_must_fit_degree(self):
        with pytest.raises(ValueError):
            BraidWord(3, (BraidLetter(3, 1),))

    def test_letter_sign_must_be_unit(self):
        with pytest.raises(ValueError):
            BraidWord(3, (BraidLetter(1, 2),))

    def test_words_are_hashable_values(self):
        assert w("s1 s2") == w("s1 s2")
        assert hash(w("s1 s2")) == hash(w("s1 s2"))
        assert w("s1 s2") != w("s2 s1")


class TestSerialization:
    def test_parse_basic(self):
        word = w("s3 S1 s2")
        assert word.signed() == (3, -1, 2)

    def test_empty_word_spelled_e(self):
        assert w("e").letters == ()
        assert format_word(w("e")) == "e"

    def test_round_trip(self):
        for text in ("e", "s1", "S2", "s3 S1 s2", "s1 s1 S3"):
            assert format_word(w(text)) == text

    def test_rejects_garbage(self):
        for text in ("sx", "s0", "s4", "q1", "s1s2", "E"):
            with pytest.raises(ValueError):
                parse_word(text, 4)


class TestFreeReduce:
    def test_cancels_adjacent_inverse_pair(self):
        assert free_reduce(w("s1 S1")) == w("e")

    def test_identity_fixed(self):
        assert free_reduce(w("e")) == w("e")

    def test_single_pass_scan(self):
        assert free_reduce(w("s3 S3 s1")) == w("s1")

    def test_nested_cancellation(self):
        assert free_reduce(w("s1 s2 S2 S1")) == w("e")

    @given(braid_words())
    def test_idempotent(self, word):
        once = free_reduce(word)
        assert free_reduce(once) == once

    @given(braid_words())
    def test_no_adjacent_inverse_pair_remains(self, word):
        vals = free_reduce(word).signed()
        assert all(a != -b for a, b in zip(vals, vals[1:]))


class TestPermutation:
    def test_identity(self):
        assert permutation_of(w("e", 3)) == (1, 2, 3)

    def test_single_generator_is_transposition(self):
        assert permutation_of(w("s1", 2)) == (2, 1)

    def test_two_generators_compose_to_cycle(self):
        # images read left to right: 1 -> 2, 2 -> 3, 3 -> 1
        assert permutation_of(w("s1 s2", 3)) == (2, 3, 1)

    def test_sign_does_not_change_the_image(self):
        assert permutation_of(w("S1", 2)) == (2, 1)

    @given(braid_words())
    def test_always_a_permutation(self, word):
        perm = permutation_of(word)
        assert sorted(perm) == list(range(1, word.degree + 1))


class TestFarCommutation:
    def test_sorts_commuting_pair(self):
        assert reduce_far_commutation(w("s3 s1")) == w("s1 s3")

    def test_adjacent_indices_do_not_move(self):
        assert reduce_far_commutation(w("s1 s2")) == w("s1 s2")

    def test_swap_can_expose_cancellation(self):
        assert reduce_far_commutation(w("s3 s1 S3")) == w("s1")

    @given(braid_words())
    def test_idempotent(self, word):
        once = reduce_far_commutation(word)
        assert reduce_far_commutation(once) == once

    @given(braid_words())
    def test_preserves_permutation(self, word):
        assert permutation_of(reduce_far_commutation(word)) == permutation_of(word)

    @given(braid_words(max_len=8))
    @settings(deadline=None)
    def test_preserves_triviality_verdict(self, word):
        assert is_identity(reduce_far_commutation(word)) == is_identity(word)


class TestIsIdentity:
    def test_conjugate_of_identity(self):
        assert is_identity(w("s2 s1 s2 S2 S1 S2")) is True

    def test_single_generator_is_not_identity(self):
        assert is_identity(w("s1")) is False

    def test_adjacent_relator_word(self):
        assert is_identity(w("s1 s2 s1 S2 S1 S2")) is True

    def test_far_commutator(self):
        assert is_identity(w("s1 s3 S1 S3")) is True

    def test_near_commutator_is_nontrivial(self):
        assert is_identity(w("s1 s2 S1 S2")) is False

    def test_central_full_twist_is_nontrivial(self):
        assert is_identity(w("s1 s2 s1 s2 s1 s2", 3)) is False

    def test_relator_at_higher_indices(self):
        assert is_identity(w("s2 s3 s2 S3 S2 S3")) is True

    @given(braid_words(max_len=6))
    @settings(deadline=None)
    def test_commutator_with_inverse_is_trivial(self, word):
        assert is_identity(word * word.inverse()) is True

    @given(braid_words(max_len=6))
    @settings(deadline=None)
    def test_trivial_words_have_identity_permutation(self, word):
        if is_identity(word):
            assert permutation_of(word) == tuple(range(1, word.degree + 1))


class TestConjugate:
    def test_by_identity(self):
        assert conjugate(w("s2"), w("e")) == w("s2")

    def test_of_identity(self):
        assert conjugate(w("e"), w("s1")) == w("e")

    def test_concatenates_and_reduces_only_freely(self):
        assert conjugate(w("s3"), w("s1")) == w("s1 s3 S1")

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            conjugate(w("s1", 2), w("s1", 3))

    @given(braid_words(max_len=5), braid_words(max_len=5))
    @settings(deadline=None)
    def test_preserves_triviality(self, a, b):
        if a.degree != b.degree:
            b = BraidWord.from_signed(a.degree, [v for v in b.signed() if abs(v) < a.degree])
        assert is_identity(conjugate(a, b)) == is_identity(a)


class TestBoundedOracle:
    def test_agrees_on_tiny_words(self):
        # full sweep at degree 3, short lengths: the rewriting search and the
        # handle-reduction decision procedure must say the same thing
        alphabet = (1, -1, 2, -2)
        words = [()]
        for _ in range(4):
            words = [t + (v,) for t in words for v in alphabet]
            for vals in words:
                word = BraidWord.from_signed(3, vals)
                assert oracle_is_identity(word, excursion_cap=8) == is_identity(word)

    def test_positive_on_relator(self):
        assert oracle_is_identity(w("s1 s2 s1 S2 S1 S2"), excursion_cap=8) is True

    def test_negative_on_generator(self):
        assert oracle_is_identity(w("s1"), excursion_cap=6) is False


class TestKernelBackends:
    def test_backend_reports_its_name(self):
        from handleforge import kernels

        assert kernels.BACKEND in ("compiled", "pure")

    def test_pure_and_compiled_agree_when_both_present(self):
        from handleforge import _kernels_py

        try:
            from handleforge import _kernels
        except ImportError:
            pytest.skip("compiled kernels unavailable")
        import random

        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(0, 12)
            vals = [rng.choice((1, -1)) * rng.randrange(1, 4) for _ in range(n)]
            assert _kernels.dehornoy_trivial(vals, 4) == _kernels_py.dehornoy_trivial(vals, 4)
        for degree, universe, cap in ((3, 6, 8), (4, 6, 8)):
            assert sorted(
                _kernels.identity_component(degree, universe, cap, 1_000_000)
            ) == sorted(_kernels_py.identity_component(degree, universe, cap, 1_000_000))

    def test_component_membership_matches_direct_reduction(self):
        from handleforge import kernels

        packed = set(kernels.identity_component(3, 4, 6, 1_000_000))
        alphabet = (1, -1, 2, -2)
        words = [()]
        all_words = [()]
        for _ in range(4):
            words = [t + (v,) for t in words for v in alphabet]
            all_words.extend(words)
        for vals in all_words:
            expected = kernels.dehornoy_trivial(list(vals), 3)
            got = kernels.pack_word(vals, 3) in packed
            assert got == expected, vals

    @pytest.mark.parametrize("degree, universe, cap", [(3, 4, 6), (3, 6, 6), (4, 4, 6)])
    def test_component_membership_matches_bounded_search(self, degree, universe, cap):
        # a word of length <= cap lies in the closure exactly when the
        # rewriting search from it reaches the empty word within the cap
        from handleforge import kernels

        packed = kernels.identity_component(degree, universe, cap, 1_000_000)
        component = set(packed)
        assert len(component) == len(packed)
        letters = [v for i in range(1, degree) for v in (i, -i)]
        for length in range(universe + 1):
            for vals in product(letters, repeat=length):
                got = kernels.pack_word(vals, degree) in component
                assert got == kernels.word_reaches_identity(vals, degree, cap, 1_000_000), vals

    def test_component_state_limit(self):
        from handleforge import _kernels_py

        # with universe_len == cap the closure returns every state it visits
        states = len(_kernels_py.identity_component(4, 6, 6, 1_000_000))
        assert len(_kernels_py.identity_component(4, 6, 6, states)) == states
        with pytest.raises(RuntimeError):
            _kernels_py.identity_component(4, 6, 6, states - 1)

    def test_component_rejects_caps_that_do_not_pack(self):
        from handleforge import _kernels_py

        # 7**20 * 64 < 2**64 <= 7**21 * 64 and 3**36 * 64 < 2**64 <= 3**37 * 64:
        # the largest caps that pack are searched (and stopped by the state
        # limit), one letter more is refused before any state could collide
        for degree, largest in ((4, 20), (2, 36)):
            with pytest.raises(RuntimeError):
                _kernels_py.identity_component(degree, 0, largest, 1_000)
            with pytest.raises(ValueError):
                _kernels_py.identity_component(degree, 0, largest + 1, 1_000)


class TestKernelLimits:
    def test_pack_word_refuses_words_of_64_letters(self):
        from handleforge import _kernels_py

        word = (1, -2, 3) * 21  # 63 letters: the longest length field
        assert _kernels_py.unpack_word(_kernels_py.pack_word(word, 4), 4) == word
        with pytest.raises(ValueError):
            _kernels_py.pack_word(word + (1,), 4)
        with pytest.raises(ValueError):
            _kernels_py.pack_word((1,) * 64, 2)

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
                    max_size=63,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_pack_word_round_trips_below_the_limit(self, case):
        from handleforge import _kernels_py

        degree, word = case
        packed = _kernels_py.pack_word(word, degree)
        assert _kernels_py.unpack_word(packed, degree) == tuple(word)

    def test_oracle_budget_is_a_typed_error(self):
        from handleforge.errors import BudgetExceeded
        from handleforge.handles import BudgetExceeded as HandlesBudgetExceeded

        assert HandlesBudgetExceeded is BudgetExceeded
        word = BraidWord.from_signed(4, (1, 2, 1, -2, -1, -2) * 2)
        with pytest.raises(BudgetExceeded):
            braid.oracle_is_identity(word, 14, 20_000)
