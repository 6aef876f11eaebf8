import dataclasses
import hashlib
import random
from array import array
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from handleforge import braid, kernels
from handleforge.errors import BudgetExceeded
from handleforge.braid import (
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
        for letter in (3, -3, 0):
            with pytest.raises(ValueError):
                BraidWord(3, (1, letter))
            with pytest.raises(ValueError):
                BraidWord.from_signed(3, (letter, -2))
        assert BraidWord(3, (2, -2, 1, -1)).letters == (2, -2, 1, -1)

    def test_letter_zero_is_refused(self):
        with pytest.raises(ValueError, match="letter index 0"):
            BraidWord(4, (0,))
        with pytest.raises(ValueError):
            BraidWord.from_signed(2, (1, 0, -1))

    @given(braid_words())
    def test_signed_round_trip_and_inverse(self, word):
        assert word.signed() == word.letters
        assert BraidWord.from_signed(word.degree, word.signed()) == word
        assert word.inverse().letters == tuple(-v for v in reversed(word.letters))
        assert word.inverse().inverse() == word

    def test_words_are_hashable_values(self):
        assert w("s1 s2") == w("s1 s2")
        assert hash(w("s1 s2")) == hash(w("s1 s2"))
        assert w("s1 s2") != w("s2 s1")

    def test_length_and_product(self):
        # the benchmark's word search sets its length cap from len(word)
        assert len(BraidWord(4, (1, -3, 2))) == 3 and len(BraidWord(4)) == 0
        assert BraidWord(4, (1,)) * BraidWord(4, (-2,)) == BraidWord(4, (1, -2))
        with pytest.raises(DegreeMismatch) as info:
            BraidWord(3, (1,)) * BraidWord(4, (1,))
        assert str(info.value) == "cannot multiply words of degree 3 and 4"


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



def plain_handle_reduction(values):
    """Handle reduction with no invariant filter: the reference for dehornoy_trivial."""
    w = kernels.free_cancel(values)
    while w:
        hit = kernels._find_handle(w)
        if hit is None:
            return False
        p, q = hit
        e = 1 if w[p] > 0 else -1
        i = abs(w[p])
        out = w[:p]
        for v in w[p + 1 : q]:
            if abs(v) == i + 1:
                out += [-e * (i + 1), i if v > 0 else -i, e * (i + 1)]
            else:
                out.append(v)
        out.extend(w[q + 1 :])
        w = kernels.free_cancel(out)
    return True


def passes_filters(values, degree):
    exponent_sum = sum(1 if v > 0 else -1 for v in values)
    return exponent_sum == 0 and kernels.strand_permutation(values, degree) == list(
        range(degree + 1)
    )


def inverse_of(values):
    return tuple(-v for v in reversed(values))


class TestInvariantFilters:
    def random_word(self, rng, degree, length):
        return tuple(rng.randrange(1, degree) * rng.choice((1, -1)) for _ in range(length))

    def pure_word(self, rng, degree, length):
        # conjugates of squares of generators, one of each sign: exponent
        # sum 0 and the identity permutation, so handle reduction decides
        out = ()
        for sign in (1, -1, 1, -1):
            g = self.random_word(rng, degree, rng.randrange(length // 4 + 1))
            i = rng.randrange(1, degree)
            out += g + (sign * i, sign * i) + inverse_of(g)
        return out

    def test_filters_keep_the_verdict_of_handle_reduction(self):
        rng = random.Random(1301)
        reached = Counter()
        # degrees 7 and 8 lie above kernels.TABLE_DEGREE
        for degree in range(2, 9):
            for _ in range(300):
                length = rng.randrange(10, 41)
                for vals in (self.random_word(rng, degree, length),
                             self.pure_word(rng, degree, length)):
                    expected = plain_handle_reduction(vals)
                    assert kernels.dehornoy_trivial(vals, degree) == expected, (degree, vals)
                    if passes_filters(vals, degree):
                        reached[expected] += 1
        # both verdicts come out of handle reduction, not only the filters
        assert reached[True] > 50 and reached[False] > 500

    def test_conjugated_relators_are_trivial(self):
        rng = random.Random(1302)
        for degree in range(3, 7):
            for _ in range(50):
                i = rng.randrange(1, degree - 1)
                j = rng.choice([k for k in range(1, degree) if abs(k - i) >= 2] or [i])
                relators = [(i, i + 1, i, -(i + 1), -i, -(i + 1)), (i, -i)]
                if j != i:
                    relators.append((i, j, -i, -j))
                g = self.random_word(rng, degree, rng.randrange(1, 12))
                for r in relators:
                    vals = g + r + inverse_of(g)
                    assert kernels.dehornoy_trivial(vals, degree) is True, vals
                    assert kernels.dehornoy_trivial(vals + (i,), degree) is False

    def test_a_word_that_passes_both_filters_can_be_nontrivial(self):
        vals = (1, 1, 2, 2, -1, -1, -2, -2)
        assert passes_filters(vals, 3)
        assert kernels.dehornoy_trivial(vals, 3) is False
        assert plain_handle_reduction(vals) is False

    def test_degree_two_is_decided_by_the_exponent_sum(self):
        for length in range(9):
            for vals in product((1, -1), repeat=length):
                assert kernels.dehornoy_trivial(vals, 2) == (sum(vals) == 0)

    def test_out_of_range_letters_are_refused(self):
        for vals, degree in (((5, -5), 4), ((4, -4), 3), ((0, 0), 3), ((1, 0, -1), 3),
                             ((4,), 4), ((-4, 1, 1), 4), ((0,), 2)):
            with pytest.raises(ValueError, match="out of range for degree"):
                kernels.dehornoy_trivial(vals, degree)

    def test_from_signed_equals_the_direct_constructor(self):
        rng = random.Random(1303)
        for degree in range(2, 7):
            for length in range(12):
                vals = self.random_word(rng, degree, length)
                for given_as in (vals, list(vals), iter(vals)):
                    word = BraidWord.from_signed(degree, given_as)
                    assert word == BraidWord(degree, vals)
                    assert hash(word) == hash(BraidWord(degree, vals))
                    assert repr(word) == repr(BraidWord(degree, vals))

    def test_from_signed_is_a_frozen_dataclass_value(self):
        word = BraidWord.from_signed(4, (1, -3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            word.degree = 5
        assert dataclasses.replace(word, letters=(2,)) == BraidWord(4, (2,))
        with pytest.raises(ValueError, match="letter index 3 out of range for degree 3"):
            dataclasses.replace(word, degree=3)
        with pytest.raises(ValueError, match="degree must be at least 2, got 1"):
            BraidWord.from_signed(1, ())

    def test_letters_of_high_degrees_are_checked(self):
        assert BraidWord(100, (99, -99, 1)).letters == (99, -99, 1)
        for letter in (100, -100, 0):
            with pytest.raises(ValueError, match=f"letter index {abs(letter)} "):
                BraidWord.from_signed(100, (1, letter))

    def test_an_unhashable_letter_is_refused_alike_below_and_above_the_cap(self):
        np = pytest.importorskip("numpy")
        for degree in (4, kernels.TABLE_DEGREE + 2):
            with pytest.raises(ValueError) as exc:
                BraidWord.from_signed(degree, (np.array(1), -1))
            assert str(exc.value) == (
                f"the letters (array(1), -1) are not all of +-1 .. +-{degree - 1}"
            )


def walk_step_table(values, degree):
    """The number dehornoy_trivial's step table gives the word's permutation."""
    step = kernels._degree_tables(degree)[1]
    p = 0
    for v in values:
        p = step[p][v]
    return p


class TestDegreeTables:
    @pytest.mark.parametrize("degree", range(2, kernels.TABLE_DEGREE + 1))
    def test_step_table_agrees_with_strand_permutation(self, degree):
        # every word of at most 6 letters: one number per strand
        # permutation, and the identity's number is 0
        letters = [v for i in range(1, degree) for v in (i, -i)]
        permutation_of_number = {}
        for n in range(7):
            for vals in product(letters, repeat=n):
                perm = tuple(kernels.strand_permutation(vals, degree))
                number = walk_step_table(vals, degree)
                assert permutation_of_number.setdefault(number, perm) == perm, vals
        assert len(set(permutation_of_number.values())) == len(permutation_of_number)
        assert permutation_of_number[0] == tuple(range(degree + 1))

    def test_no_table_above_the_cap(self):
        before = set(kernels._TABLES)
        for degree in (kernels.TABLE_DEGREE + 1, 10**6):
            word = BraidWord.from_signed(degree, (1, -1))
            assert is_identity(word) and not is_identity(word * BraidWord(degree, (1,)))
            assert kernels.pack_word(word.letters, degree) > 0
        assert kernels.word_reaches_identity((1, -1), kernels.TABLE_DEGREE + 1, 4, 100)
        assert set(kernels._TABLES) == before

    def test_is_identity_reaches_the_kernel_through_the_module(self, monkeypatch):
        # a wrapper put in place of kernels.dehornoy_trivial, as the
        # benchmark's tracer does, sees every call of braid.is_identity
        calls = []
        monkeypatch.setattr(kernels, "dehornoy_trivial", lambda vals, degree: calls.append(vals))
        is_identity(BraidWord(3, (1, -1)))
        assert calls == [(1, -1)]

    @pytest.mark.parametrize("degree", [4, kernels.TABLE_DEGREE + 1, 10**6])
    @pytest.mark.parametrize("letter", [1.5, "1", None, float("nan"), float("inf"), [1]])
    def test_letters_that_are_not_integers_are_refused(self, degree, letter):
        message = f"letter {letter!r} is not an integer"
        for check in (
            lambda: BraidWord(degree, (1, letter)),
            lambda: BraidWord.from_signed(degree, (letter, -1)),
            lambda: kernels.dehornoy_trivial((letter,), degree),
            lambda: kernels.dehornoy_trivial((letter, -1), degree),
            lambda: kernels.pack_word((letter,), degree),
            lambda: kernels.word_reaches_identity((letter, -1), degree, 4, 100),
        ):
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == message

    def test_a_letter_the_letter_set_cannot_hold_is_refused(self):
        # a 0-d array equals 1 but is unhashable: no single letter is at
        # fault, so the refusal names the word
        import numpy as np

        with pytest.raises(ValueError) as info:
            BraidWord.from_signed(4, (np.array(1),))
        assert str(info.value) == "the letters (array(1),) are not all of +-1 .. +-3"

    @pytest.mark.parametrize("degree", [4, kernels.TABLE_DEGREE + 1])
    def test_letters_equal_to_integers_are_read_by_value(self, degree):
        for one in (True, 1.0):
            word = BraidWord.from_signed(degree, (one, -1.0, 2))
            assert word == BraidWord(degree, (1, -1, 2))
            assert not is_identity(word) and is_identity(BraidWord(degree, (one, -1)))
            assert kernels.pack_word(word.letters, degree) == kernels.pack_word((1, -1, 2), degree)
            assert permutation_of(word) == permutation_of(BraidWord(degree, (2,)))
            assert format_word(word) == "s1 S1 s2"
        with pytest.raises(ValueError, match=f"letter index {degree} out of range"):
            BraidWord(degree, (float(degree),))


def legal_letter(v, degree):
    """Whether a letter is an integer of +-1 .. +-(degree-1) by value that
    the letter sets can hold, worked out without the kernels."""
    try:
        hash(v)
        return int(v) == v and 0 < abs(int(v)) < degree
    except (TypeError, ValueError, OverflowError):
        return False


def refusal_of(call):
    """The ValueError message of call(), or None when it returns."""
    try:
        call()
    except ValueError as e:
        return str(e)
    return None


class TestRefusalParity:
    DEGREES = (2, 4, 6, 7, 10**6)

    @staticmethod
    def letters(degree):
        np = pytest.importorskip("numpy")
        return (True, 1.0, np.int64(2), np.array(1), 1.5, "1", None, [1], 0, 10**30,
                degree, -degree)

    @staticmethod
    def unchecked_word(degree, vals):
        # a word that skipped construction, so is_identity sees the letters raw
        word = object.__new__(BraidWord)
        object.__setattr__(word, "degree", degree)
        object.__setattr__(word, "letters", vals)
        return word

    @pytest.mark.parametrize("degree", DEGREES)
    def test_every_entry_point_accepts_and_refuses_alike(self, degree):
        for d in range(2, kernels.TABLE_DEGREE + 1):
            kernels._degree_tables(d)  # so the table walks decide, not the build
        for x in self.letters(degree):
            # the last two are of odd length with a nonzero exponent sum
            # besides x: a letter that is refused must be refused, not decided
            for vals in ((x,), (x, -1), (1, x), (x, 1, -1), (1, x, 1), (-1, -1, x)):
                ok = all(legal_letter(v, degree) for v in vals)
                want = None if ok else str(kernels._letter_error(vals, degree))
                got = [
                    refusal_of(lambda: BraidWord.from_signed(degree, vals)),
                    refusal_of(lambda: BraidWord(degree, vals)),
                    refusal_of(lambda: is_identity(self.unchecked_word(degree, vals))),
                    refusal_of(lambda: kernels.dehornoy_trivial(vals, degree)),
                ]
                assert got == [want] * 4, (degree, vals)
                if not ok:
                    continue
                ints = tuple(map(int, vals))
                trivial = (
                    kernels.strand_permutation(ints, degree) == list(range(degree + 1))
                    and sum(ints) == 0
                    and (degree > 7 or kernels.word_reaches_identity(ints, degree, 8, 10**5))
                )
                word = BraidWord.from_signed(degree, vals)
                assert word == BraidWord(degree, vals) and word.letters == vals
                assert is_identity(word) is kernels.dehornoy_trivial(vals, degree) is trivial

    def test_each_kind_of_refusal_is_reached(self):
        np = pytest.importorskip("numpy")
        assert refusal_of(lambda: BraidWord.from_signed(4, (1, [1], 1))) == "letter [1] is not an integer"
        assert refusal_of(lambda: kernels.dehornoy_trivial((1, np.array(1), 1), 4)) == (
            "the letters (1, array(1), 1) are not all of +-1 .. +-3"
        )
        assert refusal_of(lambda: kernels.dehornoy_trivial((1, 1, 4), 4)) == (
            "letter index 4 out of range for degree 4"
        )


class TestDegreeRefusals:
    @pytest.mark.parametrize("degree", [4.0, 2.5, 7.0, "4", None, [4]])
    def test_a_degree_that_is_not_an_integer_is_refused(self, degree):
        message = f"degree {degree!r} is not an integer"
        for check in (
            lambda: BraidWord.from_signed(degree, (1, -1)),
            lambda: BraidWord.from_signed(degree, ()),
            lambda: BraidWord(degree, ()),
            lambda: kernels.dehornoy_trivial((1, -1), degree),
            lambda: kernels.check_letters((), degree),
            lambda: kernels.pack_word((1,), degree),
            lambda: kernels.word_reaches_identity((1, -1), degree, 4, 100),
        ):
            assert refusal_of(check) == message

    def test_integer_degrees_of_other_types_are_read_by_value(self):
        np = pytest.importorskip("numpy")
        for degree in (np.int64(4), np.int64(kernels.TABLE_DEGREE + 2)):
            word = BraidWord.from_signed(degree, (1, 2, -1, -2))
            assert word == BraidWord(degree, (1, 2, -1, -2))
            assert not is_identity(word)
            assert is_identity(BraidWord(degree, (1, 2, -2, -1)))
            assert kernels.dehornoy_trivial((3, -3), degree)
            assert refusal_of(lambda: BraidWord(degree, (degree,))) == (
                f"letter index {degree} out of range for degree {degree}"
            )

    def test_degrees_below_two_are_refused_by_words_only(self):
        for degree in (True, False, 1, 0, -3):
            message = f"degree must be at least 2, got {degree}"
            assert refusal_of(lambda: BraidWord.from_signed(degree, ())) == message
            assert refusal_of(lambda: BraidWord(degree, ())) == message
            # the kernel itself decides the empty word at any integer degree
            assert kernels.dehornoy_trivial((), degree) is True
            assert refusal_of(lambda: kernels.dehornoy_trivial((1,), degree)) == (
                f"letter index 1 out of range for degree {degree}"
            )


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
        assert kernels.BACKEND == "pure"

    def test_component_membership_matches_direct_reduction(self):
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
        packed = kernels.identity_component(degree, universe, cap, 1_000_000)
        component = set(packed)
        assert len(component) == len(packed)
        letters = [v for i in range(1, degree) for v in (i, -i)]
        for length in range(universe + 1):
            for vals in product(letters, repeat=length):
                got = kernels.pack_word(vals, degree) in component
                assert got == kernels.word_reaches_identity(vals, degree, cap, 1_000_000), vals

    def test_component_state_limit(self):
        # with universe_len == cap the closure returns every state it visits
        states = len(kernels.identity_component(4, 6, 6, 1_000_000))
        assert len(kernels.identity_component(4, 6, 6, states)) == states
        with pytest.raises(BudgetExceeded):
            kernels.identity_component(4, 6, 6, states - 1)

    def test_component_rejects_caps_that_do_not_pack(self):
        # 7**20 * 64 < 2**64 <= 7**21 * 64 and 3**36 * 64 < 2**64 <= 3**37 * 64:
        # the largest caps that pack are searched (and stopped by the state
        # limit), one letter more is refused before any state could collide
        for degree, largest in ((4, 20), (2, 36)):
            with pytest.raises(BudgetExceeded):
                kernels.identity_component(degree, 0, largest, 1_000)
            with pytest.raises(ValueError):
                kernels.identity_component(degree, 0, largest + 1, 1_000)


def closure_layers(degree, cap, unfold):
    import numpy as np

    start = {0: np.zeros(1, dtype=np.uint64)}
    return list(kernels._layers(degree, start, cap, 40_000_000, "closure", unfold))


def symmetric_images(vals, degree):
    """The word's images under reverse-and-invert, the index flip and the mirror."""
    return (
        tuple(-v for v in reversed(vals)),
        tuple(v // abs(v) * (degree - abs(v)) for v in vals),
        tuple(-v for v in vals),
    )


class TestIdentityClosure:
    # sha256 of the returned words' bytes, pinned before the closure expanded
    # one word per symmetry orbit: they fix both the words and their order
    DIGESTS = {
        (4, 8, 10): "860f22aa5097f15f0e6f382e36b3a8471d057c6354c3e84e2f0746fc7c8db4eb",
        (5, 6, 8): "5daaaa09093d63fba5a6435afc4b59abccdccbb42c0ae07b47805504035b442e",
        (2, 12, 14): "e48eeeb5063e0b22773d6b9458ea6105df59b40b9fdaab99211e766789ca105d",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_pinned_words_and_order(self, case):
        packed = kernels.identity_component(*case, 1_000_000)
        assert isinstance(packed, array) and packed.typecode == "Q"
        assert hashlib.sha256(packed.tobytes()).hexdigest() == self.DIGESTS[case]

    def test_counts_per_length(self):
        packed = kernels.identity_component(4, 10, 10, 1_000_000)
        counts = Counter(p % 64 for p in packed)
        assert [counts[n] for n in range(0, 11, 2)] == [1, 6, 74, 1164, 20778, 401716]
        assert sum(counts.values()) == len(packed)

    @pytest.mark.parametrize("degree, cap", [(4, 10), (5, 8), (2, 14), (3, 9)])
    def test_orbit_expansion_gives_the_layers_of_full_expansion(self, degree, cap):
        full = closure_layers(degree, cap, kernels._each_word)
        orbits = closure_layers(degree, cap, kernels._orbit_unfold(degree))
        assert [list(layer) for layer in orbits] == [list(layer) for layer in full]
        for got, want in zip(orbits, full):
            for length in want:
                assert (got[length] == want[length]).all()

    @pytest.mark.parametrize("degree, universe, cap", [(5, 6, 8), (2, 12, 14)])
    def test_membership_matches_handle_reduction(self, degree, universe, cap):
        # the flip fixes no letter at degree 5 and is trivial at degree 2
        component = set(kernels.identity_component(degree, universe, cap, 1_000_000))
        for vals in all_words(degree, universe):
            got = kernels.pack_word(vals, degree) in component
            assert got == kernels.dehornoy_trivial(vals, degree), vals

    @pytest.mark.parametrize("case", [(4, 8, 10), (5, 6, 8), (3, 8, 9)])
    def test_closed_under_the_symmetries(self, case):
        degree = case[0]
        packed = kernels.identity_component(*case, 1_000_000)
        component = set(packed)
        for p in packed:
            for image in symmetric_images(kernels.unpack_word(p, degree), degree):
                assert kernels.pack_word(image, degree) in component

    def test_limit_inside_the_largest_layer(self):
        sizes = [
            sum(words.size for words in layer.values())
            for layer in closure_layers(4, 10, kernels._each_word)
        ]
        largest = sizes.index(max(sizes))
        before = sum(sizes[:largest])
        with pytest.raises(BudgetExceeded, match=f"by layer {largest}"):
            kernels.identity_component(4, 10, 10, before + sizes[largest] // 2)
        assert len(kernels.identity_component(4, 10, 10, sum(sizes))) == sum(sizes)


def reference_search(values, degree, cap, max_states=1_000_000):
    """Tuple-by-tuple breadth-first search, the reference for word_reaches_identity.

    Returns (verdict, words visited), the start word included.
    """
    start = tuple(values)
    if not start:
        return True, 0
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for vals in frontier:
            for nb in kernels._word_neighbors(vals, degree, cap):
                if not nb:
                    return True, len(seen)
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > max_states:
                        raise RuntimeError("reference search exceeded its budget")
                    nxt.append(nb)
        frontier = nxt
    return False, len(seen)


def all_words(degree, max_len):
    letters = [v for i in range(1, degree) for v in (i, -i)]
    return [w for n in range(max_len + 1) for w in product(letters, repeat=n)]


class TestRewritingSearch:
    @pytest.mark.parametrize("degree, max_len, cap", [(3, 5, 7), (4, 4, 6)])
    def test_matches_reference_search(self, degree, max_len, cap):
        for vals in all_words(degree, max_len):
            expected = reference_search(vals, degree, cap)[0]
            assert kernels.word_reaches_identity(vals, degree, cap, 1_000_000) == expected, vals

    def test_chunking_does_not_change_verdicts(self, monkeypatch):
        words = all_words(3, 3) + [(1, 2, 1, -2, -1, -2), (1, 2, -1, -2, 1, 2)]
        verdicts = [kernels.word_reaches_identity(w, 3, 7, 1_000_000) for w in words]
        visited = reference_search((1, 2, -1, -2), 3, 7)[1]
        # a word or two per chunk: every layer of more than that is expanded,
        # deduplicated and counted against the state limit in several chunks
        monkeypatch.setattr(kernels, "_CHUNK_CANDIDATES", 64)
        assert [kernels.word_reaches_identity(w, 3, 7, 1_000_000) for w in words] == verdicts
        assert kernels.word_reaches_identity((1, 2, -1, -2), 3, 7, visited) is False
        with pytest.raises(BudgetExceeded):
            kernels.word_reaches_identity((1, 2, -1, -2), 3, 7, visited - 1)

    def test_start_words_longer_than_the_cap(self):
        for vals in ((1, 2, 1, -2, -1, -2) * 2, (1, 2, 1, 2, -1, -2) * 2):
            expected = reference_search(vals, 3, 8)[0]
            assert kernels.word_reaches_identity(vals, 3, 8, 1_000_000) == expected
        assert kernels.word_reaches_identity((1, 2, 1, -2, -1, -2) * 2, 3, 8, 1_000_000)

    def test_refuses_lengths_that_do_not_pack(self):
        # 7**20 * 64 < 2**64 <= 7**21 * 64, the rule of identity_component:
        # cap 20 is searched (and stopped by the state limit), 21 is refused,
        # and so is a start word of 21 letters under a smaller cap
        with pytest.raises(BudgetExceeded):
            kernels.word_reaches_identity((1, 2), 4, 20, 1_000)
        with pytest.raises(ValueError):
            kernels.word_reaches_identity((1, 2), 4, 21, 1_000)
        with pytest.raises(ValueError):
            kernels.word_reaches_identity((1, 2, 3) * 7, 4, 8, 1_000)
        assert kernels.word_reaches_identity((1, 2, 3) * 4, 4, 8, 1_000_000) is False

    def test_refuses_letters_outside_the_degree(self):
        with pytest.raises(ValueError):
            kernels.word_reaches_identity((1, 3), 3, 6, 1_000)

    def test_state_limit(self):
        vals = (1, 2, -1, -2)  # not the identity
        verdict, visited = reference_search(vals, 3, 8)
        assert verdict is False
        assert kernels.word_reaches_identity(vals, 3, 8, visited) is False
        with pytest.raises(BudgetExceeded, match=f"budget of {visited - 1} states"):
            kernels.word_reaches_identity(vals, 3, 8, visited - 1)

    def test_budget_message_says_how_far_the_search_got(self):
        with pytest.raises(BudgetExceeded, match=r"at least \d+ states reached by layer \d+"):
            kernels.word_reaches_identity((1, 2, 1, 2), 4, 10, 500)
        with pytest.raises(BudgetExceeded, match="handle search .* by layer 1"):
            kernels.handle_ball(((1, 2), (0, 3)), 4, 9, 5)

    def test_every_kernel_raises_the_typed_error(self):
        with pytest.raises(BudgetExceeded):
            kernels.identity_component(3, 4, 8, 100)
        with pytest.raises(BudgetExceeded):
            kernels.word_reaches_identity((1, 2, -1, -2), 3, 8, 100)
        with pytest.raises(BudgetExceeded):
            kernels.handle_ball(((1, 2),), 6, 9, 10)


class TestKernelLimits:
    def test_pack_word_refuses_letters_out_of_range(self):
        # each of these once packed as some other word: (4,) as (0,) and
        # (-4,) as (1,) at degree 4
        for vals in ((4,), (-4,), (0,), (1, 0, -1)):
            with pytest.raises(ValueError, match="out of range for degree 4"):
                kernels.pack_word(vals, 4)
        assert kernels.unpack_word(kernels.pack_word((3, -3), 4), 4) == (3, -3)

    def test_pack_word_refuses_words_of_64_letters(self):
        word = (1, -2, 3) * 21  # 63 letters: the longest length field
        assert kernels.unpack_word(kernels.pack_word(word, 4), 4) == word
        with pytest.raises(ValueError):
            kernels.pack_word(word + (1,), 4)
        with pytest.raises(ValueError):
            kernels.pack_word((1,) * 64, 2)

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
        degree, word = case
        packed = kernels.pack_word(word, degree)
        assert kernels.unpack_word(packed, degree) == tuple(word)

    def test_oracle_budget_is_a_typed_error(self):
        from handleforge.errors import BudgetExceeded
        from handleforge.handles import BudgetExceeded as HandlesBudgetExceeded

        assert HandlesBudgetExceeded is BudgetExceeded
        word = BraidWord.from_signed(4, (1, 2, 1, -2, -1, -2) * 2)
        with pytest.raises(BudgetExceeded):
            braid.oracle_is_identity(word, 14, 20_000)
