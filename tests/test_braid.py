import time

import pytest
from hypothesis import example, given, settings, strategies as st

from linksig.braid import (BraidWord, FamilyParams, _cancel_far_pairs,
                           delta_small, family_b, family_c, family_length,
                           half_twist, pi_word, tau_word)
from linksig.seifert import (conway_potential, link_det, seifert_matrix,
                             signature_nullity)
from oracles import (free_reduce, pointwise_letters, product_family_word,
                     product_half_twist, product_tau_word,
                     unreduced_burau_columns)
from strategies import far_pair_words


class TestNamedWords:
    def test_half_twist_three(self):
        assert half_twist(3).letters == (1, 2, 1)

    def test_half_twist_small(self):
        assert half_twist(1).letters == ()
        assert half_twist(2).letters == (1,)

    def test_tau_adjacent(self):
        for j in (1, 2, 3):
            assert tau_word(j, j + 1, 5).letters == (-(j + 1), j)
            assert tau_word(j + 1, j, 5).letters == (-j, j + 1)

    def test_tau_wide(self):
        assert tau_word(1, 4, 5).letters == (-2, -3, -4, 1, 2, 3)
        assert tau_word(4, 1, 5).letters == (-3, -2, -1, 4, 3, 2)

    def test_tau_equals_the_product_built_oracle(self):
        for m in range(1, 14):
            for k in range(1, m):
                for l in range(1, m):
                    assert (tau_word(k, l, m).letters
                            == product_tau_word(k, l, m).letters), (k, l, m)

    def test_tau_out_of_range(self):
        for k, l in ((0, 2), (2, 0), (1, 5), (5, 1)):
            with pytest.raises(ValueError):
                tau_word(k, l, 5)

    def test_pi(self):
        assert pi_word(2, 4, 5).letters == (2, 3, 4)
        assert pi_word(4, 2, 5).letters == (4, 3, 2)
        assert pi_word(3, 3, 5).letters == (3,)

    def test_delta_small(self):
        assert delta_small(3).letters == (1, 2)

    def test_delta_small_cubed_equals_half_twist_squared(self):
        # equality in the braid group: same permutation, exponent sum, and
        # closure invariants after multiplying by random test words
        d3 = delta_small(3, 4) ** 3
        D3 = half_twist(3, 4) ** 2
        assert d3.permutation() == D3.permutation()
        assert d3.exponent_sum() == D3.exponent_sum()
        for w in (BraidWord(4), BraidWord(4, (3, -1)), BraidWord(4, (2, 3, 2))):
            assert conway_potential(w * d3) == conway_potential(w * D3)
            assert signature_nullity(w * d3) == signature_nullity(w * D3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pi_word(1, 3, 3)
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))


class TestCompose:
    def test_half_twist_square(self):
        assert (half_twist(3) ** 2).letters == (1, 2, 1, 1, 2, 1)
        assert (half_twist(3) ** -1).letters == (-1, -2, -1)

    def test_tau_pair_reduces_freely(self):
        assert free_reduce((tau_word(1, 2, 3) * tau_word(2, 1, 3)).letters) == ()

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            BraidWord(3, (1,)) * BraidWord(4, (1,))

    def test_inverse_and_conjugate(self):
        w = BraidWord(3, (1, -2, 1))
        assert free_reduce((w * w.inverse()).letters) == ()
        g = BraidWord(3, (2,))
        assert (g.inverse() * w * g).letters == (-2, 1, -2, 1, 2)


class TestExponentSum:
    def test_half_twist_power(self):
        for m in (3, 5, 7):
            for n in (1, 2, 3):
                assert (half_twist(m) ** n).exponent_sum() == n * m * (m - 1) // 2

    def test_empty(self):
        assert BraidWord(4).exponent_sum() == 0

    def test_family(self):
        for n, k, J, alphas in ((1, 2, 3, (2, 0, 1)), (2, 1, 2, (3, 1)),
                                (3, 3, 1, (4,))):
            p = FamilyParams(n, k, J, alphas)
            m = p.strands
            want = -sum(alphas) + n * m * (m - 1) // 2
            assert family_b(p).exponent_sum() == want
            if k >= 2:
                assert family_c(p).exponent_sum() == want

    def test_additivity(self):
        a = BraidWord(3, (1, -2))
        b = BraidWord(3, (2, 2, -1))
        assert (a * b).exponent_sum() == a.exponent_sum() + b.exponent_sum()


class TestClosureComponents:
    def test_empty_word(self):
        assert BraidWord(3).closure_components() == 3

    def test_cycle(self):
        assert BraidWord(3, (1, 2)).closure_components() == 1

    def test_half_twist(self):
        assert half_twist(3).closure_components() == 2

    def test_invariance(self):
        import random
        rng = random.Random(1)
        for _ in range(50):
            m = rng.choice([3, 4, 5])
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(0, 8)))
            w = BraidWord(m, letters)
            g = BraidWord(m, (rng.choice([1, -1]) * rng.randint(1, m - 1),))
            assert w.closure_components() == (g.inverse() * w * g).closure_components()
            reduced = BraidWord(m, free_reduce(w.letters))
            assert w.closure_components() == reduced.closure_components()


class TestFamilies:
    def test_single_jump_no_twists(self):
        # tau block times the half-twist power, conjugate to the pure power
        for n in (1, 3):
            for k in (1, 2, 3):
                p = FamilyParams(n, k, 1, (0,))
                w = family_b(p)
                m = p.strands
                assert w.letters == (-(k + 1), k) + (half_twist(m) ** n).letters
                assert signature_nullity(w) == signature_nullity(half_twist(m) ** n)

    def test_two_jumps_no_twists_reduce_to_half_twists(self):
        for n in (2, 4):
            for k in (1, 2):
                p = FamilyParams(n, k, 2, (0, 0))
                assert (free_reduce(family_b(p).letters)
                        == (half_twist(p.strands) ** n).letters)

    def test_basic_determinant(self):
        assert str(link_det(family_b(FamilyParams(1, 1, 1, (0,))))) == "2i"

    def test_length_counts_letters_and_fixes_the_seifert_dimension(self):
        for kind, build in (("b", family_b), ("c", family_c)):
            for n, k, alphas in ((1, 2, (0,)), (4, 2, (3, 1)),
                                 (3, 3, (2, 0, 5)), (5, 4, (1,))):
                p = FamilyParams(n, k, len(alphas), alphas)
                w = build(p)
                assert family_length(kind, p) == len(w.letters)
                # every generator index occurs: one cycle fewer per index
                assert seifert_matrix(w).dimension == len(w.letters) - 2 * k

    def test_parity_violation(self):
        with pytest.raises(ValueError):
            FamilyParams(1, 1, 2, (1, 1))

    def test_wide_family_needs_k2(self):
        with pytest.raises(ValueError):
            family_c(FamilyParams(1, 1, 1, (1,)))

    def test_text_roundtrip(self):
        w = family_b(FamilyParams(1, 2, 3, (1, 0, 2)))
        assert BraidWord.from_text(w.strands, w.to_text()) == w

    def test_markov_stabilization_of_invariants(self):
        w = BraidWord(3, (1, 1, -2))
        up = BraidWord(4, w.letters + (3,))
        assert signature_nullity(w) == signature_nullity(up)
        assert conway_potential(w) == conway_potential(up)


@settings(max_examples=200)
@given(k=st.integers(1, 12), extra=st.integers(0, 2), n=st.integers(1, 9),
       alphas=st.lists(st.integers(0, 5), min_size=7, max_size=7),
       data=st.data())
def test_words_equal_the_product_built_oracle(k, extra, n, alphas, data):
    assert half_twist(k, k + extra).letters == product_half_twist(k, k + extra).letters
    J = data.draw(st.sampled_from(range(2 - n % 2, 8, 2)))  # the parity of n
    p = FamilyParams(n, k, J, alphas[:J])
    assert family_b(p).letters == product_family_word(p, k, k + 1).letters
    if k >= 2:
        assert family_c(p).letters == product_family_word(p, k - 1, k + 2).letters


@st.composite
def letter_inputs(draw):
    """A strand count 1-6 and a tuple or list of letters near the range ends
    (0, +-(m - 1), +-m), as ints, bools or integral floats."""
    m = draw(st.integers(1, 6))
    letter = st.sampled_from((0, 1, -1, m - 1, 1 - m, m, -m)).flatmap(
        lambda x: st.sampled_from((x, float(x), bool(x))))
    letters = draw(st.lists(letter | st.integers(-m, m), max_size=6))
    return m, draw(st.sampled_from((tuple, list)))(letters)


@settings(max_examples=200)
@given(letter_inputs())
@example((1, ()))
@example((1, [0]))
@example((3, (True, 2.0, -2, 3)))
def test_braid_word_matches_the_pointwise_oracle(case):
    m, letters = case
    try:
        want = pointwise_letters(m, letters)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            BraidWord(m, letters)
        assert str(got.value) == str(exc)
        return
    word = BraidWord(m, letters)
    assert word.letters == want
    assert type(word.letters) is tuple
    assert all(type(x) is int for x in word.letters)
    if type(letters) is tuple and all(type(x) is int for x in letters):
        assert word.letters is letters  # kept as given, not copied


class TestCancelFarPairs:
    def test_cancels_across_a_far_letter(self):
        assert _cancel_far_pairs(BraidWord(4, (1, 3, -1))) == BraidWord(4, (3,))

    def test_keeps_a_pair_around_an_adjacent_letter(self):
        w = BraidWord(3, (1, 2, -1))
        assert _cancel_far_pairs(w) is w

    def test_nested_pairs_cancel_to_the_empty_word(self):
        assert _cancel_far_pairs(BraidWord(3, (1, 2, -2, -1))) == BraidWord(3)

    @pytest.mark.parametrize("letters, left", [
        ((5,) * 10**5 + (1, -1) * 10**5, (5,) * 10**5),
        ((1, 3) * 10**5 + (-3, -1) * 10**5, ()),
    ], ids=["far-letters-first", "nested-commuting-pairs"])
    def test_linear_time(self, letters, left):
        # a scan back over the commuting letters would be quadratic on the
        # first word, where each sigma_1 passes 10^5 letters on index 5; the
        # second cancels 2 * 10^5 letters, each against a letter that the
        # cancellation before it restored
        word = BraidWord(6, letters)
        start = time.perf_counter()
        out = _cancel_far_pairs(word)
        assert time.perf_counter() - start < 1.0
        assert out.letters == left


@settings(max_examples=300)
@given(far_pair_words())
@example(BraidWord(1))
@example(BraidWord(6, (2, 5, -5, 1, -2)))
@example(BraidWord(7, (3, 1, 5, 6, -1, -5, -3)))
def test_cancel_far_pairs_keeps_the_braid(word):
    out = _cancel_far_pairs(word)
    assert unreduced_burau_columns(out) == unreduced_burau_columns(word)
    assert (out.strands, out.exponent_sum(), out.permutation()) == (
        word.strands, word.exponent_sum(), word.permutation())
    assert len(out.letters) <= len(word.letters)
    # nothing left to cancel, adjacent or across far letters
    assert free_reduce(out.letters) == out.letters
    assert _cancel_far_pairs(out) is out
