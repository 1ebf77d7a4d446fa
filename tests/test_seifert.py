import random

import pytest
from hypothesis import example, given, settings, strategies as st

from linksig import seifert
from linksig.braid import BraidWord, FamilyParams, family_b, half_twist
from linksig.closedforms import sign_null_delta
from linksig.gaussian import GaussianInteger, i_power
from linksig.intmatrix import exact_determinant
from linksig.laurent import LaurentPolynomial
from linksig.seifert import (_form_invariants, band_step, conway_potential,
                             invariants_report, link_det, seifert_matrix,
                             signature_nullity)
from linksig.splice import SpliceDiagram, torus_delta_diagram
from oracles import (band_step_constraint, cofactor_determinant,
                     dense_seifert_matrix, free_reduce, goeritz_invariants,
                     list_link_det, rational_signature, seifert_link_det,
                     symmetric_rows)
from strategies import burau_words, far_pair_words, mixed_words, random_word


def lp(d):
    return LaurentPolynomial(d)


class TestMatrixConstruction:
    def test_unknot_empty_matrix(self):
        assert seifert_matrix(BraidWord(1)).dimension == 0

    def test_trefoil_negative_definite(self):
        v = seifert_matrix(BraidWord(2, (1, 1, 1))).matrix
        b = [[v[i][j] + v[j][i] for j in range(len(v))] for i in range(len(v))]
        # Sylvester oracle: minors of -B all positive iff B negative definite
        neg = [[-x for x in row] for row in b]
        minors = [cofactor_determinant([row[:i] for row in neg[:i]])
                  for i in range(1, len(neg) + 1)]
        assert all(m > 0 for m in minors)
        assert signature_nullity(BraidWord(2, (1, 1, 1))) == (-2, 0)

    def test_dimension_count(self):
        # three letters on two generator indices leave one basis cycle
        assert seifert_matrix(half_twist(3)).dimension == 1

    def test_dimension_general(self):
        w = BraidWord(4, (1, 2, 1, 3, 2, 1))
        data = seifert_matrix(w)
        assert data.dimension == len(w.letters) - 3

    def test_stabilization_of_missing_indices(self):
        w = BraidWord(3, (2, 2))
        # sigma_1 sigma_1^-1 is appended: 2 + 2 letters on 2 indices
        assert seifert_matrix(w).dimension == 2
        # split closure: one extra nullity
        assert signature_nullity(w) == (-1, 1)

    def test_dimension_counts_stabilized_letters(self):
        # d = letters + 2 (missing indices) - (m - 1)
        for m, letters, missing in ((2, (1, 1, 1), 0), (4, (2, -2, 2), 2),
                                    (5, (1, 4, -1, 4), 2), (3, (), 2)):
            w = BraidWord(m, letters)
            assert seifert_matrix(w).dimension == len(letters) + 2 * missing - (m - 1)


def seeded_braids(count=100):
    """Random words on 2-6 strands with 0-30 letters."""
    rng = random.Random(2024)
    for _ in range(count):
        m = rng.randint(2, 6)
        yield BraidWord(m, tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                                 for _ in range(rng.randint(0, 30))))


class TestSparseForm:
    def test_matches_dense_build(self):
        # the builder's nonzeros against an all-pairs dense build, on 100
        # seeded braids and the criterion-1 half-twist grid
        grid = (half_twist(2 * k + 1) ** n for n in range(1, 5) for k in range(1, 4))
        for w in (*seeded_braids(), *grid):
            data = seifert_matrix(w)
            v = dense_seifert_matrix(w)
            assert data.matrix == tuple(map(tuple, v))
            n = len(v)
            assert symmetric_rows(data) == [
                {j: v[i][j] + v[j][i] for j in range(n) if v[i][j] + v[j][i]}
                for i in range(n)]

    @pytest.mark.parametrize("n, k, dim, sign_null, det", [
        (8, 5, 430, (-240, 10), 0),
        (10, 6, 768, (-420, 0), 4096),
    ], ids=["d430", "d768"])
    def test_large_half_twist_powers(self, n, k, dim, sign_null, det):
        w = half_twist(2 * k + 1) ** n
        assert seifert_matrix(w).dimension == dim
        assert signature_nullity(w) == sign_null == sign_null_delta(n, k).as_tuple()
        assert (link_det(w) == GaussianInteger(det, 0)
                == torus_delta_diagram(n, k).link_determinant())


class TestSignatureExamples:
    def test_half_twist_B3(self):
        assert signature_nullity(half_twist(3)) == (-1, 0)

    def test_half_twist_squared_B3(self):
        assert signature_nullity(half_twist(3) ** 2) == (-4, 0)

    def test_half_twist_fourth_B3(self):
        assert signature_nullity(half_twist(3) ** 4) == (-8, 2)


class TestConwayPotential:
    def test_unknot(self):
        assert conway_potential(BraidWord(1)) == LaurentPolynomial.one()

    def test_half_twist_B3(self):
        assert conway_potential(half_twist(3)) == lp({1: 1, -1: -1})

    def test_trefoil_matches_splice_oracle(self):
        diagram = SpliceDiagram.unknot().cable(1, 1, 2, 3, core="removed")
        assert (conway_potential(BraidWord(3, (1, 2, 1, 2)))
                == diagram.omega_via_EN())

    def test_figure_eight(self):
        assert (conway_potential(BraidWord(3, (1, -2, 1, -2)))
                == lp({2: -1, 0: 3, -2: -1}))

    def test_split_closure_vanishes(self):
        assert conway_potential(BraidWord(2)).is_zero()
        assert conway_potential(BraidWord(3, (1, 1))).is_zero()


class TestLinkDet:
    def test_basic_family(self):
        assert link_det(family_b(FamilyParams(1, 1, 1, (0,)))) == GaussianInteger(0, 2)

    def test_half_twist_squared(self):
        assert link_det(half_twist(3) ** 2) == GaussianInteger(4, 0)

    def test_vanishing(self):
        assert link_det(family_b(FamilyParams(4, 1, 2, (0, 0)))).is_zero()

    def test_parity_by_components(self):
        rng = random.Random(12)
        for _ in range(60):
            m = rng.choice([2, 3, 4])
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(0, 8)))
            w = BraidWord(m, letters)
            det = link_det(w)
            if w.closure_components() % 2:
                assert det.im == 0
            else:
                assert det.re == 0

    def test_agrees_with_potential_at_i(self):
        rng = random.Random(13)
        for _ in range(40):
            m = rng.choice([2, 3, 4])
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(0, 9)))
            w = BraidWord(m, letters)
            assert link_det(w) == conway_potential(w).eval_at_i()


@settings(max_examples=200)
@given(burau_words())
@example(BraidWord(1))
@example(BraidWord(2, (1, -1, 1)))
@example(half_twist(11) ** 8)
@example(half_twist(13) ** 10)
def test_link_det_equals_seifert_elimination(word):
    # odd and even strand counts (the even ones are stabilized), split
    # closures (det 0) and the d = 430 and d = 768 half-twist powers
    assert link_det(word) == seifert_link_det(word), (word.strands, word.letters)


@settings(max_examples=150)
@given(burau_words(), st.sampled_from((0, 1)))
@example(BraidWord(1), 0)
@example(BraidWord(4, (1, -1, 3)), 1)  # a split closure, null 1
@example(half_twist(3), 0)
@example(half_twist(3), 1)
def test_seifert_form_equals_goeritz_matrix(word, parity):
    # signature, nullity and determinant from the Seifert form against the
    # Goeritz matrix of either checkerboard colouring (Gordon-Litherland)
    assert _form_invariants(word) == goeritz_invariants(word, parity), (
        word.strands, word.letters)


@settings(max_examples=100)
@given(mixed_words(2, 16, 300))
@example(BraidWord(1))
@example(BraidWord(2))
@example(BraidWord(4, (1, -1, 3)))  # a split closure, det 0
@example(random_word(8, 250, seed=8250))
@example(random_word(3, 4000, seed=4000))
@example(BraidWord(3, (1, -2) * 2000))
def test_packed_link_det_equals_the_list_loop(word):
    # the packed Burau columns against the list loop and the Seifert form; a
    # random 3-strand word grows its entries by about 0.15 bits a letter,
    # (1, -2)^2000 by about 0.69, the fastest growth measured
    assert (link_det(word) == list_link_det(word)
            == seifert_link_det(word)), (word.strands, word.letters)


@settings(max_examples=100)
@given(far_pair_words())
@example(BraidWord(1))
@example(BraidWord(4, (1, 3, -1)))  # a split closure once sigma_1 cancels
@example(BraidWord(5, (2, 4, 1, -4, 3, -2, 3, 3, -1, 4)))
def test_report_equals_the_dense_form_of_the_input_word(word):
    # the report eliminates the form of the word with its far pairs
    # cancelled; the oracles take the dense V + V^T of the word as given
    v = dense_seifert_matrix(word)
    n = len(v)
    form = [[v[r][c] + v[c][r] for c in range(n)] for r in range(n)]
    rep = invariants_report(word)
    assert (rep["signature"], rep["nullity"]) == rational_signature(form)
    assert rep["det"] == str(i_power(-n) * exact_determinant(form))


def test_report_takes_the_potential_of_the_input_word(monkeypatch):
    # the Burau route sees the word as given and the Seifert form the
    # cancelled one, so the report's det = Omega(i) compares two words
    seen = {}

    def spy(name):
        kernel = getattr(seifert, name)

        def call(w):
            seen[name] = w
            return kernel(w)
        return call

    for name in ("conway_potential", "_form_invariants"):
        monkeypatch.setattr(seifert, name, spy(name))
    word = BraidWord(5, (2, 4, 1, -4, 3, -2, 3, 3, -1, 4))
    rep = invariants_report(word)
    assert seen["conway_potential"] is word
    assert seen["_form_invariants"] == BraidWord(5, (2, 1, 3, -2, 3, 3, -1, 4))
    assert rep["word"] == word.to_text()
    assert rep["exponent_sum"] == word.exponent_sum()


class TestSkeinRelation:
    def test_hundred_seeded_braids(self):
        rng = random.Random(2024)
        tb = LaurentPolynomial.t_binomial(1)
        for _ in range(100):
            m = rng.choice([3, 4])
            length = rng.randint(1, 12)
            letters = [rng.choice([1, -1]) * rng.randint(1, m - 1)
                       for _ in range(length)]
            pos = rng.randrange(length)
            j = abs(letters[pos])
            plus = BraidWord(m, tuple(letters[:pos] + [j] + letters[pos + 1:]))
            minus = BraidWord(m, tuple(letters[:pos] + [-j] + letters[pos + 1:]))
            zero = BraidWord(m, tuple(letters[:pos] + letters[pos + 1:]))
            o_plus, o_minus, o_zero = map(conway_potential, (plus, minus, zero))
            assert o_plus - o_minus == tb * o_zero
            # determinant version: det L+ - det L- = 2i det L0
            assert (o_plus.eval_at_i() - o_minus.eval_at_i()
                    == GaussianInteger(0, 2) * o_zero.eval_at_i())


class TestInvariance:
    def test_conjugation(self):
        rng = random.Random(31)
        for _ in range(60):
            m = rng.choice([3, 4, 5])
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(1, 9)))
            w = BraidWord(m, letters)
            g = BraidWord(m, (rng.choice([1, -1]) * rng.randint(1, m - 1),))
            c = g.inverse() * w * g
            assert signature_nullity(w) == signature_nullity(c)
            assert conway_potential(w) == conway_potential(c)

    def test_markov_stabilization(self):
        rng = random.Random(32)
        for _ in range(30):
            m = rng.choice([2, 3, 4])
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(1, 8)))
            w = BraidWord(m, letters)
            for s in (m, -m):
                up = BraidWord(m + 1, letters + (s,))
                assert signature_nullity(w) == signature_nullity(up)
                assert conway_potential(w) == conway_potential(up)

    def test_free_reduction(self):
        rng = random.Random(34)
        for _ in range(40):
            m = rng.choice([3, 4])
            letters = list(rng.choice([1, -1]) * rng.randint(1, m - 1)
                           for _ in range(rng.randint(1, 6)))
            pos = rng.randrange(len(letters) + 1)
            j = rng.choice([1, -1]) * rng.randint(1, m - 1)
            padded = BraidWord(m, tuple(letters[:pos] + [j, -j] + letters[pos:]))
            w = BraidWord(m, tuple(letters))
            assert free_reduce(padded.letters) == free_reduce(w.letters)
            assert signature_nullity(w) == signature_nullity(padded)
            assert conway_potential(w) == conway_potential(padded)

    def test_two_jump_family_matches_half_twists(self):
        for n, k in ((2, 1), (2, 2), (4, 1)):
            w = family_b(FamilyParams(n, k, 2, (0, 0)))
            d = half_twist(2 * k + 1) ** n
            assert signature_nullity(w) == signature_nullity(d)
            assert conway_potential(w) == conway_potential(d)

    def test_parity_bound(self):
        rng = random.Random(33)
        for _ in range(40):
            m = rng.choice([3, 4])
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(0, 10)))
            w = BraidWord(m, letters)
            sign, null = signature_nullity(w)
            assert abs(sign) + null <= seifert_matrix(w).dimension


class TestBandStep:
    def test_negative_ratio(self):
        assert band_step(-2, GaussianInteger(0, 2), GaussianInteger(-2, 0)) == -3

    def test_positive_ratio(self):
        # det' = -i * det * r with r > 0 makes i det'/det = r > 0: a +1 step
        d = GaussianInteger(3, 0)
        dp = GaussianInteger(0, -1) * d * 2
        assert band_step(5, d, dp) == 6
        assert band_step(5, d, GaussianInteger(0, 1) * d * 2) == 4

    def test_zero_det_prime(self):
        assert band_step(4, GaussianInteger(2, 0), GaussianInteger(0, 0)) == 4

    def test_errors(self):
        with pytest.raises(ValueError):
            band_step(0, GaussianInteger(0, 0), GaussianInteger(1, 0))
        with pytest.raises(ValueError):
            band_step(0, GaussianInteger(1, 0), GaussianInteger(1, 0))

    def test_unit_move_constraint(self):
        assert band_step_constraint(0, 1)
        assert band_step_constraint(-1, 0)
        assert not band_step_constraint(1, 1)
        assert not band_step_constraint(0, 0)

    def test_letter_insertion_pairs(self):
        # inserting sigma_j / sigma_j^-1 at a position is a band attachment:
        # both (Null, Sign) moves have total size one, and equal nonzero
        # determinants force equal signatures
        rng = random.Random(55)
        for _ in range(40):
            m = rng.choice([3, 4])
            letters = [rng.choice([1, -1]) * rng.randint(1, m - 1)
                       for _ in range(rng.randint(1, 8))]
            pos = rng.randrange(len(letters) + 1)
            j = rng.randint(1, m - 1)
            base = BraidWord(m, tuple(letters))
            plus = BraidWord(m, tuple(letters[:pos] + [j] + letters[pos:]))
            minus = BraidWord(m, tuple(letters[:pos] + [-j] + letters[pos:]))
            s0, n0 = signature_nullity(base)
            for w in (plus, minus):
                s1, n1 = signature_nullity(w)
                assert band_step_constraint(n1 - n0, s1 - s0)
            dp, dm = link_det(plus), link_det(minus)
            if dp == dm and not dp.is_zero():
                assert signature_nullity(plus)[0] == signature_nullity(minus)[0]
            d0 = link_det(base)
            if not d0.is_zero():
                assert signature_nullity(plus)[0] == band_step(s0, d0, dp)


@st.composite
def band_words(draw) -> BraidWord:
    """3-6 strands and 8-36 letters of mixed signs on every generator."""
    m = draw(st.integers(3, 6))
    letter = st.integers(1, m - 1).flatmap(lambda j: st.sampled_from((j, -j)))
    return BraidWord(m, tuple(draw(st.lists(letter, min_size=8, max_size=36))))


@settings(max_examples=150)
@given(band_words())
def test_band_step_along_prefixes(word):
    # appending a letter attaches one band, so wherever det L != 0 the
    # Seifert signature steps as `band_step` says from the Burau determinants
    m, letters = word.strands, word.letters
    prefix = BraidWord(m)
    sign, det = signature_nullity(prefix)[0], link_det(prefix)
    for n in range(1, len(letters) + 1):
        nxt = BraidWord(m, letters[:n])
        sign_next, det_next = signature_nullity(nxt)[0], link_det(nxt)
        if not det.is_zero():
            assert sign_next == band_step(sign, det, det_next), letters[:n]
        sign, det = sign_next, det_next
