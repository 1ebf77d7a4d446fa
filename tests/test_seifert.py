import random

import pytest

from linksig.braid import BraidWord, FamilyParams, family_b, half_twist
from linksig.closedforms import sign_null_delta
from linksig.gaussian import GaussianInteger
from linksig.laurent import LaurentPolynomial
from linksig.seifert import (band_step, band_step_constraint, conway_potential,
                             link_det, seifert_matrix, signature_nullity)
from linksig.splice import SpliceDiagram, torus_delta_diagram
from oracles import cofactor_determinant, dense_seifert_matrix


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
        data = seifert_matrix(w)
        assert data.stabilized_letters == (2, 2, 1, -1)
        # split closure: one extra nullity
        assert signature_nullity(w) == (-1, 1)

    def test_cycle_index_records_positions(self):
        data = seifert_matrix(BraidWord(2, (1, 1, 1)))
        assert data.cycle_index == ((1, 0, 1), (1, 1, 2))


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
            assert data.symmetric_rows() == [
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
                assert det.is_real()
            else:
                assert det.is_imaginary()

    def test_agrees_with_potential_at_i(self):
        rng = random.Random(13)
        for _ in range(40):
            m = rng.choice([2, 3, 4])
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                            for _ in range(rng.randint(0, 9)))
            w = BraidWord(m, letters)
            assert link_det(w) == conway_potential(w).eval_at_i()


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
            c = w.conjugate_by(g)
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
            assert padded.free_reduce().letters == w.free_reduce().letters
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
