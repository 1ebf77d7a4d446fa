import random

import pytest

from linksig.braid import BraidWord
from linksig.gaussian import GaussianInteger
from linksig.genskein import (CONWAY_COEFFS, DELTA3_COEFFS, DELTA3SQ_COEFFS,
                              RelationSpec, bar_transpose_negate, block_identity_residual,
                              build_symmetrized, coefficient_table,
                              det_relation_check, random_braid, random_laurent,
                              relation_residual)
from linksig.laurent import LaurentPolynomial
from oracles import laurent_bareiss

L = LaurentPolynomial


class TestCoefficients:
    def test_five_term_coefficients(self):
        assert DELTA3_COEFFS[1] == L({2: -1, 0: 1, -2: -1})
        assert DELTA3_COEFFS[3] == DELTA3_COEFFS[1]
        assert DELTA3_COEFFS[2] == -(L.t_binomial(1) ** 2)

    def test_squared_twist_coefficients(self):
        c1 = -(L({3: 1, -3: 1}) ** 2)
        assert DELTA3SQ_COEFFS[1] == c1 and DELTA3SQ_COEFFS[3] == c1
        assert DELTA3SQ_COEFFS[2] == L({6: 2, 0: 2, -6: 2})

    def test_crossing_coefficients(self):
        assert CONWAY_COEFFS == (L.one(), L.t_binomial(1), -L.one())
        assert [c.eval_at_i() for c in CONWAY_COEFFS] == [
            GaussianInteger(1, 0), GaussianInteger(0, 2), GaussianInteger(-1, 0)]

    def test_determinant_weights(self):
        assert [c.eval_at_i() for c in DELTA3_COEFFS] == [
            GaussianInteger(w, 0) for w in (1, 3, 4, 3, 1)]
        assert [c.eval_at_i() for c in DELTA3SQ_COEFFS] == [
            GaussianInteger(w, 0) for w in (1, 0, -2, 0, 1)]


class TestResiduals:
    def test_empty_word(self):
        assert relation_residual(BraidWord(3), RelationSpec.delta3_order4()).is_zero()
        assert det_relation_check(BraidWord(3), RelationSpec.delta3_order4()).is_zero()

    def test_single_negative_crossing_det_relation(self):
        b = BraidWord(3, (-1,))
        assert det_relation_check(b, RelationSpec.delta3sq_order4()).is_zero()

    def test_requires_three_strands(self):
        with pytest.raises(ValueError):
            relation_residual(BraidWord(2, (1,)), RelationSpec.delta3_order4())
        for spec in (RelationSpec.delta3_order4(), RelationSpec.delta3sq_order4()):
            with pytest.raises(ValueError, match="at least 3 strands"):
                det_relation_check(BraidWord(2, (1,)), spec)

    def test_crossing_relation_needs_two_strands(self):
        for check in (relation_residual, det_relation_check):
            with pytest.raises(ValueError, match="at least 2 strands"):
                check(BraidWord(1), RelationSpec.conway())

    def test_crossing_relation_seeded(self):
        # Omega(w) + (t - 1/t) Omega(w s1) - Omega(w s1^2) and its form at t = i
        spec = RelationSpec.conway()
        assert spec.twist == BraidWord(2, (1,)) and spec.det_power == 1
        rng = random.Random(1729)
        words = [BraidWord(m) for m in range(2, 7)]
        words += [random_braid(rng, rng.randint(2, 6), 12) for _ in range(60)]
        for b in words:
            assert relation_residual(b, spec).is_zero()
            assert det_relation_check(b, spec).is_zero()

    def test_seeded_random_braids(self):
        rng = random.Random(2023)
        for _ in range(15):
            m = rng.choice([3, 4, 5])
            b = random_braid(rng, m, 10)
            assert relation_residual(b, RelationSpec.delta3_order4()).is_zero()
            assert relation_residual(b, RelationSpec.delta3sq_order4()).is_zero()
            assert det_relation_check(b, RelationSpec.delta3_order4()).is_zero()
            assert det_relation_check(b, RelationSpec.delta3sq_order4()).is_zero()


class TestBlocks:
    def test_star_pairing(self):
        u = [[L.t(1), L.one()], [L.zero(), L.t(-1)]]
        star = bar_transpose_negate(u)
        assert star == [[-L.t(-1), L.zero()], [-L.one(), -L.t(1)]]

    def test_layout_dimensions(self):
        v0 = [[L.one()]]
        u = [[L.zero(), L.one()]]
        w = [[L.zero(), L.one()], [L.t(1), L.zero()]]
        for j in range(5):
            m = build_symmetrized(v0, u, w, j)
            assert len(m) == 1 + 2 * j

    def test_coefficient_tables(self):
        tab2, tab3, tab4 = map(coefficient_table, (2, 3, 4))
        assert tab2["a0"] == L.one()
        assert tab2["a1"] == L({2: 1, 0: -1, -2: 1})
        assert tab3["a0"] == L({2: 1, 0: -1, -2: 1})
        assert tab3["a1"] == L({4: 1, 2: -1, -2: -1, -4: 1})
        assert tab4["a0"] == L({4: 1, 2: -1, -2: -1, -4: 1})
        assert tab4["a1"] == L({6: 1, 4: -1, 0: 1, -4: -1, -6: 1})
        assert tab2["a12"] == L({3: 1})
        assert tab3["a12"] == L({5: 1, 3: -1})
        assert tab4["a12"] == L({7: 1, 5: -1})
        assert tab2["a21"] == L({-3: -1})
        assert tab3["a21"] == L({-3: 1, -5: -1})
        assert tab4["a21"] == L({-5: 1, -7: -1})

    def test_diagonal_coefficients_identity(self):
        for j in (2, 3, 4):
            tab = coefficient_table(j)
            want = L({-2: 1}) * tab["a12"] + L({2: 1}) * tab["a21"]
            assert tab["a11"] == want
            assert tab["a22"] == want

    def test_tail_determinant_expansion(self):
        # det(tail with corner W) decomposes through the table at random W
        rng = random.Random(17)
        for j in (2, 3):
            tab = coefficient_table(j)
            for _ in range(4):
                w = [[random_laurent(rng) for _ in range(2)] for _ in range(2)]
                direct = laurent_bareiss(build_symmetrized([], [], w, j))
                detw = w[0][0] * w[1][1] - w[0][1] * w[1][0]
                decomposed = (tab["a0"] + tab["a1"] * detw
                              + tab["a11"] * w[0][0] + tab["a12"] * w[0][1]
                              + tab["a21"] * w[1][0] + tab["a22"] * w[1][1])
                assert direct == decomposed, j

    def test_block_identity_random(self):
        rng = random.Random(4)
        for _ in range(10):
            s = rng.randint(0, 3)
            v0 = [[random_laurent(rng) for _ in range(s)] for _ in range(s)]
            u = [[random_laurent(rng) for _ in range(2)] for _ in range(s)]
            ustar = [[random_laurent(rng) for _ in range(s)] for _ in range(2)]
            w = [[random_laurent(rng) for _ in range(2)] for _ in range(2)]
            assert block_identity_residual(v0, u, w, ustar).is_zero()

    def test_block_identity_default_star(self):
        rng = random.Random(9)
        for _ in range(5):
            s = rng.randint(1, 3)
            v0 = [[random_laurent(rng) for _ in range(s)] for _ in range(s)]
            u = [[random_laurent(rng) for _ in range(2)] for _ in range(s)]
            w = [[random_laurent(rng) for _ in range(2)] for _ in range(2)]
            assert block_identity_residual(v0, u, w).is_zero()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            build_symmetrized([[L.one()]], [[L.one()]],
                              [[L.one(), L.one()], [L.one(), L.one()]], 2)
