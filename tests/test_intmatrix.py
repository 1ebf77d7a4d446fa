import random

import pytest
from hypothesis import given, settings, strategies as st

from linksig.intmatrix import (SymmetricIntMatrix, exact_determinant,
                               signature_nullity_of_symmetric)
from oracles import (cofactor_determinant, congruence, rational_signature,
                     random_unimodular)


@st.composite
def symmetric_zero_heavy(draw):
    """Symmetric integer matrices, dimension 0-7, mostly zero on the diagonal.

    A zero diagonal is what forces hyperbolic splits and zero-row drops, so
    the strategy makes it the common case.
    """
    n = draw(st.integers(min_value=0, max_value=7))
    diag = st.sampled_from((0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 2, -3))
    off = st.integers(min_value=-3, max_value=3)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(diag)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(off)
    return m


class TestDeterminant:
    def test_identity(self):
        assert exact_determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_minus_two_diagonal(self):
        assert exact_determinant([[-2, 0], [0, -2]]) == 4

    def test_generic(self):
        assert exact_determinant([[1, 2], [3, 4]]) == -2

    def test_empty(self):
        assert exact_determinant([]) == 1

    def test_singular(self):
        assert exact_determinant([[1, 2], [2, 4]]) == 0

    def test_agrees_with_cofactor_expansion(self):
        rng = random.Random(20240915)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert exact_determinant(m) == cofactor_determinant(m)


class TestSignatureNullity:
    def test_hyperbolic_plane(self):
        assert signature_nullity_of_symmetric([[0, 1], [1, 0]]) == (0, 0)

    def test_zero_matrix(self):
        assert signature_nullity_of_symmetric([[0, 0], [0, 0]]) == (0, 2)

    def test_positive_definite_1x1(self):
        assert signature_nullity_of_symmetric([[2]]) == (1, 0)

    def test_empty(self):
        assert signature_nullity_of_symmetric([]) == (0, 0)

    def test_indefinite(self):
        assert signature_nullity_of_symmetric([[1, 0], [0, -5]]) == (0, 0)

    def test_hyperbolic_with_scaling(self):
        # negative off-diagonal pivot exercises the sign-flip tracking
        assert signature_nullity_of_symmetric([[0, -3], [-3, 0]]) == (0, 0)

    def test_congruence_invariance(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 8)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-4, 4)
            u = random_unimodular(n, rng)
            assert (signature_nullity_of_symmetric(congruence(u, m))
                    == signature_nullity_of_symmetric(m))

    def test_parity_relations(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(1, 7)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            sign, null = signature_nullity_of_symmetric(m)
            assert abs(sign) + null <= n
            assert (n - null - sign) % 2 == 0

    def test_agrees_with_eigen_count_small(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 6)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            assert signature_nullity_of_symmetric(m) == rational_signature(m)

    def test_split_then_two_diagonal_pivots(self):
        # a hyperbolic split, then pivots 1 and -12; the third pivot's row
        # is divided by -12, a pivot taken after the split
        m = [[0, -1, 2, 0, 3],
             [-1, 0, 3, -1, 1],
             [2, 3, 0, 0, -1],
             [0, -1, 0, 0, -1],
             [3, 1, -1, -1, 0]]
        assert signature_nullity_of_symmetric(m) == rational_signature(m)

    def test_zero_row_drop_then_pivot(self):
        # pivot 2, then an all-zero diagonal with a zero row, dropped while
        # the previous pivot is 2; a drop leaves the diagonal zero, so a
        # split follows before the next pivots (which divide by -48, -64)
        m = [[2, 2, 0, 2, 2, 0, 2],
             [2, 2, 0, 2, 2, 0, 2],
             [0, 0, 0, -1, 2, 0, 3],
             [2, 2, -1, 2, 5, -1, 3],
             [2, 2, 2, 5, 2, 0, 1],
             [0, 0, 0, -1, 0, 0, -1],
             [2, 2, 3, 3, 1, -1, 2]]
        assert signature_nullity_of_symmetric(m) == rational_signature(m)


@settings(max_examples=400)
@given(symmetric_zero_heavy())
def test_matches_rational_ldlt(m):
    assert signature_nullity_of_symmetric(m) == rational_signature(m)


class TestSymmetricType:
    def test_validation(self):
        SymmetricIntMatrix(((1, 2), (2, 1)))
        with pytest.raises(ValueError):
            SymmetricIntMatrix(((1, 2), (3, 1)))
        with pytest.raises(ValueError):
            SymmetricIntMatrix(((1, 2),))

    def test_accepted_by_kernels(self):
        m = SymmetricIntMatrix(((-2, 1), (1, -2)))
        assert exact_determinant(m) == 3
        assert signature_nullity_of_symmetric(m) == (-2, 0)
