import copy
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from linksig.intmatrix import (_byte_width, _laurent_determinant,
                               exact_determinant,
                               signature_nullity_of_symmetric,
                               symmetric_invariants)
from linksig.laurent import LaurentPolynomial
from oracles import (cofactor_determinant, congruence, laurent_bareiss,
                     leibniz_determinant, rational_signature, random_unimodular)


def nonzeros(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def oracle_invariants(m):
    return (*rational_signature(m), exact_determinant(m))


@st.composite
def symmetric_zero_heavy(draw):
    """Symmetric integer matrices, dimension 0-7, mostly zero on the diagonal.

    A zero diagonal is what forces row additions and zero-row drops, so the
    strategy makes it the common case.
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


@st.composite
def banded_zero_heavy(draw):
    """Banded symmetric integer matrices, dimension 20-60, bandwidth 1-6.

    The diagonal is mostly zero, like the Seifert forms, so one elimination
    takes many pivots and row additions: entries are read under stamps
    several pivots old, and rows leave the heap and come back to it.
    """
    n = draw(st.integers(min_value=20, max_value=60))
    width = draw(st.integers(min_value=1, max_value=6))
    diag = st.sampled_from((0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 2, -3))
    off = st.integers(min_value=-3, max_value=3)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(diag)
        for j in range(i + 1, min(n, i + width + 1)):
            m[i][j] = m[j][i] = draw(off)
    return m


#: Laurent entries from monomials to five terms, with signs and gaps
LAURENT_ENTRIES = tuple(LaurentPolynomial(c) for c in (
    {0: 1}, {1: -1}, {-2: 3}, {0: 2, 1: -1}, {-1: 1, 1: 1}, {0: 1, 2: -3},
    {-1: 2, 0: -1, 1: 1}, {0: 1, 1: 1, 2: 1}, {-3: 1, 0: 2, 3: -1},
    {-2: -1, -1: 1, 0: 3, 1: -2}, {0: 1, 1: -2, 2: 1, 3: 2, 4: -1}))


@st.composite
def laurent_or_int_matrices(draw):
    """Square matrices of size 0-5, over Z[t, t^-1] or over Z.

    Zero entries are common and about a third of the matrices have an
    all-zero column, so pivots are often below the diagonal (row swaps) and
    singular matrices stop early; Laurent entries range from monomials to
    five terms, so the fewest-terms pivot of `laurent_bareiss` is often not
    the first nonzero entry.
    """
    n = draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        entry = st.sampled_from((0,) * 4 + LAURENT_ENTRIES)
    else:
        entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    zero_col = draw(st.integers(0, 3 * n))  # no zero column when >= n
    return [[0 if c == zero_col else draw(entry) for c in range(n)]
            for _ in range(n)]


_t = LaurentPolynomial.t()
_dense = 1 + _t + _t * _t


@settings(max_examples=400)
@given(laurent_or_int_matrices())
@example([[_dense, _t, 2], [0, 1 - _t, _t], [_t, 3, _dense]])  # swap rows 0, 2
@example([[0, _t], [_dense, 1]])
@example([[_t, _dense], [0, 0]])  # singular after one pivot
def test_exact_determinant_matches_leibniz(m):
    # an integer matrix through the Bareiss kernel, a Laurent one through the
    # packed determinant and the oracle's Laurent Bareiss
    want = leibniz_determinant(m)
    if all(isinstance(x, int) for row in m for x in row):
        assert exact_determinant(m) == want
    else:
        assert laurent_bareiss(m) == want
        lifted = [[LaurentPolynomial.constant(x) if isinstance(x, int) else x
                   for x in row] for row in m]
        assert _laurent_determinant(lifted) == want


@pytest.mark.parametrize("j", range(1, 6))
def test_byte_width_keeps_a_guard_bit(j):
    # bounds on either side of 2^(8j): whole bytes, one bit above the bound
    # for the sign of a balanced digit, and no whole byte more than that
    for bound in (2 ** (8 * j) - 1, 2 ** (8 * j), 2 ** (8 * j) + 1):
        k = _byte_width(bound)
        assert k % 8 == 0 and bound < 2 ** (k - 1), bound
        assert bound >= 2 ** (k - 9), bound


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
        # the whole diagonal is zero, so row/column 1 is added to row/column
        # 0 (a_00 = 2 a_01 = -2); pivots -2, -1, -12, 4, 56 follow, each
        # update dividing by the pivot before it, and the last is the
        # determinant
        m = [[0, -1, 2, 0, 3],
             [-1, 0, 3, -1, 1],
             [2, 3, 0, 0, -1],
             [0, -1, 0, 0, -1],
             [3, 1, -1, -1, 0]]
        assert signature_nullity_of_symmetric(m) == rational_signature(m)
        assert symmetric_invariants(nonzeros(m)) == oracle_invariants(m)

    def test_zero_row_drop_then_pivot(self):
        # pivot 2 empties row 1 (a copy of row 0), which is dropped; the
        # diagonal left is all zero, so row/column 3 is added to row/column
        # 2 under div = 2, and pivots -4, -2, -24, 8, 112 follow
        m = [[2, 2, 0, 2, 2, 0, 2],
             [2, 2, 0, 2, 2, 0, 2],
             [0, 0, 0, -1, 2, 0, 3],
             [2, 2, -1, 2, 5, -1, 3],
             [2, 2, 2, 5, 2, 0, 1],
             [0, 0, 0, -1, 0, 0, -1],
             [2, 2, 3, 3, 1, -1, 2]]
        assert signature_nullity_of_symmetric(m) == rational_signature(m)
        assert symmetric_invariants(nonzeros(m)) == oracle_invariants(m)

    def test_zero_diagonal_after_pivot(self):
        # pivot 2 zeroes the diagonals of rows 1 and 2; row 3, untouched and
        # stored under the pivot 1, is read rescaled by 2 when row/column 2
        # is added to row/column 1 under div = 2 (a_11 = 2 a_12 = -12)
        m = [[2, 2, 2, 0],
             [2, 2, -1, 1],
             [2, -1, 2, 1],
             [0, 1, 1, 0]]
        assert symmetric_invariants(nonzeros(m)) == (2, 0, -12)
        assert symmetric_invariants(nonzeros(m)) == oracle_invariants(m)

    def test_drop_then_direct_pivot(self):
        # pivot -2 empties row 1 (minus row 0), which is dropped; row 2 is
        # then a pivot at once, (-2 * 2 - 1 * 1) / 1 = -5, counted positive
        # because the previous pivot is negative
        m = [[-2, 2, 1],
             [2, -2, -1],
             [1, -1, 2]]
        assert symmetric_invariants(nonzeros(m)) == (0, 1, 0)
        assert symmetric_invariants(nonzeros(m)) == oracle_invariants(m)

    def test_negative_first_pivot(self):
        # pivots -2, -1, 2: the second has the sign of the first and counts
        # positive, the third has the opposite sign and counts negative
        m = [[-2, -1, -1],
             [-1, 0, 0],
             [-1, 0, -2]]
        assert symmetric_invariants(nonzeros(m)) == (-1, 0, 2)
        assert symmetric_invariants(nonzeros(m)) == oracle_invariants(m)


@settings(max_examples=400)
@given(symmetric_zero_heavy())
def test_matches_rational_ldlt(m):
    assert signature_nullity_of_symmetric(m) == rational_signature(m)
    assert symmetric_invariants(nonzeros(m))[2] == exact_determinant(m)


@settings(max_examples=60)
@given(banded_zero_heavy())
def test_banded_matches_rational_ldlt(m):
    rows = nonzeros(m)
    before = copy.deepcopy(rows)
    assert symmetric_invariants(rows) == oracle_invariants(m)
    assert rows == before


class TestInputChecks:
    def test_signature_rejects_non_square_and_non_symmetric(self):
        with pytest.raises(ValueError, match="not square"):
            signature_nullity_of_symmetric([[1, 2]])
        with pytest.raises(ValueError, match="not square"):
            signature_nullity_of_symmetric([[1, 2], [2]])
        with pytest.raises(ValueError, match="not symmetric"):
            signature_nullity_of_symmetric([[1, 2], [3, 1]])

    def test_determinant_rejects_non_square(self):
        with pytest.raises(ValueError, match="not square"):
            exact_determinant([[1, 2]])
        with pytest.raises(ValueError, match="not square"):
            exact_determinant([[1, 2], [3]])


class TestLaurentDeterminant:
    def test_row_swap_matches_cofactor_expansion(self):
        t, one, zero = LaurentPolynomial.t(1), LaurentPolynomial.one(), LaurentPolynomial.zero()
        # a[0][0] = 0 and a negative exponent in the middle row
        m = [[zero, t, one + t],
             [t - one, LaurentPolynomial.t(-1), 2 * t],
             [one, zero, t * t - 3]]
        det = _laurent_determinant(m)
        assert det == cofactor_determinant(m)
        assert det == LaurentPolynomial({4: -1, 3: 1, 2: 5, 1: -3, 0: -1, -1: -1})
        assert _laurent_determinant([]) == LaurentPolynomial.one()

    def test_singular_gives_the_ring_zero(self):
        t, one, zero = LaurentPolynomial.t(1), LaurentPolynomial.one(), LaurentPolynomial.zero()
        m = [[zero, t, one],
             [zero, one - t, t],
             [zero, t * t, one + t]]
        for det in (_laurent_determinant(m), laurent_bareiss(m)):
            assert isinstance(det, LaurentPolynomial)
            assert det == LaurentPolynomial.zero()

    def test_never_divides_by_one(self, monkeypatch):
        # the oracle's first step, and any step after a pivot 1, skips the
        # division
        divisors = []
        exact_div = oracles.exact_div

        def recording(num, d):
            divisors.append(d)
            return exact_div(num, d)

        monkeypatch.setattr(oracles, "exact_div", recording)
        t, one = LaurentPolynomial.t(1), LaurentPolynomial.one()
        m = [[one + t, t, 2 * t],
             [t, 3 * one, one - t],
             [t * t, one + t, LaurentPolynomial.t(-1)]]
        assert laurent_bareiss(m) == cofactor_determinant(m)
        assert divisors and all(d != 1 for d in divisors)
