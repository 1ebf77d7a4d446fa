import pytest
from hypothesis import example, given, settings, strategies as st

from linksig.braid import BraidWord
from linksig.gaussian import GaussianInteger, i_power, parse_gaussian
from linksig.laurent import (ExactDivisionError, LaurentPolynomial,
                             _divide_power_minus_one, _times_power_minus_one)
from linksig.seifert import link_det
from oracles import exact_div

T = LaurentPolynomial.t


def lp(d):
    return LaurentPolynomial(d)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (T(1) - T(-1)) * (T(1) + T(-1)) == lp({2: 1, -2: -1})

    def test_additive_inverse(self):
        p = lp({3: 2, 0: -1, -2: 5})
        assert (p + (-p)).is_zero()
        assert not (p + (-p))._coeffs

    def test_square_expansion(self):
        assert (T(1) - T(-1)) ** 2 == lp({2: 1, 0: -2, -2: 1})

    def test_zero_pruning(self):
        assert lp({1: 0, 2: 3})[1] == 0
        assert lp({1: 0, 2: 3}).exponents() == [2]
        # without its own branch t_binomial(0) would be {0: 1, -0: -1} = -1
        assert LaurentPolynomial.t_binomial(0) == 0
        assert LaurentPolynomial.one() != "1"

    def test_shift_and_substitute(self):
        p = lp({1: 1, -1: -1})
        assert p.shift(2) == lp({3: 1, 1: -1})
        assert p.substitute_power(3) == lp({3: 1, -3: -1})
        assert p.substitute_power(-1) == -p

    def test_exact_div(self):
        num = LaurentPolynomial.t_binomial(6)
        den = LaurentPolynomial.t_binomial(2)
        q = exact_div(num, den)
        assert q * den == num
        with pytest.raises(ExactDivisionError):
            exact_div(num + 1, den)

    def test_floordiv_is_exact_division(self):
        # the oracle divides by an int too; the library has no ``//``
        num = LaurentPolynomial.t_binomial(6)
        assert exact_div(3 * num, 3) == num
        with pytest.raises(ExactDivisionError):
            exact_div(num, 2)
        with pytest.raises(TypeError):
            num // 2

    def test_constant_hashes_as_its_int(self):
        # a constant equals its int, so a set holds the two once
        assert hash(LaurentPolynomial.constant(3)) == hash(3)
        assert len({LaurentPolynomial.zero(), 0}) == 1
        assert len({LaurentPolynomial.constant(-7), -7, T(1)}) == 2

    def test_pow_matches_repeated_mul(self):
        p = lp({1: 2, 0: -1})
        assert p ** 3 == p * p * p
        assert p ** 0 == LaurentPolynomial.one()


@st.composite
def binomial_quotients(draw):
    """(num, a), a != 0: num a seeded product of binomials t^b - 1 and a
    small polynomial, shifted; in a third of the draws one coefficient is
    off by one, so that most of those are inexact."""
    num = draw(st.dictionaries(st.integers(-4, 4), st.integers(-9, 9),
                               min_size=1, max_size=4).map(LaurentPolynomial))
    for b in draw(st.lists(st.integers(1, 9), max_size=5)):
        num = num * (T(b) - 1)
    a = draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        num = num * (T(a) - 1)
    if draw(st.integers(0, 2)) == 0:
        num = num + T(draw(st.integers(-8, 40)))
    return num.shift(draw(st.integers(-30, 30))), a


@settings(max_examples=300)
@given(binomial_quotients())
@example((lp({6: 1, 0: -1}).shift(-3), 2))  # t + t^-1 + t^-3
@example((lp({6: 1, 0: -1}).shift(-3), -2))  # t^-2 - 1 = -t^-2 (t^2 - 1)
@example((T(1), 1))  # shorter than the divisor
@example((lp({4: 1, 0: -2}), 2))
@example((LaurentPolynomial.zero(), 5))
def test_divide_power_minus_one_equals_exact_div(case):
    # the same verdict as the oracle's long division, and the same quotient;
    # for a < 0, t^a - 1 = -t^a (t^-a - 1)
    num, a = case
    low = min(num.exponents(), default=0)
    dense = [num[e] for e in range(low, max(num.exponents(), default=-1) + 1)]
    try:
        want = exact_div(num, T(a) - 1)
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            _divide_power_minus_one(dense, abs(a))
        return
    quot = lp(dict(enumerate(_divide_power_minus_one(dense, abs(a)), low)))
    assert (quot if a > 0 else -quot.shift(-a)) == want


@given(st.lists(st.integers(-10**20, 10**20), max_size=30), st.integers(1, 12))
@example([], 1)
@example([5], 3)
def test_times_then_divide_power_minus_one_round_trips(c, a):
    times = _times_power_minus_one(c, a)
    assert len(times) == len(c) + a
    assert _divide_power_minus_one(times, a) == c


class TestEvalAtI:
    def test_basic(self):
        assert (T(1) - T(-1)).eval_at_i() == GaussianInteger(0, 2)

    def test_periodicity(self):
        assert (T(4) - T(-4)).eval_at_i().is_zero()

    def test_real_value(self):
        assert lp({2: 1, 0: -1, -2: 1}).eval_at_i() == GaussianInteger(-3, 0)

    def test_zero_polynomial(self):
        assert LaurentPolynomial.zero().eval_at_i() == GaussianInteger(0, 0)


small_laurent = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPolynomial)


@settings(max_examples=120)
@given(small_laurent, small_laurent)
def test_eval_at_i_is_multiplicative(a, b):
    assert (a * b).eval_at_i() == a.eval_at_i() * b.eval_at_i()


@given(st.dictionaries(st.integers(-60, 60), st.integers(-10**30, 10**30),
                       max_size=12))
def test_eval_at_i_sums_powers_of_i(coeffs):
    expected = sum((i_power(e) * c for e, c in coeffs.items()), GaussianInteger(0, 0))
    assert LaurentPolynomial(coeffs).eval_at_i() == expected


@settings(max_examples=80)
@given(small_laurent, small_laurent)
def test_ring_axioms_sampled(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a


@settings(max_examples=60)
@given(small_laurent)
def test_json_roundtrip(p):
    assert LaurentPolynomial.from_json(p.to_json()) == p


class TestText:
    def test_sorted_with_explicit_signs(self):
        assert str(lp({2: 1, 0: -1, -2: 1})) == "+ t^2 - 1 + t^-2"
        assert str(LaurentPolynomial.zero()) == "0"
        assert str(lp({1: -3})) == "- 3*t"


class TestGaussian:
    def test_ring(self):
        i = GaussianInteger(0, 1)
        assert i * i == GaussianInteger(-1, 0)
        assert (GaussianInteger(1, 2) * GaussianInteger(3, -1)
                == GaussianInteger(5, 5))
        assert GaussianInteger(2, 3).conj() == GaussianInteger(2, -3)
        assert 3 - GaussianInteger(1, 2) == GaussianInteger(2, -2)

    def test_i_power(self):
        assert i_power(0) == GaussianInteger(1, 0)
        assert i_power(-1) == GaussianInteger(0, -1)
        assert i_power(6) == GaussianInteger(-1, 0)

    def test_equals_its_int(self):
        # + and * take ints, so == does too, and a real value hashes as its int
        assert GaussianInteger(3, 0) == 3
        assert 3 == GaussianInteger(3, 0)
        assert len({GaussianInteger(0, 0), 0}) == 1
        assert GaussianInteger(0, 1) != 1
        assert GaussianInteger(0, 1) != GaussianInteger(1, 0)
        # the determinant of a split closure is the int 0
        assert link_det(BraidWord(4, (1, -3))) == 0

    def test_format_parse_roundtrip(self):
        for z in (GaussianInteger(0, 0), GaussianInteger(3, 2),
                  GaussianInteger(-4, 0), GaussianInteger(0, 2),
                  GaussianInteger(1, -1), GaussianInteger(0, -1),
                  GaussianInteger(3, 1)):
            assert parse_gaussian(str(z)) == z
