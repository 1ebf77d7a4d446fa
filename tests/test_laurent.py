import pytest
from hypothesis import given, settings, strategies as st

from linksig.gaussian import GaussianInteger, i_power, parse_gaussian
from linksig.laurent import ExactDivisionError, LaurentPolynomial

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

    def test_len_counts_stored_terms(self):
        assert len(lp({})) == 0
        assert len(lp({1: 0, 2: 3})) == 1
        assert len((T(1) + 1) ** 3) == 4
        assert len((T(1) - T(-1)) * (T(1) + T(-1))) == 2  # t^0 cancels

    def test_shift_and_substitute(self):
        p = lp({1: 1, -1: -1})
        assert p.shift(2) == lp({3: 1, 1: -1})
        assert p.substitute_power(3) == lp({3: 1, -3: -1})
        assert p.substitute_power(-1) == -p

    def test_exact_div(self):
        num = LaurentPolynomial.t_binomial(6)
        den = LaurentPolynomial.t_binomial(2)
        q = num.exact_div(den)
        assert q * den == num
        with pytest.raises(ExactDivisionError):
            (num + 1).exact_div(den)

    def test_floordiv_is_exact_division(self):
        num = LaurentPolynomial.t_binomial(6)
        den = LaurentPolynomial.t_binomial(2)
        assert num // den == num.exact_div(den)
        assert (3 * num) // 3 == num
        with pytest.raises(ExactDivisionError):
            (num + 1) // den
        with pytest.raises(ExactDivisionError):
            num // 2

    def test_pow_matches_repeated_mul(self):
        p = lp({1: 2, 0: -1})
        assert p ** 3 == p * p * p
        assert p ** 0 == LaurentPolynomial.one()


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

    def test_format_parse_roundtrip(self):
        for z in (GaussianInteger(0, 0), GaussianInteger(3, 2),
                  GaussianInteger(-4, 0), GaussianInteger(0, 2),
                  GaussianInteger(1, -1), GaussianInteger(0, -1),
                  GaussianInteger(3, 1)):
            assert parse_gaussian(str(z)) == z
