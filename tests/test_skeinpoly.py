import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from linksig.braid import FamilyParams, family_b, family_c
from linksig.gaussian import GaussianInteger, i_power
from linksig.seifert import link_det
from linksig.skeinpoly import (FormulaNotEstablished, InconsistentSpecError,
                               MultilinearCyclicPoly, SkeinSystemSpec, a_minus_even_spec,
                               a_plus_spec, a_pm, a_pm_homogeneous, a_pm_symbolic,
                               axiom_iii_holds,
                               cycle_matchings, f_Jk, family_det_closed_form,
                               det_table_all_ones, reconstruct_from_initial,
                               tilde_closed_form)
from oracles import (A_matrix_det, A_matrix_det_symbolic, banded_matrix,
                     check_skein_axioms, reconstruct_by_subset_sums)

G = GaussianInteger


class TestBandedMatrices:
    def test_small_forms(self):
        assert banded_matrix(1, 1, [5]) == [[-8]]
        assert banded_matrix(1, -1, [5]) == [[-12]]
        assert banded_matrix(2, 1, [1, 2]) == [[-2, 2], [2, -4]]
        assert banded_matrix(2, -1, [1, 2]) == [[-2, 0], [0, -4]]
        assert banded_matrix(3, -1, [0, 0, 0]) == [[0, 1, -1], [1, 0, 1], [-1, 1, 0]]

    def test_row_sum_kernel(self):
        for j in range(1, 8):
            assert A_matrix_det(j, 1, [1] * j) == 0

    def test_minus_at_ones(self):
        for j in range(1, 8):
            assert A_matrix_det(j, -1, [1] * j) == (-1) ** j * 4

    def test_sign_properties(self):
        # strict sign away from the all-ones kernel point
        import itertools
        for j in range(1, 6):
            for xs in itertools.product((1, 2, 3, 4), repeat=j):
                dm = A_matrix_det(j, -1, list(xs))
                assert dm != 0 and (dm > 0) == (j % 2 == 0), (j, xs, dm)
                if xs != (1,) * j:
                    dp = A_matrix_det(j, 1, list(xs))
                    assert dp != 0 and (dp > 0) == (j % 2 == 0), (j, xs, dp)

    def test_difference_identity_symbolic(self):
        for j in range(1, 10):
            diff = A_matrix_det_symbolic(j, -1) - A_matrix_det_symbolic(j, 1)
            assert diff == MultilinearCyclicPoly.constant(j, (-1) ** j * 4), j

    def test_reduction_identity_symbolic(self):
        for j in range(3, 10):
            for sign in (1, -1):
                lhs = A_matrix_det_symbolic(j, sign)
                rhs = A_matrix_det_symbolic(j - 2, -sign).scale(-1)
                assert axiom_iii_holds(lhs, rhs), (j, sign)

    def test_symbolic_matches_numeric(self):
        rng = random.Random(3)
        for j in range(1, 7):
            for sign in (1, -1):
                poly = A_matrix_det_symbolic(j, sign)
                for _ in range(5):
                    xs = [rng.randint(-3, 3) for _ in range(j)]
                    assert poly.evaluate(xs) == G(A_matrix_det(j, sign, xs), 0)


def band_sign(j, sign):
    """e with a_J^sign = e det A_J^e: the J mod 4 pattern of band determinants."""
    return sign if j % 4 in (0, 1) else -sign


class TestTransferProduct:
    """The library's transfer product against the band-matrix oracles."""

    @settings(max_examples=200)
    @given(st.sampled_from((1, -1)),
           st.lists(st.integers(-5, 5), min_size=1, max_size=12))
    def test_numeric_matches_bareiss(self, sign, xs):
        j, e = len(xs), band_sign(len(xs), sign)
        assert a_pm(j, sign, xs) == e * A_matrix_det(j, e, xs)

    def test_numeric_matches_bareiss_near_sixty(self):
        rng = random.Random(60)
        for j in (59, 60):
            for sign in (1, -1):
                xs = [rng.randint(-5, 5) for _ in range(j)]
                e = band_sign(j, sign)
                assert a_pm(j, sign, xs) == e * A_matrix_det(j, e, xs), (j, sign)

    def test_symbolic_matches_principal_minors(self):
        # every J <= 10 and both signs, not a sample
        for j in range(1, 11):
            for sign in (1, -1):
                e = band_sign(j, sign)
                want = A_matrix_det_symbolic(j, e).scale(e)
                assert a_pm_symbolic(j, sign) == want, (j, sign)


class TestNormalizedValues:
    def test_initial_values(self):
        assert a_pm(1, 1, [0]) == 2
        assert a_pm(1, -1, [0]) == 2
        assert a_pm(2, 1, [0, 0]) == 0 and a_pm(2, 1, [1, 0]) == 0
        assert a_pm(2, -1, [0, 0]) == -4 and a_pm(2, -1, [1, 0]) == -4

    def test_all_ones_closed_forms(self):
        for j in range(1, 10, 2):
            assert G(a_pm(j, 1, [1] * j), 0) == (i_power(j + 1) + 1) * 2
            assert G(a_pm(j, -1, [1] * j), 0) == (i_power(j - 1) + 1) * 2
        for j in range(2, 10, 2):
            assert G(a_pm(j, 1, [1] * j), 0) == (i_power(j) - 1) * 2
            assert G(a_pm(j, -1, [1] * j), 0) == (i_power(j) + 1) * -2

    def test_plus_two_is_minus_negated_shifted(self):
        # a_J^- = -4 - a_J^+ (even), 4 - a_J^+ (odd)
        rng = random.Random(8)
        for j in range(1, 8):
            xs = [rng.randint(0, 4) for _ in range(j)]
            shift = -4 if j % 2 == 0 else 4
            assert a_pm(j, -1, xs) == shift - a_pm(j, 1, xs)

    def test_quadratic_case(self):
        # a_2^+ = -4 x1 x2 everywhere
        for x1 in range(-2, 4):
            for x2 in range(-2, 4):
                assert a_pm(2, 1, [x1, x2]) == -4 * x1 * x2


class TestSkeinAxioms:
    def test_a_systems_are_skein_systems(self):
        assert check_skein_axioms([a_pm_symbolic(j, 1) for j in (1, 3, 5, 7)])
        assert check_skein_axioms([a_pm_symbolic(j, -1) for j in (1, 3, 5, 7)])
        assert check_skein_axioms([a_pm_symbolic(j, 1) for j in (2, 4, 6, 8)])
        assert check_skein_axioms([a_pm_symbolic(j, -1) for j in (2, 4, 6, 8)])

    def test_non_cyclic_rejected(self):
        bad = MultilinearCyclicPoly.from_dict(
            3, {frozenset([1]): G(1, 0)})
        assert not check_skein_axioms([bad])

    def test_broken_reduction_rejected(self):
        f1 = a_pm_symbolic(1, 1)
        f3 = a_pm_symbolic(3, 1) + MultilinearCyclicPoly.constant(3, 2)
        assert not check_skein_axioms([f1, f3])


class TestHomogeneousPieces:
    def test_listings(self):
        assert f_Jk(3, 1).as_dict() == {
            frozenset([1]): G(1, 0), frozenset([2]): G(1, 0),
            frozenset([3]): G(1, 0)}
        assert f_Jk(4, 2).evaluate([1, 1, 1, 1]) == G(4, 0)
        assert len(f_Jk(6, 2).coeffs) == 9
        assert f_Jk(3, 3).evaluate([1, 1, 1]) == G(1, 0)

    def test_degenerate(self):
        # the 1-cycle has no edges; 2-cycle has a single edge
        assert f_Jk(1, 1).as_dict() == {frozenset([1]): G(1, 0)}
        assert f_Jk(2, 0).as_dict() == {frozenset(): G(1, 0)}

    def test_counts(self):
        for j in range(1, 11):
            for k in range(2 - (j % 2), j + 1, 2):
                if k == 0:
                    continue
                want = comb((j + k) // 2 - 1, (j - k) // 2) * j // k
                assert f_Jk(j, k).evaluate([1] * j) == G(want, 0), (j, k)

    def test_matchings_disjoint(self):
        for combo in cycle_matchings(8, 3):
            flat = [v for e in combo for v in e]
            assert len(flat) == len(set(flat))

    def test_homogeneous_sum_equals_normalized_det(self):
        for j in range(1, 9):
            for sign in (1, -1):
                assert a_pm_homogeneous(j, sign) == a_pm_symbolic(j, sign), (j, sign)

    def test_each_family_is_skein_system(self):
        for k in (1, 2, 3):
            start = k if k % 2 else k
            fams = [f_Jk(j, k) for j in range(start, start + 7, 2)]
            assert check_skein_axioms(fams), k


class TestReconstruction:
    def test_reproduces_plus_system(self):
        spec = a_plus_spec()
        for j in (1, 3, 5, 7):
            assert reconstruct_from_initial(spec, j) == a_pm_symbolic(j, 1), j

    def test_reproduces_minus_even_system(self):
        spec = a_minus_even_spec()
        for j in (2, 4, 6, 8):
            assert reconstruct_from_initial(spec, j) == a_pm_symbolic(j, -1), j

    def test_random_point_cross_oracle(self):
        rng = random.Random(77)
        spec = a_plus_spec()
        for j in (3, 5):
            poly = reconstruct_from_initial(spec, j)
            for _ in range(10):
                xs = [rng.randint(-2, 3) for _ in range(j)]
                assert poly.evaluate(xs) == G(a_pm(j, 1, xs), 0)

    def test_arbitrary_initial_data_is_consistent(self):
        # every (c0, c_J) assignment extends to a genuine system: the
        # homogeneous pieces form a basis, so the consistency check passes
        # and the result satisfies all three axioms
        spec = SkeinSystemSpec(parity=1, c0=G(2, 0),
                               all_ones=lambda j: G(j * j, 1))
        seq = [reconstruct_from_initial(spec, j) for j in (1, 3, 5)]
        assert check_skein_axioms(seq)
        assert seq[2].evaluate([1] * 5) == G(25, 1)

    @pytest.mark.parametrize("spec, j", [
        *(pytest.param(a_plus_spec(), j, id=f"plus-{j}") for j in (1, 3, 5, 7, 9)),
        *(pytest.param(a_minus_even_spec(), j, id=f"minus-{j}") for j in (2, 4, 6, 8)),
    ])
    def test_named_specs_match_subset_sum_oracle(self, spec, j):
        assert reconstruct_from_initial(spec, j) == reconstruct_by_subset_sums(spec, j)

    @settings(max_examples=40)
    @given(st.sampled_from((1, 2)), st.integers(0, 2),
           st.lists(st.builds(G, st.integers(-9, 9), st.integers(-9, 9)),
                    min_size=8, max_size=8))
    def test_random_specs_match_subset_sum_oracle(self, parity, half, data):
        # data: c0, c1 (parity 2 only), then the all-ones values c_1 .. c_6
        spec = SkeinSystemSpec(parity, data[0], lambda j: data[j + 1],
                               data[1] if parity == 2 else None)
        j = parity + 2 * half
        assert reconstruct_from_initial(spec, j) == reconstruct_by_subset_sums(spec, j)

    def test_inconsistent_spec_raises(self):
        # all-ones data that is not a function of J: each call answers anew,
        # so the vertices reduced to lower arity contradict each other
        calls = itertools.count()
        spec = SkeinSystemSpec(parity=1, c0=G(2, 0),
                               all_ones=lambda j: G(next(calls), 0))
        with pytest.raises(InconsistentSpecError):
            reconstruct_from_initial(spec, 5)


class TestClosedForms:
    def test_five_cases_against_direct_determinants(self):
        cases = [
            ("b", 4, 1), ("b", 2, 1), ("b", 2, 2), ("b", 1, 1), ("b", 1, 2),
            ("c", 2, 2), ("c", 1, 2), ("c", 3, 2),
        ]
        for kind, n, k in cases:
            for j in (1, 2, 3):
                if (n - j) % 2:
                    continue
                for alphas in ([0] * j, [1] * j, [2] * j, [1] + [2] * (j - 1)):
                    p = FamilyParams(n, k, j, tuple(alphas))
                    word = family_b(p) if kind == "b" else family_c(p)
                    want = i_power(sum(alphas)) * link_det(word)
                    got = tilde_closed_form(kind, n, k, j, alphas)
                    assert got == want, (kind, n, k, j, alphas, str(got), str(want))

    def test_vanishing_case(self):
        for j in (2, 4):
            for alphas in ([1] * j, [0] * j, [2] * j):
                assert tilde_closed_form("b", 4, 2, j, alphas).is_zero()

    def test_two_mod_four_case(self):
        assert (tilde_closed_form("b", 2, 2, 2, [1, 1])
                == G(-4 * a_pm(2, -1, [1, 1]), 0))

    def test_narrow_basic(self):
        for a in range(4):
            assert tilde_closed_form("b", 1, 1, 1, [a]) == G(0, 2 - 2 * a)

    def test_wide_rejected_at_zero_mod_four(self):
        with pytest.raises(FormulaNotEstablished):
            tilde_closed_form("c", 4, 2, 2, [1, 1])

    def test_table_consistency(self):
        for n in range(1, 7):
            for k in range(1, 5):
                for j in range(1, 7):
                    if (n - j) % 2:
                        continue
                    if n % 4 != 0 or k == 1:
                        assert (family_det_closed_form("b", n, k, j, [1] * j)
                                == det_table_all_ones("b", n, k, j))
                    if k >= 2 and n % 4 != 0:
                        assert (family_det_closed_form("c", n, k, j, [1] * j)
                                == det_table_all_ones("c", n, k, j))

    def test_multilinearity_of_direct_values(self):
        # three collinear points in each variable, via the matrix oracle
        for kind, n, k in (("b", 1, 1), ("c", 3, 2)):
            j = 3 if n % 2 else 2
            for var in range(j):
                vals = []
                for x in (0, 1, 2):
                    alphas = [1] * j
                    alphas[var] = x
                    p = FamilyParams(n, k, j, tuple(alphas))
                    word = family_b(p) if kind == "b" else family_c(p)
                    vals.append(i_power(sum(alphas)) * link_det(word))
                assert vals[2] - vals[1] == vals[1] - vals[0], (kind, var)

    def test_cyclic_symmetry_of_direct_values(self):
        p1 = FamilyParams(1, 1, 3, (2, 1, 1))
        p2 = FamilyParams(1, 1, 3, (1, 2, 1))
        t1 = i_power(4) * link_det(family_b(p1))
        t2 = i_power(4) * link_det(family_b(p2))
        assert t1 == t2


#: library refusals: a call that must raise ValueError, and its message
REFUSALS = {
    "a_pm-arity": (lambda: a_pm(0, 1, []), "arity must be positive"),
    "a_pm-length": (lambda: a_pm(3, 1, [1, 2]), "need exactly j entries"),
    "a_pm-sign": (lambda: a_pm(1, 0, [1]), "sign must be +-1"),
    "a_pm_symbolic-arity": (lambda: a_pm_symbolic(-1, 1),
                            "arity must be positive"),
    "a_pm_symbolic-sign": (lambda: a_pm_symbolic(3, 2), "sign must be +-1"),
    "a_pm_homogeneous-sign": (lambda: a_pm_homogeneous(2, 0), "sign must be +-1"),
    "f_Jk-parity": (lambda: f_Jk(3, 2),
                    "k must have the parity of J and lie in [0, J]"),
    "f_Jk-above": (lambda: f_Jk(3, 5),
                   "k must have the parity of J and lie in [0, J]"),
    "from_dict-variable": (lambda: MultilinearCyclicPoly.from_dict(
        2, {frozenset([3]): G(1, 0)}), "monomial variable out of range"),
    "from_dict-zero-variable": (lambda: MultilinearCyclicPoly.from_dict(
        2, {frozenset([0, 1]): G(1, 0)}), "monomial variable out of range"),
    "evaluate-arity": (lambda: f_Jk(3, 1).evaluate([1, 1]),
                       "wrong number of arguments"),
    "add-arity": (lambda: f_Jk(3, 1) + f_Jk(1, 1), "arity mismatch"),
    "axiom-arity": (lambda: axiom_iii_holds(f_Jk(3, 1), f_Jk(3, 1)),
                    "arities must differ by 2"),
    "spec-parity": (lambda: SkeinSystemSpec(3, G(0, 0), lambda j: G(0, 0)),
                    "parity must be 1 or 2"),
    "spec-c1": (lambda: SkeinSystemSpec(2, G(0, 0), lambda j: G(0, 0)),
                "parity-2 systems need c1 = f_2(1,0)"),
    "reconstruct-parity": (lambda: reconstruct_from_initial(a_plus_spec(), 4),
                           "arity does not match the parity"),
    "reconstruct-below": (lambda: reconstruct_from_initial(a_minus_even_spec(), 0),
                          "arity does not match the parity"),
}


@pytest.mark.parametrize("call, message", list(REFUSALS.values()),
                         ids=list(REFUSALS))
def test_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_binomial_rational_identity():
    # sum_k C(n-k, k) (-4)^-k == (n+1) / 2^n, exactly
    for n in range(0, 31):
        total = sum(Fraction(comb(n - k, k), (-4) ** k)
                    for k in range(0, n // 2 + 1))
        assert total == Fraction(n + 1, 2 ** n), n
