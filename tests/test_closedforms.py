import pytest
from hypothesis import given, settings, strategies as st

from linksig.braid import (FamilyParams, family_b, family_c, family_params,
                           half_twist)
from linksig.closedforms import (FormulaNotEstablished, SignNull, epsilons,
                                 mt_gap, sign_null_b, sign_null_c,
                                 sign_null_delta)
from linksig.seifert import signature_nullity
from linksig.skeinpoly import (det_table_all_ones, family_det_closed_form,
                               tilde_closed_form)
from linksig.splice import b_family_diagram, c_family_diagram

# the half-twist rows of the appended computation log, as (-Sign, Null)
LOG_DELTA_ROWS = {
    (1, 1): (1, 0), (1, 2): (6, 0), (1, 3): (11, 0),
    (2, 1): (4, 0), (2, 2): (12, 0), (2, 3): (24, 0),
    (3, 1): (7, 0), (3, 2): (18, 0), (3, 3): (37, 0),
    (4, 1): (8, 2), (4, 2): (24, 4), (4, 3): (48, 6),
}

# narrow-family rows (n, k) -> (-Sign, Null) for J=1, alpha=(1,)
LOG_B_J1_ROWS = {(1, 1): (1, 1), (1, 2): (5, 0), (1, 3): (11, 1),
                 (3, 1): (6, 0), (3, 2): (18, 1), (3, 3): (36, 0)}
# wide-family rows for J=1, alpha=(1,)
LOG_C_J1_ROWS = {(1, 2): (6, 1), (1, 3): (10, 0),
                 (3, 2): (17, 0), (3, 3): (37, 1)}


class TestEpsilons:
    def test_examples(self):
        assert epsilons(1, 2).eps == 1
        assert epsilons(1, 1).eps_prime == 2
        for k in (1, 2, 3):
            assert epsilons(2, k).eps == 0
            assert epsilons(4, k).eps_prime == 0

    def test_case_table(self):
        for n in range(1, 9):
            for k in range(1, 7):
                e = epsilons(n, k)
                if n % 2 == 0:
                    assert e.eps == 0 and e.eps_prime == 0
                elif k % 2 == 0:
                    assert e.eps == (-1) ** ((n - 1) // 2)
                    assert e.eps_prime == (-1) ** ((n + 1) // 2)
                else:
                    assert e.eps == 0
                    assert e.eps_prime == 2 * (-1) ** ((n - 1) // 2)

    def test_ranges(self):
        for n in range(1, 9):
            for k in range(1, 7):
                e = epsilons(n, k)
                assert e.eps in (-1, 0, 1)
                assert e.eps_prime in (-2, -1, 0, 1, 2)


class TestHalfTwistTable:
    def test_examples(self):
        assert sign_null_delta(1, 1).as_tuple() == (-1, 0)
        assert sign_null_delta(3, 2).as_tuple() == (-18, 0)
        assert sign_null_delta(4, 3).as_tuple() == (-48, 6)

    def test_against_log_rows(self):
        for (n, k), (minus_sign, null) in LOG_DELTA_ROWS.items():
            sn = sign_null_delta(n, k)
            assert (-sn.sign, sn.null) == (minus_sign, null), (n, k)

    def test_against_direct_computation(self):
        for n in range(1, 5):
            for k in range(1, 4):
                direct = signature_nullity(half_twist(2 * k + 1) ** n)
                assert sign_null_delta(n, k).as_tuple() == direct, (n, k)


class TestFamilyClosedForms:
    def test_example_narrow(self):
        assert sign_null_b(1, 1, 1, [1]).as_tuple() == (-1, 1)

    def test_example_narrow_k2(self):
        sn = sign_null_b(3, 2, 1, [1])
        assert sn.null == 1
        assert sn.sign - sn.null == -18 + 1 - 1 + epsilons(3, 2).eps
        assert (-sn.sign, sn.null) == (18, 1)

    def test_log_family_rows(self):
        for (n, k), want in LOG_B_J1_ROWS.items():
            sn = sign_null_b(n, k, 1, [1])
            assert (-sn.sign, sn.null) == want, (n, k)
        for (n, k), want in LOG_C_J1_ROWS.items():
            sn = sign_null_c(n, k, 1, [1])
            assert (-sn.sign, sn.null) == want, (n, k)

    def test_wide_equals_narrow_for_even_n(self):
        for k in (2, 3):
            for j in (2, 4):
                for alphas in ([1] * j, [2] * j, [1, 3] * (j // 2)):
                    assert (sign_null_c(2, k, j, alphas)
                            == sign_null_b(2, k, j, alphas))

    def test_against_direct_small_grid(self):
        for n in (1, 2):
            for k in (1, 2):
                for j in (1, 2, 3):
                    if (n - j) % 2:
                        continue
                    for alphas in ([1] * j, [2] * j):
                        got = sign_null_b(n, k, j, alphas).as_tuple()
                        want = signature_nullity(family_b(
                            FamilyParams(n, k, j, tuple(alphas))))
                        assert got == want, (n, k, j, alphas)

    def test_special_pair_narrow(self):
        # n = 2 mod 4: nullity stays zero, sign grows with the twist count
        for k in (1, 2):
            for a0 in (0, 1, 2, 3):
                got = sign_null_b(2, k, 2, [a0, 0])
                want = signature_nullity(family_b(FamilyParams(2, k, 2, (a0, 0))))
                assert got.as_tuple() == want, (k, a0)

    def test_special_pair_wide(self):
        for a0 in (0, 1, 2):
            got = sign_null_c(2, 2, 2, [a0, 0])
            want = signature_nullity(family_c(FamilyParams(2, 2, 2, (a0, 0))))
            assert got.as_tuple() == want, a0

    def test_special_pair_zero_mod_four(self):
        # only the nullity is established; sign is reported as None
        for a0, null in ((0, 2), (1, 1), (2, 1), (3, 1)):
            got = sign_null_b(4, 1, 2, [a0, 0])
            assert got.sign is None and got.null == null, a0
            direct = signature_nullity(family_b(FamilyParams(4, 1, 2, (a0, 0))))
            assert direct[1] == null, a0

    def test_out_of_hypothesis_raises(self):
        with pytest.raises(FormulaNotEstablished):
            sign_null_b(4, 2, 2, [1, 1])
        with pytest.raises(FormulaNotEstablished):
            sign_null_c(4, 2, 2, [1, 1])
        with pytest.raises(ValueError):
            sign_null_c(1, 1, 1, [1])
        with pytest.raises(ValueError):
            sign_null_b(1, 1, 2, [1, 1])

    def test_exploratory_regime_matches_unproven_pattern(self):
        # direct computation only; nothing here is asserted as a closed form
        for k in (2, 3):
            direct = signature_nullity(family_b(FamilyParams(4, k, 2, (2, 2))))
            base_null = 0  # the J=2, alphas=(2,2) pattern has no extra kernel
            assert direct[1] == 2 * (k - 1) + base_null

    def test_determinant_coupling(self):
        # closed-form nullity is 1 exactly when the normalized det vanishes
        for kind, n, k in (("b", 1, 1), ("b", 1, 2), ("b", 2, 2), ("c", 1, 2),
                           ("c", 3, 2), ("b", 3, 3)):
            fn = sign_null_b if kind == "b" else sign_null_c
            for j in (1, 2, 3, 4):
                if (n - j) % 2:
                    continue
                for alphas in ([1] * j, [2] * j, [1] + [2] * (j - 1)):
                    null = fn(n, k, j, alphas).null
                    tilde = tilde_closed_form(kind, n, k, j, alphas)
                    assert (null > 0) == tilde.is_zero(), (kind, n, k, j, alphas)


class TestSignNullType:
    def test_nonnegative_null(self):
        with pytest.raises(ValueError):
            SignNull(0, -1)


class TestMtGap:
    def test_half_twist_case(self):
        # Null 0, Sign -1, m = 3, e = 3: gap (0+1) - (1+3-3) = 0, holds
        assert mt_gap(-1, 0, 3, 3) == 0
        assert mt_gap(-1, 0, 3, 3) >= 0

    def test_boundary(self):
        assert mt_gap(0, 0, 7, 6) == 0

    def test_violation(self):
        assert mt_gap(-5, 0, 3, 3) == -4

    def test_holds_on_positive_braids(self):
        # closures of positive braids are algebraic-like links, where the
        # signed-count inequality is guaranteed
        for n in range(1, 5):
            for k in range(1, 4):
                w = half_twist(2 * k + 1) ** n
                sign, null = signature_nullity(w)
                assert mt_gap(sign, null, w.strands, w.exponent_sum()) >= 0

    def test_negative_gap_signals_prohibition(self):
        # a twist pattern with too few ovals for its jump count fails the
        # inequality, which is exactly the prohibition mechanism
        w = family_b(FamilyParams(1, 1, 1, (2,)))
        sign, null = signature_nullity(w)
        assert mt_gap(sign, null, w.strands, w.exponent_sum()) < 0


def _in_domain(kind, n, k, j, alphas) -> bool:
    """The family domain, stated independently of the library."""
    return (kind in ("b", "c") and n >= 1 and k >= (2 if kind == "c" else 1)
            and j >= 1 and (n - j) % 2 == 0 and len(alphas) == j
            and all(a >= 0 for a in alphas))


def _outcome(call) -> str:
    try:
        call()
    except FormulaNotEstablished:
        return "not established"
    except ValueError:
        return "refused"
    return "answered"


@st.composite
def family_draws(draw):
    """(kind, n, k, J, alphas) on both sides of every domain boundary."""
    kind = draw(st.sampled_from(["b", "c"]))
    n, k, j = (draw(st.integers(-1, 9)) for _ in range(3))
    if draw(st.booleans()):  # half the draws give J the parity of n
        j = draw(st.sampled_from([x for x in range(-1, 10) if (x - n) % 2 == 0]))
    size = max(j, 0) if draw(st.booleans()) else draw(st.integers(0, 9))
    twist = st.one_of(st.integers(1, 3), st.integers(-1, 3))
    alphas = draw(st.lists(twist, min_size=size, max_size=size))
    return kind, n, k, j, alphas


class TestFamilyDomain:
    def test_refusals(self):
        # the first four answered for braids that do not exist
        for call in (lambda: det_table_all_ones("b", 1, 1, 2),
                     lambda: b_family_diagram(0, 1, 2),
                     lambda: b_family_diagram(1, 1, -1),
                     lambda: sign_null_c(4, 2, 2, [-1, 5]),
                     lambda: family_params("a", 1, 1, 1, (1,)),
                     lambda: tilde_closed_form("a", 1, 1, 1, (1,)),
                     lambda: det_table_all_ones("a", 1, 1, 1)):
            assert _outcome(call) == "refused"
        # by the kind rule, before any letter is built
        with pytest.raises(ValueError, match="requires k >= 2"):
            family_c(FamilyParams(1, 1, 1, (1,)))

    @settings(max_examples=400)
    @given(family_draws())
    def test_every_entry_point_refuses_the_same_draws(self, draw):
        kind, n, k, j, alphas = draw
        ones = (1,) * max(j, 0)
        diagram = b_family_diagram if kind == "b" else c_family_diagram
        word = family_b if kind == "b" else family_c
        sign_null = sign_null_b if kind == "b" else sign_null_c
        with_alphas = [
            lambda: family_params(kind, n, k, j, alphas),
            lambda: word(FamilyParams(n, k, j, alphas)),
            lambda: sign_null(n, k, j, alphas),
            lambda: tilde_closed_form(kind, n, k, j, alphas),
            lambda: family_det_closed_form(kind, n, k, j, alphas),
        ]
        all_ones = [lambda: det_table_all_ones(kind, n, k, j),
                    lambda: diagram(n, k, j)]
        for calls, twists in ((with_alphas, alphas), (all_ones, ones)):
            valid = _in_domain(kind, n, k, j, twists)
            for call in calls:
                got = _outcome(call)
                assert (got == "refused") == (not valid), (draw, got)
