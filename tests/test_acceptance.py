"""The acceptance gate: one test per criterion, each printing a verdict line.

Every expected value is exact (integers, Gaussian integers, or Laurent
polynomials); there are no tolerances anywhere.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
from functools import lru_cache

import pytest

from linksig.braid import BraidWord, FamilyParams, family_b, family_c, half_twist
from linksig.gaussian import GaussianInteger, i_power
from linksig.genskein import (RelationSpec, block_identity_residual,
                              coefficient_table, det_relation_check,
                              random_braid, random_laurent, relation_residual)
from linksig.laurent import LaurentPolynomial
from linksig.closedforms import sign_null_b, sign_null_c, sign_null_delta
from linksig.prohibit import (CurveParams, Degree9Scheme, deg9_enumerate,
                              jump_window, verdict_curve)
from linksig.seifert import conway_potential, link_det, signature_nullity
from linksig.skeinpoly import (MultilinearCyclicPoly, a_pm, a_pm_homogeneous,
                               a_pm_symbolic, axiom_iii_holds, det_table_all_ones,
                               tilde_closed_form)
from linksig.splice import b_family_diagram, c_family_diagram, torus_delta_diagram
from oracles import A_matrix_det, A_matrix_det_symbolic

G = GaussianInteger


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {description}")


@lru_cache(maxsize=None)
def delta_sign_null(n: int, k: int) -> tuple[int, int]:
    return signature_nullity(half_twist(2 * k + 1) ** n)


@lru_cache(maxsize=None)
def family_word(kind: str, n: int, k: int, j: int, alphas: tuple) -> BraidWord:
    p = FamilyParams(n, k, j, alphas)
    return family_b(p) if kind == "b" else family_c(p)


def test_criterion_1_half_twist_table():
    """Direct Seifert computation reproduces the closed half-twist table."""
    cases = 0
    for n in range(1, 5):
        for k in range(1, 4):
            got = delta_sign_null(n, k)
            want = sign_null_delta(n, k).as_tuple()
            assert got == want, (n, k, got, want)
            cases += 1
    assert cases == 12
    report(1, "half-twist signature/nullity table, 12 cases, exact")


# the appended computation log, twelve half-twist rows, as (-Sign, Null)
LOG_ROWS = {
    (1, 1): (1, 0), (1, 2): (6, 0), (1, 3): (11, 0),
    (2, 1): (4, 0), (2, 2): (12, 0), (2, 3): (24, 0),
    (3, 1): (7, 0), (3, 2): (18, 0), (3, 3): (37, 0),
    (4, 1): (8, 2), (4, 2): (24, 4), (4, 3): (48, 6),
}


def test_criterion_2_source_log_fixtures():
    """The twelve half-twist rows of the source computation log match."""
    for (n, k), (minus_sign, null) in LOG_ROWS.items():
        sign, got_null = delta_sign_null(n, k)
        assert (-sign, got_null) == (minus_sign, null), (n, k)
    report(2, "twelve source-log half-twist rows, exact after -Sign mapping")


def test_criterion_3_skein_relation():
    """Crossing-switch relation, polynomial and determinant forms, 100 braids."""
    rng = random.Random(1618)
    tb = LaurentPolynomial.t_binomial(1)
    two_i = G(0, 2)
    for trial in range(100):
        m = rng.choice([3, 4])
        length = rng.randint(1, 12)
        letters = [rng.choice([1, -1]) * rng.randint(1, m - 1)
                   for _ in range(length)]
        pos = rng.randrange(length)
        j = abs(letters[pos])
        plus = BraidWord(m, tuple(letters[:pos] + [j] + letters[pos + 1:]))
        minus = BraidWord(m, tuple(letters[:pos] + [-j] + letters[pos + 1:]))
        zero = BraidWord(m, tuple(letters[:pos] + letters[pos + 1:]))
        op, om, oz = map(conway_potential, (plus, minus, zero))
        assert op - om == tb * oz, (m, letters, pos)
        assert op.eval_at_i() - om.eval_at_i() == two_i * oz.eval_at_i()
    report(3, "crossing-switch relation, 100 seeded braids, zero residual")


def test_criterion_4_basic_family_determinants():
    """det b^1(0) = (2i^n)^k and det b^2(0,0) = (2-2i^n)^k, both routes."""
    for n in (1, 3):
        for k in (1, 2, 3):
            want = (G(2, 0) * i_power(n)) ** k
            got_braid = link_det(family_word("b", n, k, 1, (0,)))
            got_splice = torus_delta_diagram(n, k).link_determinant()
            assert got_braid == want, (n, k)
            assert got_splice == want, (n, k)
    for n in (2, 4):
        for k in (1, 2, 3):
            want = (G(2, 0) - G(2, 0) * i_power(n)) ** k
            got_braid = link_det(family_word("b", n, k, 2, (0, 0)))
            got_splice = torus_delta_diagram(n, k).link_determinant()
            assert got_braid == want, (n, k)
            assert got_splice == want, (n, k)
    report(4, "no-twist family determinants, Seifert and splice routes, exact")


# wide-family rows of the log: k -> det at J = 1, 3, 5 (n = 1)
LOG_WIDE_ROWS = {
    2: (G(0, 0), G(0, -8), G(0, 0)),
    3: (G(-16, 0), G(0, 0), G(-16, 0)),
    4: (G(0, 0), G(0, 32), G(0, 0)),
}


def test_criterion_5_determinant_tables():
    """Four-case tables on the full grid, three independent routes."""
    checked = 0
    for n in range(1, 7):
        for k in range(1, 5):
            for j in range(1, 7):
                if (n - j) % 2:
                    continue
                table = det_table_all_ones("b", n, k, j)
                braid = link_det(family_word("b", n, k, j, (1,) * j))
                splice = b_family_diagram(n, k, j).link_determinant()
                assert braid == table == splice, ("b", n, k, j)
                checked += 1
                if k >= 2:
                    table_c = det_table_all_ones("c", n, k, j)
                    braid_c = link_det(family_word("c", n, k, j, (1,) * j))
                    splice_c = c_family_diagram(n, k, j).link_determinant()
                    assert braid_c == table_c == splice_c, ("c", n, k, j)
                    checked += 1
    for k, row in LOG_WIDE_ROWS.items():
        for j, want in zip((1, 3, 5), row):
            assert det_table_all_ones("c", 1, k, j) == want, (k, j)
            if j <= 6:
                assert (c_family_diagram(1, k, j).link_determinant() == want)
    assert checked == 126
    report(5, f"four-case determinant tables, {checked} grid cases + log rows")


def test_criterion_6_normalized_determinants():
    """i^alpha det of the family braids equals the cyclic-system values."""
    cases = [("b", 4, 1), ("b", 2, 1), ("b", 2, 2), ("b", 1, 2), ("b", 1, 1),
             ("c", 2, 2), ("c", 1, 2), ("c", 3, 2)]
    checked = 0
    for kind, n, k in cases:
        for j in range(1, 5):
            if (n - j) % 2:
                continue
            for alphas in _alpha_grid(j, (0, 1, 2)):
                want = tilde_closed_form(kind, n, k, j, alphas)
                word = family_word(kind, n, k, j, tuple(alphas))
                got = i_power(sum(alphas)) * link_det(word)
                assert got == want, (kind, n, k, j, alphas)
                checked += 1
    report(6, f"normalized determinants vs closed forms, {checked} cases, "
              "all five parity regimes")


def _alpha_grid(j, values):
    import itertools
    return list(itertools.product(values, repeat=j))


def test_criterion_7_signature_closed_forms():
    """Closed-form (Sign, Null) equals direct computation; table row patterns."""
    checked = 0
    for n in range(1, 5):
        for k in range(1, 4):
            if n % 4 == 0 and k != 1:
                continue
            for j in range(1, 5):
                if (n - j) % 2:
                    continue
                for alphas in _alpha_grid(j, (1, 2, 3)):
                    want = signature_nullity(family_word("b", n, k, j, alphas))
                    got = sign_null_b(n, k, j, list(alphas)).as_tuple()
                    assert got == want, ("b", n, k, j, alphas)
                    checked += 1
                    if k >= 2 and n % 4 != 0:
                        want = signature_nullity(
                            family_word("c", n, k, j, alphas))
                        got = sign_null_c(n, k, j, list(alphas)).as_tuple()
                        assert got == want, ("c", n, k, j, alphas)
                        checked += 1

    # single-jump table rows over the twist count 0..6ial
    def row(n, k):
        signs, dsigns, nulls = [], [], []
        base = link_det(family_word("b", n, k, 1, (0,)))
        s_delta = sign_null_delta(n, k).sign
        for a in range(7):
            w = family_word("b", n, k, 1, (a,))
            det = link_det(w)
            tilde = i_power(a) * det
            tilde0 = base
            prod = tilde * tilde0.conj()
            assert prod.im == 0
            signs.append(0 if prod.re == 0 else (1 if prod.re > 0 else -1))
            s, nl = signature_nullity(w)
            dsigns.append(s - s_delta)
            nulls.append(nl)
        return signs, dsigns, nulls

    # a representative with n + 2k = 1 mod 4 and one with 3 mod 4
    signs, dsigns, nulls = row(1, 2)
    assert signs == [1, 1, 1, 1, 1, 1, 1]
    assert dsigns == [0, 1, 2, 3, 4, 5, 6]
    assert nulls == [0] * 7
    signs, dsigns, nulls = row(1, 1)
    assert signs == [1, 0, -1, -1, -1, -1, -1]
    assert dsigns == [0, 0, 0, 1, 2, 3, 4]
    assert nulls == [0, 1, 0, 0, 0, 0, 0]

    # multi-jump rows: fixed all-ones tail, varying first twist
    def row2(n, k, j):
        tail = (1,) * (j - 1)
        base = link_det(family_word("b", n, k, j, (0,) + tail))
        s0 = signature_nullity(family_word("b", n, k, j, (0,) + tail))[0]
        signs, dsigns, nulls = [], [], []
        for a in range(7):
            w = family_word("b", n, k, j, (a,) + tail)
            tilde = i_power(a + j - 1) * link_det(w)
            tilde0 = i_power(j - 1) * base
            prod = tilde * tilde0.conj()
            assert prod.im == 0
            signs.append(0 if prod.re == 0 else (1 if prod.re > 0 else -1))
            s, nl = signature_nullity(w)
            dsigns.append(s - s0)
            nulls.append(nl)
        return signs, dsigns, nulls

    signs, dsigns, nulls = row2(1, 2, 3)  # n+2k = 5, J = 3: mismatched column
    assert signs == [1, 0, -1, -1, -1, -1, -1]
    assert dsigns == [0, 0, 0, 1, 2, 3, 4]
    assert nulls == [0, 1, 0, 0, 0, 0, 0]
    signs, dsigns, nulls = row2(1, 1, 3)  # n+2k = 3 = J: matched column
    assert signs == [1, -1, -1, -1, -1, -1, -1]
    assert dsigns == [0, -1, 0, 1, 2, 3, 4]
    assert nulls == [0] * 7
    report(7, f"signature closed forms, {checked} grid cases + four table rows")


def test_criterion_8_symbolic_identities():
    """Coefficient-level identities of the cyclic-system calculus."""
    for j in range(1, 10):
        diff = A_matrix_det_symbolic(j, -1) - A_matrix_det_symbolic(j, 1)
        assert diff == MultilinearCyclicPoly.constant(j, (-1) ** j * 4), j
    for j in range(3, 10):
        for sign in (1, -1):
            assert axiom_iii_holds(A_matrix_det_symbolic(j, sign),
                                   A_matrix_det_symbolic(j - 2, -sign).scale(-1))
    for j in range(1, 9):
        for sign in (1, -1):
            assert a_pm_homogeneous(j, sign) == a_pm_symbolic(j, sign)
    import itertools
    for j in range(1, 6):
        for xs in itertools.product((1, 2, 3, 4), repeat=j):
            dm = A_matrix_det(j, -1, list(xs))
            assert dm != 0 and (dm > 0) == (j % 2 == 0)
            if xs != (1,) * j:
                dp = A_matrix_det(j, 1, list(xs))
                assert dp != 0 and (dp > 0) == (j % 2 == 0)
    assert a_pm(1, 1, [0]) == 2 and a_pm(1, -1, [0]) == 2
    assert a_pm(2, 1, [0, 0]) == 0 and a_pm(2, -1, [1, 0]) == -4
    for j in range(1, 9):
        ones = [1] * j
        if j % 2:
            assert G(a_pm(j, 1, ones), 0) == (i_power(j + 1) + 1) * 2
            assert G(a_pm(j, -1, ones), 0) == (i_power(j - 1) + 1) * 2
        else:
            assert G(a_pm(j, 1, ones), 0) == (i_power(j) - 1) * 2
            assert G(a_pm(j, -1, ones), 0) == (i_power(j) + 1) * -2
    report(8, "symbolic identities: difference, reduction, homogeneous "
              "expansion, sign laws, initial values")


def test_criterion_9_generalized_relations():
    """Five-term residuals on 50 seeded braids; block identity; tables."""
    rng = random.Random(2718)
    spec3 = RelationSpec.delta3_order4()
    spec_sq = RelationSpec.delta3sq_order4()
    for trial in range(50):
        m = rng.choice([3, 4, 5])
        word = random_braid(rng, m, 10)
        assert relation_residual(word, spec3).is_zero(), trial
        assert det_relation_check(word, spec3).is_zero(), trial
        assert relation_residual(word, spec_sq).is_zero(), trial
        assert det_relation_check(word, spec_sq).is_zero(), trial
    for trial in range(20):
        s = rng.randint(0, 3)
        v0 = [[random_laurent(rng) for _ in range(s)] for _ in range(s)]
        u = [[random_laurent(rng) for _ in range(2)] for _ in range(s)]
        ustar = [[random_laurent(rng) for _ in range(s)] for _ in range(2)]
        w = [[random_laurent(rng) for _ in range(2)] for _ in range(2)]
        assert block_identity_residual(v0, u, w, ustar).is_zero(), trial
    L = LaurentPolynomial
    want = {
        2: {"a0": L.one(), "a1": L({2: 1, 0: -1, -2: 1}),
            "a12": L({3: 1}), "a21": L({-3: -1})},
        3: {"a0": L({2: 1, 0: -1, -2: 1}),
            "a1": L({4: 1, 2: -1, -2: -1, -4: 1}),
            "a12": L({5: 1, 3: -1}), "a21": L({-3: 1, -5: -1})},
        4: {"a0": L({4: 1, 2: -1, -2: -1, -4: 1}),
            "a1": L({6: 1, 4: -1, 0: 1, -4: -1, -6: 1}),
            "a12": L({7: 1, 5: -1}), "a21": L({-5: 1, -7: -1})},
    }
    for j, entries in want.items():
        table = coefficient_table(j)
        for key, value in entries.items():
            assert table[key] == value, (j, key)
        cross = L({-2: 1}) * table["a12"] + L({2: 1}) * table["a21"]
        assert table["a11"] == cross and table["a22"] == cross
    report(9, "generalized relations: 50-braid residuals, 20 block instances, "
              "coefficient tables exact")


def test_criterion_10_prohibitions():
    """Degree-7 prohibition, degree-9 window, scheme families and survivors."""
    # degree 7 sieve
    p7 = CurveParams(n=1, k=3, r=0, lam=13, lam_odd=0, lam_even=13)
    rep = verdict_curve(p7, lam_plus=10, lam_minus=3)
    assert rep.verdict == "prohibited"

    # degree 9 jump window
    p9 = CurveParams(n=1, k=4, r=0, lam=26, lam_odd=0, lam_even=0)
    assert jump_window(p9, which="odd") == (3, 9)
    for beta in (1, 2, 3):
        p = CurveParams(n=1, k=4, r=0, lam=26, lam_odd=beta, lam_even=0)
        assert jump_window(p, which="odd") == (3 - 2 * beta, 9 + 2 * beta)

    # scheme families for <J | alpha 1<1<gamma>>>
    def expected_families(alpha, gamma):
        ap, am = (alpha + 7) // 2, (alpha - 7) // 2
        gp, gm = (gamma + 1) // 2, (gamma - 1) // 2
        fams = [Degree9Scheme(ap, am, 0, 0, gp, gm, -1, -1),
                Degree9Scheme(ap, am, 0, 0, gm, gp, -1, 1),
                Degree9Scheme(ap, am, 0, 0, gm, gp, 1, -1)]
        return sorted(fams, key=lambda s: (s.alpha_plus, s.beta_plus,
                                           s.gamma_plus, s.eps1, s.eps2))

    for alpha in range(0, 16):
        for gamma in range(1, 26, 2):
            got = deg9_enumerate(alpha, 0, gamma, lemma23_applicable=True)
            if alpha % 2 == 0 or alpha < 7:
                assert got == [], (alpha, gamma)
            else:
                assert got == expected_families(alpha, gamma), (alpha, gamma)

    # the two unique surviving schemes
    assert [s.as_dict() for s in deg9_enumerate(2, 1, 23)] == [
        Degree9Scheme(1, 1, 0, 1, 13, 10, -1, -1).as_dict()]
    assert [s.as_dict() for s in deg9_enumerate(3, 1, 22)] == [
        Degree9Scheme(1, 2, 1, 0, 12, 10, -1, -1).as_dict()]
    report(10, "degree-7 prohibition, degree-9 window, scheme families "
               "(alpha odd >= 7), unique survivors; exact set equality")


@pytest.fixture(scope="module", autouse=True)
def _summary():
    yield
    print("\nacceptance suite complete")
