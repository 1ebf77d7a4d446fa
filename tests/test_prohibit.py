import pytest
from hypothesis import given, settings, strategies as st

from linksig import prohibit
from linksig.closedforms import sign_null_b
from linksig.prohibit import (CurveParams, Degree9Scheme, deg9_enumerate,
                              deg9_formulas, fiedler_bound, fiedler_min_jumps, jump_window,
                              lemma23_consistent, orientation_balance,
                              pointed_alternation_min, theorem11_check,
                              verdict_curve, verdict_degree9)
from oracles import (curve_hypotheses_hold, deg9_formulas_up_to_flip,
                     feasible_jumps, flipped_scheme, jump_slacks)


class TestTheorem11:
    def test_degree_nine_window(self):
        # the k=4 case: |6 - J| <= 2*lambda_odd + 3
        p = CurveParams(n=1, k=4, r=0, lam=20, lam_odd=0, lam_even=0)
        lo, hi = jump_window(p, which="odd")
        assert (lo, hi) == (3, 9)
        p2 = CurveParams(n=1, k=4, r=0, lam=20, lam_odd=2, lam_even=0)
        assert jump_window(p2, which="odd") == (-1, 13)

    def test_degree_seven_cap(self):
        p = CurveParams(n=1, k=3, r=0, lam=13, lam_odd=0, lam_even=13)
        lo, hi = jump_window(p, which="odd")
        assert hi == 3

    def test_epsilon_input(self):
        from linksig.closedforms import epsilons
        assert epsilons(1, 4).eps == 1

    def test_check_at_given_jumps(self):
        p = CurveParams(n=1, k=4, r=0, J=3, lam=20, lam_odd=0, lam_even=5)
        res = theorem11_check(p)
        assert res.ineq1 and res.slack1 == 0
        assert res.ineq2

    def test_monotone_in_oval_counts(self):
        for lam_odd in range(0, 6):
            p = CurveParams(n=1, k=3, r=0, J=1, lam=9,
                            lam_odd=lam_odd, lam_even=0)
            base = theorem11_check(
                CurveParams(n=1, k=3, r=0, J=1, lam=9, lam_odd=0, lam_even=0))
            res = theorem11_check(p)
            assert res.slack1 >= base.slack1
            if base.ineq1:
                assert res.ineq1

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            theorem11_check(CurveParams(n=1, k=3, J=2, lam=9,
                                        lam_odd=0, lam_even=0))
        with pytest.raises(ValueError):
            theorem11_check(CurveParams(n=4, k=2, J=2, lam=9,
                                        lam_odd=0, lam_even=0))


class TestFiedler:
    def test_examples(self):
        assert fiedler_min_jumps(10, 3) == 7
        assert not fiedler_bound(10, 3, 5)
        assert fiedler_bound(10, 3, 7)
        assert fiedler_bound(5, 5, 0)

    def test_pointed_variant(self):
        # inner-oval variant: J_v >= |delta sum - sign v|
        s = Degree9Scheme(3, 0, 1, 0, 1, 0, 1, 1)
        assert pointed_alternation_min(s, 1) == 4
        assert pointed_alternation_min(s, -1) == 6

    def test_pointed_variant_finishes_second_prohibition(self):
        # the unique surviving scheme of the (3, 1, 22) type needs at least
        # three jumps from a negative inner oval; a caller asserting the
        # separation conclusion J_v = 1 gets a contradiction
        (survivor,) = deg9_enumerate(3, 1, 22)
        assert survivor.gamma_minus >= 1
        assert pointed_alternation_min(survivor, -1) == 3
        assert pointed_alternation_min(survivor, -1) > 1


class TestDegree9Formulas:
    def scheme_case1(self):
        return Degree9Scheme(1, 1, 0, 1, 13, 10, -1, -1)

    def test_balance_values(self):
        assert orientation_balance(self.scheme_case1()) == (8, 0)

    def test_formulas_hold(self):
        checks = deg9_formulas(self.scheme_case1())
        assert checks == {"rm7": True, "orient8": True, "ineq10": True}

    def test_family_one_instance(self):
        s = Degree9Scheme(8, 1, 0, 0, 9, 8, -1, -1)
        assert orientation_balance(s)[0] == 8
        assert deg9_formulas(s)["orient8"]

    def test_flip_invariance(self):
        import itertools
        for ap, bm, gp, e1, e2 in itertools.product(
                (0, 1, 2), (0, 1), (0, 5, 9), (1, -1), (1, -1)):
            s = Degree9Scheme(ap, 2 - ap, 0, bm, gp, 9 - gp, e1, e2)
            up = deg9_formulas_up_to_flip(s)
            upf = deg9_formulas_up_to_flip(flipped_scheme(s))
            assert up == upf

    def test_lemma23_filter(self):
        assert not lemma23_consistent(Degree9Scheme(1, 0, 0, 0, 5, 0, 1, 1))
        assert lemma23_consistent(Degree9Scheme(1, 0, 1, 0, 5, 0, 1, 1))
        assert lemma23_consistent(Degree9Scheme(0, 0, 0, 0, 5, 0, 1, 1))


class TestEnumeration:
    def expected_families(self, alpha, gamma):
        """The three admissible orientation patterns for <J | a 1<1<g>>>."""
        out = []
        ap, am = (alpha + 7) // 2, (alpha - 7) // 2
        gp, gm = (gamma + 1) // 2, (gamma - 1) // 2
        out.append(Degree9Scheme(ap, am, 0, 0, gp, gm, -1, -1))
        out.append(Degree9Scheme(ap, am, 0, 0, gm, gp, -1, 1))
        out.append(Degree9Scheme(ap, am, 0, 0, gm, gp, 1, -1))
        return sorted(out, key=lambda s: (s.alpha_plus, s.beta_plus,
                                          s.gamma_plus, s.eps1, s.eps2))

    def test_matches_family_closed_form(self):
        for alpha in range(1, 16, 2):
            for gamma in range(1, 26, 4):
                got = deg9_enumerate(alpha, 0, gamma, lemma23_applicable=True)
                if alpha < 7:
                    assert got == [], (alpha, gamma)
                else:
                    assert got == self.expected_families(alpha, gamma), (alpha, gamma)

    def test_even_alpha_empty(self):
        for alpha in range(0, 16, 2):
            assert deg9_enumerate(alpha, 0, 17, lemma23_applicable=True) == []

    def test_unique_scheme_case_one(self):
        got = deg9_enumerate(2, 1, 23)
        assert [s.as_dict() for s in got] == [
            Degree9Scheme(1, 1, 0, 1, 13, 10, -1, -1).as_dict()]

    def test_unique_scheme_case_two(self):
        got = deg9_enumerate(3, 1, 22)
        assert [s.as_dict() for s in got] == [
            Degree9Scheme(1, 2, 1, 0, 12, 10, -1, -1).as_dict()]

    def test_gamma_required(self):
        with pytest.raises(ValueError):
            deg9_enumerate(1, 0, 0)

    def test_negative_counts_refused(self):
        # an empty range of splittings is not a prohibition
        for counts in ((-1, 0, 5), (1, -1, 5), (1, 0, -3)):
            with pytest.raises(ValueError, match="cannot be negative"):
                deg9_enumerate(*counts)
            for m_curve in (False, True):
                with pytest.raises(ValueError, match="cannot be negative"):
                    verdict_degree9(*counts, m_curve=m_curve)
        with pytest.raises(ValueError, match="cannot be negative"):
            verdict_degree9(-1, 2, 25, m_curve=True)

    def test_schemes_come_in_key_order(self):
        def key(s):
            return (s.alpha_plus, s.beta_plus, s.gamma_plus, s.eps1, s.eps2)

        for counts in ((9, 0, 17), (2, 1, 23), (8, 0, 18), (5, 2, 19)):
            got = deg9_enumerate(*counts)
            assert got and got == sorted(got, key=key), counts


class TestVerdicts:
    def test_degree_seven_prohibited(self):
        p = CurveParams(n=1, k=3, r=0, lam=13, lam_odd=0, lam_even=13)
        report = verdict_curve(p, lam_plus=10, lam_minus=3)
        assert report.verdict == "prohibited"
        assert report.details["feasible_jumps"] == []

    def test_admissible_when_alternation_fits(self):
        p = CurveParams(n=1, k=3, r=0, lam=13, lam_odd=0, lam_even=13)
        report = verdict_curve(p, lam_plus=8, lam_minus=5)
        assert report.verdict == "admissible"

    def test_explicit_jump_count(self):
        # lambda+ = 10, lambda- = 3: the alternation bound needs more jumps
        # than J = 3, and the jump window ends below J = 7
        for J, violated in ((3, ["alternation bound"]),
                            (5, ["jump window", "alternation bound"]),
                            (7, ["jump window"])):
            p = CurveParams(n=1, k=3, r=0, J=J, lam=13, lam_odd=0, lam_even=13)
            report = verdict_curve(p, lam_plus=10, lam_minus=3)
            assert report.verdict == "prohibited", J
            assert report.violated == violated, J

    def test_hypothesis_gate(self):
        p = CurveParams(n=1, k=3, r=0, J=3, lam=2, lam_odd=0, lam_even=0)
        assert verdict_curve(p).verdict == "hypothesis not met"

    def test_family_hypotheses_come_from_their_owner(self):
        # the report names the first failure, in the words of the owner
        for n, k, j in ((4, 2, 2), (1, 3, 2), (2, 1, 0), (4, 2, None)):
            p = CurveParams(n=n, k=k, J=j, lam=9)
            asked = 2 if j is None else j
            with pytest.raises(ValueError) as exc:
                sign_null_b(n, k, asked, (1,) * asked)
            assert verdict_curve(p).violated == [str(exc.value)], (n, k, j)
        p = CurveParams(n=1, k=3, J=9, lam=9)
        assert verdict_curve(p).violated == ["need lambda > J"]

    def test_jump_search_stops_below_lambda(self):
        # no alternation bound: the search starts at J = 1, not at the window
        p = CurveParams(n=2, k=1, lam=5, lam_odd=6, lam_even=6)
        assert verdict_curve(p, 0, 0).details["jump_window"][0] < 0
        assert verdict_curve(p, 0, 0).details["feasible_jumps"] == [2, 4]
        # the window holds about 4e9 jump counts; only J < lambda = 5 can pass
        p = CurveParams(n=1, k=3, lam=5, lam_odd=10**9, lam_even=10**9)
        report = verdict_curve(p, 0, 0)
        assert report.details["jump_window"] == [-1999999999, 2000000003]
        assert report.details["feasible_jumps"] == [1, 3]

    def test_range_check_runs_once_per_verdict(self, monkeypatch):
        from linksig import prohibit
        calls = []
        monkeypatch.setattr(prohibit, "sign_null_b",
                            lambda *args: calls.append(args) or sign_null_b(*args))
        p = CurveParams(n=2, k=1, lam=40, lam_odd=30, lam_even=30)
        assert len(verdict_curve(p, 3, 1).details["feasible_jumps"]) == 19
        assert len(calls) == 1
        theorem11_check(CurveParams(n=2, k=1, J=2, lam=40))
        assert len(calls) == 2

    def test_alternation_needs_both_counts(self):
        p = CurveParams(n=1, k=3, r=0, lam=13, lam_odd=0, lam_even=13)
        with pytest.raises(ValueError, match="both"):
            verdict_curve(p, lam_plus=10)
        with pytest.raises(ValueError, match="both"):
            verdict_curve(p, lam_minus=3)
        with pytest.raises(ValueError, match="cannot be negative"):
            verdict_curve(p, -4, -5)
        with pytest.raises(ValueError, match="cannot be negative"):
            fiedler_bound(3, -1, 5)

    def test_degree9_admissible(self):
        report = verdict_degree9(9, 0, 17, assume_lemma23=True)
        assert report.verdict == "admissible"
        assert len(report.schemes) == 3

    def test_degree9_prohibited(self):
        report = verdict_degree9(8, 0, 18, assume_lemma23=True)
        assert report.verdict == "prohibited"
        # without the separation lemma a wide-gamma-splitting candidate
        # survives, so no prohibition is claimed
        assert verdict_degree9(8, 0, 18).verdict == "admissible"

    def test_m_curve_count(self):
        assert verdict_degree9(2, 1, 23, m_curve=True).verdict == "admissible"
        assert verdict_degree9(2, 1, 20, m_curve=True).verdict == "hypothesis not met"

    def test_harnack_bound(self, monkeypatch):
        # beyond 28 ovals the sieve is never started
        def no_sieve(*args, **kwargs):
            raise AssertionError("enumerated past Harnack's bound")
        monkeypatch.setattr(prohibit, "deg9_enumerate", no_sieve)
        for counts in ((100, 100, 100), (20, 20, 20), (1, 1, 25)):
            report = verdict_degree9(*counts)
            assert report.verdict == "prohibited"
            assert report.violated == ["Harnack bound: more than 28 ovals"]
            assert report.schemes == []
        # the maximal-curve count is checked first
        assert verdict_degree9(20, 20, 20, m_curve=True).verdict == "hypothesis not met"
        monkeypatch.undo()
        assert verdict_degree9(2, 1, 23, m_curve=True).verdict == "admissible"
        assert "Harnack" not in str(verdict_degree9(1, 1, 24).as_dict())

    def test_reports_are_json_ready(self):
        import json
        p = CurveParams(n=1, k=4, r=0, J=3, lam=20, lam_odd=1, lam_even=2)
        json.dumps(verdict_curve(p).as_dict())
        json.dumps(verdict_degree9(3, 1, 22, assume_lemma23=True).as_dict())


class TestCurveParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurveParams(n=0, k=1)
        with pytest.raises(ValueError):
            CurveParams(n=1, k=1, lam=-1)


def _interval(slack) -> tuple[int, int]:
    """The least and greatest J in a range wider than any drawn window
    where the slack is nonnegative."""
    inside = [j for j in range(-100, 400) if slack(j) >= 0]
    return inside[0], inside[-1]


@settings(max_examples=300)
@given(n=st.integers(1, 9), k=st.integers(1, 5), r=st.integers(0, 3),
       lams=st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
       J=st.none() | st.integers(-1, 31),
       pm=st.none() | st.tuples(st.integers(0, 30), st.integers(0, 30)))
def test_curve_layer_matches_the_pointwise_inequalities(n, k, r, lams, J, pm):
    lam, lam_odd, lam_even = lams
    p = CurveParams(n=n, k=k, r=r, J=J, lam=lam, lam_odd=lam_odd,
                    lam_even=lam_even)
    odd = _interval(lambda j: jump_slacks(n, k, r, j, lam_odd, lam_even)[0])
    even = _interval(lambda j: jump_slacks(n, k, r, j, lam_odd, lam_even)[1])
    both = (max(odd[0], even[0]), min(odd[1], even[1]))
    assert (jump_window(p, "odd"), jump_window(p, "even"), jump_window(p)) == (
        odd, even, both)
    report = verdict_curve(p, *(pm or (None, None)))
    if not curve_hypotheses_hold(n, k, J, lam):
        assert report.verdict == "hypothesis not met"
        if J is not None:
            with pytest.raises(ValueError):
                theorem11_check(p)
        return
    details: dict = {"jump_window": list(both)}
    violated = []
    if J is not None:
        s1, s2 = jump_slacks(n, k, r, J, lam_odd, lam_even)
        details["theorem11"] = {"ineq1": s1 >= 0, "ineq2": s2 >= 0,
                                "slack1": s1, "slack2": s2}
        assert theorem11_check(p).as_dict() == details["theorem11"]
        if min(s1, s2) < 0:
            violated.append("jump window")
        if pm and J < abs(pm[0] - pm[1]):
            violated.append("alternation bound")
    elif pm:
        need = abs(pm[0] - pm[1])
        feasible = feasible_jumps(n, k, r, lam, lam_odd, lam_even, need)
        details |= {"alternation_min_jumps": need, "feasible_jumps": feasible}
        if not feasible:
            violated.append("alternation bound vs jump window")
    assert report.details == details
    assert report.violated == violated
    assert report.verdict == ("prohibited" if violated else "admissible")
