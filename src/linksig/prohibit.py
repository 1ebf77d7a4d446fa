"""The prohibition engine for odd-degree real curves with a deep nest.

Everything here is finite arithmetic: the jump-count window coming from the
signature computation, Fiedler's alternation bound, and (for degree nine)
the complex-orientation balance equations.  Geometric side conditions from
auxiliary conic/line arguments are never decided here; callers assert them
as flags and the reports echo the assumptions.

Each hypothesis has one owner: J >= 1 and J = n (mod 2) are `braid`'s
family rules, n = 0 (mod 4) needs k = 1 is `closedforms.sign_null_b`'s proven
range, and lambda > J is this module's one rule.  A verdict runs these checks
once; its search over J walks only the counts they allow.

Orientation conventions: the balance equations select one representative of
each pair of opposite complex orientations.  The flip-closed predicates are
exposed separately for invariance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .braid import _check_jumps
from .closedforms import epsilons, sign_null_b


@dataclass(frozen=True)
class CurveParams:
    """Combinatorial data of a deep-nest curve on the n-th ruled surface."""

    n: int
    k: int
    r: int = 0
    J: int | None = None
    lam: int = 0
    lam_odd: int = 0
    lam_even: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1 or self.r < 0:
            raise ValueError("need n, k >= 1 and r >= 0")
        if min(self.lam, self.lam_odd, self.lam_even) < 0:
            raise ValueError("oval counts cannot be negative")


def _hypothesis_failure(p: CurveParams) -> str | None:
    """Why p, with its jump count J if set, fails a hypothesis, or None."""
    least = 2 - p.n % 2  # the range ignores J; ask at the least J of n's parity
    try:
        if p.J is not None:
            if p.J >= p.lam:
                return "need lambda > J"
            _check_jumps(p.n, p.k, p.J)
        sign_null_b(p.n, p.k, least, (1,) * least)
    except ValueError as exc:
        return str(exc)
    return None


@dataclass(frozen=True)
class Theorem11Result:
    ineq1: bool
    ineq2: bool
    slack1: int
    slack2: int

    def as_dict(self) -> dict:
        return dict(vars(self))


def _windows(p: CurveParams) -> tuple[tuple[int, int], ...]:
    """The odd-count and even-count intervals of J, and their intersection:
    |n k^2 - 3k + 1 - r + e - J| <= r + 2 lambda_x + x, (e, lambda_x) = (eps,
    lambda_odd) or (eps', lambda_even), x = k - 1 (odd n) or 2(k - 1)."""
    e = epsilons(p.n, p.k)
    centre = p.n * p.k * p.k - 3 * p.k + 1 - p.r
    width = p.r + ((p.k - 1) if p.n % 2 else 2 * (p.k - 1))
    odd, even = [(centre + eps - width - 2 * lam, centre + eps + width + 2 * lam)
                 for eps, lam in ((e.eps, p.lam_odd), (e.eps_prime, p.lam_even))]
    return odd, even, (max(odd[0], even[0]), min(odd[1], even[1]))


def _slacks(j: int, odd: tuple[int, int], even: tuple[int, int]) -> Theorem11Result:
    s1, s2 = (min(j - lo, hi - j) for lo, hi in (odd, even))
    return Theorem11Result(s1 >= 0, s2 >= 0, s1, s2)


def theorem11_check(p: CurveParams) -> Theorem11Result:
    """The two jump-window inequalities at the given J; each slack is J's
    distance from the nearer end of its window, negative outside it."""
    bad = _hypothesis_failure(p)
    if bad:
        raise ValueError(bad)
    if p.J is None:
        raise ValueError("theorem11_check needs an explicit jump count J")
    return _slacks(p.J, *_windows(p)[:2])


def jump_window(p: CurveParams, which: str = "both") -> tuple[int, int]:
    """The interval of J allowed by the odd-count inequality, the even-count
    one, or both (``which``), ignoring parity."""
    windows = dict(zip(("odd", "even", "both"), _windows(p)))
    if which not in windows:
        raise ValueError("which must be 'odd', 'even', or 'both'")
    return windows[which]


def fiedler_bound(lam_plus: int, lam_minus: int, j: int) -> bool:
    """Alternation along the pencil: J >= |lambda_+ - lambda_-|."""
    return j >= fiedler_min_jumps(lam_plus, lam_minus)


def fiedler_min_jumps(lam_plus: int, lam_minus: int) -> int:
    if lam_plus < 0 or lam_minus < 0:
        raise ValueError("oval counts cannot be negative")
    return abs(lam_plus - lam_minus)


def pointed_alternation_min(scheme: "Degree9Scheme", sign_v: int) -> int:
    """The inner-pencil variant: J_v >= |d_alpha + d_beta + d_gamma - sign v|.

    Callers that assert a geometric jump count (separation arguments give
    J_v = 1) compare it against this bound to finish a prohibition.
    """
    if sign_v not in (1, -1):
        raise ValueError("sign_v must be +-1")
    return abs(scheme.d_alpha + scheme.d_beta + scheme.d_gamma - sign_v)


# ---------------------------------------------------------------------------
# degree nine

#: Harnack's bound: a degree-nine curve has genus 28, so at most 28 ovals
#: besides its odd component.  A scheme with nests alpha, beta, gamma has
#: alpha + beta + gamma + 2 ovals.
MAX_OVALS_DEG9 = 28


@dataclass(frozen=True)
class Degree9Scheme:
    """A complex scheme <J | a+ a- 1_e2 < b+ b- 1_e1 < g+ g- >>."""

    alpha_plus: int
    alpha_minus: int
    beta_plus: int
    beta_minus: int
    gamma_plus: int
    gamma_minus: int
    eps1: int
    eps2: int

    def __post_init__(self) -> None:
        counts = (self.alpha_plus, self.alpha_minus, self.beta_plus,
                  self.beta_minus, self.gamma_plus, self.gamma_minus)
        if any(c < 0 for c in counts):
            raise ValueError("oval counts cannot be negative")
        if self.eps1 not in (1, -1) or self.eps2 not in (1, -1):
            raise ValueError("the nest signs must be +-1")

    @property
    def d_alpha(self) -> int:
        return self.alpha_plus - self.alpha_minus

    @property
    def d_beta(self) -> int:
        return self.beta_plus - self.beta_minus

    @property
    def d_gamma(self) -> int:
        return self.gamma_plus - self.gamma_minus

    @property
    def alpha(self) -> int:
        return self.alpha_plus + self.alpha_minus

    @property
    def beta(self) -> int:
        return self.beta_plus + self.beta_minus

    def notation(self) -> str:
        return (f"<J | {self.alpha_plus}+ {self.alpha_minus}- "
                f"1{'+' if self.eps2 > 0 else '-'}< {self.beta_plus}+ "
                f"{self.beta_minus}- 1{'+' if self.eps1 > 0 else '-'}< "
                f"{self.gamma_plus}+ {self.gamma_minus}- >>")

    def as_dict(self) -> dict:
        return dict(vars(self))


def orientation_balance(s: Degree9Scheme) -> tuple[int, int]:
    """LHS values of the two complex-orientation equations."""
    da, db, dg = s.d_alpha, s.d_beta, s.d_gamma
    e1, e2 = s.eps1, s.eps2
    first = da + e2 + (1 - 2 * e2) * (db + e1) + (1 - 2 * e1 - 2 * e2) * dg
    second = (e2 + 1) * (db + dg) + (e1 + 1) * dg
    return first, second


def deg9_formulas(s: Degree9Scheme) -> dict:
    """The three degree-nine sieves for one oriented scheme.

    rm7: the total-count balance equals 8.  orient8: the nest balance equals
    -(eps1 + eps2 + 2)^2 / 2 (the sign that reproduces the published
    admissible families; see the notes shipped with the package tests).
    ineq10: the jump window meets the alternation bound for each sign of
    innermost oval actually present.
    """
    first, second = orientation_balance(s)
    rm7 = first == 8
    orient8 = 2 * second == -((s.eps1 + s.eps2 + 2) ** 2)
    total = s.d_alpha + s.d_beta + s.d_gamma
    cap = 9 + 2 * s.beta
    ineq10 = True
    if s.gamma_plus >= 1 and abs(total - 1) > cap:
        ineq10 = False
    if s.gamma_minus >= 1 and abs(total + 1) > cap:
        ineq10 = False
    return {"rm7": rm7, "orient8": orient8, "ineq10": ineq10}


def lemma23_consistent(s: Degree9Scheme) -> bool:
    """|d_gamma| > 1 with alpha > 0 forces beta > 0."""
    if abs(s.d_gamma) > 1 and s.alpha > 0 and s.beta == 0:
        return False
    return True


def _check_nests(alpha: int, beta: int, gamma: int) -> None:
    Degree9Scheme(alpha, 0, beta, 0, gamma, 0, 1, 1)  # refuses a negative count
    if gamma < 1:
        raise ValueError("the inner nest must contain at least one oval")


def deg9_enumerate(alpha: int, beta: int, gamma: int,
                   lemma23_applicable: bool = False) -> list[Degree9Scheme]:
    """All oriented schemes surviving the degree-nine sieves.

    One representative per orientation pair is returned (the balance
    equations fix the global orientation), in the order of (alpha_plus,
    beta_plus, gamma_plus, eps1, eps2).
    """
    _check_nests(alpha, beta, gamma)
    out = []
    for ap in range(alpha + 1):
        for bp in range(beta + 1):
            for gp in range(gamma + 1):
                for e1, e2 in product((-1, 1), repeat=2):
                    s = Degree9Scheme(ap, alpha - ap, bp, beta - bp,
                                      gp, gamma - gp, e1, e2)
                    checks = deg9_formulas(s)
                    if not all(checks.values()):
                        continue
                    if lemma23_applicable and not lemma23_consistent(s):
                        continue
                    out.append(s)
    return out


# ---------------------------------------------------------------------------
# verdicts


STRICTNESS_NOTE = ("the jump cap uses the non-strict window; one derivation "
                   "states a strict version, which never changes a verdict")


@dataclass
class Report:
    verdict: str
    violated: list[str] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    schemes: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(vars(self), violated=sorted(self.violated),
                    assumptions=sorted(self.assumptions))


def _jump_search(p: CurveParams, need: int, lo: int, hi: int) -> range:
    """The J that `verdict_curve` lists when no J is given: those of n's
    parity with lambda > J >= 1, in the window [lo, hi] and at least the
    alternation bound `need`.  The n-range check does not depend on J, so no
    listed J fails a hypothesis."""
    first = max(lo, need, 1)
    first += (first - p.n) % 2
    return range(first, min(hi, p.lam - 1) + 1, 2)


def _search_size(p: CurveParams, lam_plus: int | None,
                 lam_minus: int | None) -> int:
    """How many J `verdict_curve` lists, counted without listing them: the
    cost of its search, which grows linearly in lambda."""
    if (p.J is not None or lam_plus is None or lam_minus is None
            or _hypothesis_failure(p)):
        return 0
    need = fiedler_min_jumps(lam_plus, lam_minus)
    return len(_jump_search(p, need, *_windows(p)[2]))


def verdict_curve(p: CurveParams, lam_plus: int | None = None,
                  lam_minus: int | None = None) -> Report:
    """Judge a deep-nest curve bundle: jump window vs alternation bound."""
    if (lam_plus is None) != (lam_minus is None):
        raise ValueError("the alternation bound needs both lambda_+ and lambda_-")
    need = None if lam_plus is None else fiedler_min_jumps(lam_plus, lam_minus)
    bad = _hypothesis_failure(p)
    if bad:
        return Report(verdict="hypothesis not met", violated=[bad],
                      notes=[STRICTNESS_NOTE])
    odd, even, (lo, hi) = _windows(p)
    details: dict = {"jump_window": [lo, hi]}
    violated = []
    if p.J is not None:
        res = _slacks(p.J, odd, even)
        details["theorem11"] = res.as_dict()
        if not (res.ineq1 and res.ineq2):
            violated.append("jump window")
        if need is not None and p.J < need:
            violated.append("alternation bound")
    elif need is not None:
        details["alternation_min_jumps"] = need
        feasible = list(_jump_search(p, need, lo, hi))
        details["feasible_jumps"] = feasible
        if not feasible:
            violated.append("alternation bound vs jump window")
    return Report(verdict="prohibited" if violated else "admissible",
                  violated=violated, notes=[STRICTNESS_NOTE], details=details)


def verdict_degree9(alpha: int, beta: int, gamma: int,
                    m_curve: bool = False,
                    assume_lemma23: bool = False) -> Report:
    """Judge a degree-nine isotopy type through the complex-scheme sieve."""
    _check_nests(alpha, beta, gamma)
    assumptions = []
    if assume_lemma23:
        assumptions.append("separation lemma applies (|d_gamma|>1, alpha>0 => beta>0)")
    if m_curve:
        assumptions.append(f"maximal curve (oval count {MAX_OVALS_DEG9})")
        if alpha + beta + gamma + 2 != MAX_OVALS_DEG9:
            return Report(
                verdict="hypothesis not met",
                violated=["maximal-curve oval count"],
                assumptions=assumptions,
            )
    if alpha + beta + gamma + 2 > MAX_OVALS_DEG9:
        return Report(verdict="prohibited",
                      violated=[f"Harnack bound: more than {MAX_OVALS_DEG9} ovals"],
                      assumptions=assumptions)
    schemes = deg9_enumerate(alpha, beta, gamma,
                             lemma23_applicable=assume_lemma23)
    if schemes:
        return Report(verdict="admissible", assumptions=assumptions,
                      schemes=[s.as_dict() | {"notation": s.notation()}
                               for s in schemes])
    return Report(verdict="prohibited",
                  violated=["complex-orientation sieve leaves no scheme"],
                  assumptions=assumptions)
