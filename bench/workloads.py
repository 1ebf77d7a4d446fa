"""The benchmark's workloads: seeded inputs, the requests sent to linksig, and
the correctness gate of each request.

Every request carries the words or parameters it sends, its timed calls
(each call is one item, one latency sample), an oracle computed by an
independent route, and a check of the outputs against that oracle.  Calls
look linksig functions up when they run, so the tracer's wrappers apply.

Input sizes follow a fixed low-discrepancy schedule (van der Corput), so
every prefix of the request list covers the size range evenly and runs with
different seeds do the same amount of work; the seed picks the letters,
the family parameters and the sieve grids.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

GOLDEN = 0.6180339887498949

#: requests generated per run; a run that outlasts them starts over
WORD_ROUNDS = 512
FAMILY_ITEMS = 2048
#: Seifert dimensions of the family braids, with 1/d^3 uniform in between:
#: each octave of d takes about the same share of the time, and a 30 s run
#: holds a few hundred items
DIM_LO, DIM_HI = 60, 300


@dataclass
class Request:
    """One request: timed calls into linksig plus the untimed gate."""

    label: str
    calls: list[Callable[[], Any]]
    expect: Callable[[], Any]
    check: Callable[[list, Any], bool]
    words: tuple = field(default=())


def vdc(i: int) -> float:
    """The i-th point of the base-2 van der Corput sequence in [0, 1)."""
    u, f = 0.0, 0.5
    while i:
        if i & 1:
            u += f
        i >>= 1
        f /= 2
    return u


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so every prefix samples the range evenly."""
    bits = max(1, (n - 1).bit_length())
    keys = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    return sorted(range(n), key=keys.__getitem__)


def interleave(groups: list[list[Request]]) -> list[Request]:
    """Merge request lists so that each group is spread over the whole list."""
    keyed = [((j + 0.5) / len(g), gi, r) for gi, g in enumerate(groups)
             for j, r in enumerate(g)]
    return [r for _, _, r in sorted(keyed, key=lambda x: (x[0], x[1]))]


# ---------------------------------------------------------------------------
# words: crossing-switch triples through invariants_report, plus five-term
# skein requests


def seifert_dimension(word) -> int:
    """Rank of the Seifert matrix: one cycle per pair of consecutive bands.

    Every absent generator index is stabilized by two letters, which adds
    one cycle.
    """
    missing = word.strands - 1 - len({abs(x) for x in word.letters})
    return len(word.letters) + 2 * missing - (word.strands - 1)


def check_report(ls, word, rep, dim: int) -> bool:
    """det = Omega(i), Omega(1/t) = (-1)^d Omega(t), nullity 0 iff det != 0."""
    omega = ls.laurent.LaurentPolynomial.from_json(rep["conway"])
    det = ls.gaussian.parse_gaussian(rep["det"])
    return (rep["word"] == word.to_text()
            and det == omega.eval_at_i()
            and omega.substitute_power(-1) == omega * (-1) ** dim
            and (rep["nullity"] == 0) == (not det.is_zero()))


def triple_request(ls, plus, minus, zero) -> Request:
    words = (plus, minus, zero)

    def check(reps, dims):
        if not all(check_report(ls, w, r, d) for w, r, d in zip(words, reps, dims)):
            return False
        om = [ls.laurent.LaurentPolynomial.from_json(r["conway"]) for r in reps]
        return om[0] - om[1] == ls.laurent.LaurentPolynomial.t_binomial(1) * om[2]

    return Request(
        "triple",
        [lambda w=w: ls.seifert.invariants_report(w) for w in words],
        lambda: [seifert_dimension(w) for w in words],
        check, words)


def relation_request(ls, word) -> Request:
    spec = ls.genskein.RelationSpec.delta3_order4()
    return Request(
        "five_term",
        [lambda: ls.genskein.relation_residual(word, spec)],
        lambda: ls.laurent.LaurentPolynomial.zero(),
        lambda outs, zero: outs[0] == zero,
        (word,))


def _letters(rng: random.Random, strands: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(length)]


def words_requests(ls, seed: int, span=lambda name: nullcontext()) -> list[Request]:
    """Rounds of four triples (3..6 strands, 8..36 letters) and one five-term
    request (3..4 strands, 6..20 letters)."""
    rng = random.Random(seed)
    out = []
    for r in range(WORD_ROUNDS):
        u = vdc(r)
        for s, m in enumerate((3, 4, 5, 6)):
            length = 8 + int(((u + s * GOLDEN) % 1.0) * 29)
            letters = _letters(rng, m, length)
            pos = rng.randrange(length)
            j = abs(letters[pos])
            with span("braid.word"):
                plus = ls.BraidWord(m, tuple(letters[:pos] + [j] + letters[pos + 1:]))
                minus = ls.BraidWord(m, tuple(letters[:pos] + [-j] + letters[pos + 1:]))
                zero = ls.BraidWord(m, tuple(letters[:pos] + letters[pos + 1:]))
            out.append(triple_request(ls, plus, minus, zero))
        m = 3 + r % 2
        length = 6 + int(((u + 0.5) % 1.0) * 15)
        letters = _letters(rng, m, length)
        with span("braid.word"):
            word = ls.BraidWord(m, tuple(letters))
        out.append(relation_request(ls, word))
    return out


# ---------------------------------------------------------------------------
# families: the paper's braids at Seifert dimension 60..300, signature and
# determinant only


def target_dim(i: int) -> int:
    """The i-th size of the schedule: 1/d^3 spread evenly over the range."""
    lo, hi = DIM_LO ** -3, DIM_HI ** -3
    return round((lo - vdc(i) * (lo - hi)) ** (-1 / 3))


def _delta_params(rng, target: int, period: int) -> tuple[int, int]:
    """(n, k) of a half-twist power near the target dimension, n = 0 mod period."""
    options = []
    for k in range(1, 6):
        per = k * (2 * k + 1)
        n = max(1, round((target + 2 * k) / (per * period))) * period
        options.append((abs(n * per - 2 * k - target), n, k))
    best = min(o[0] for o in options)
    close = [(n, k) for err, n, k in options if err <= max(best, target // 30)]
    return rng.choice(close)


def _family_params(rng, kind: str, target: int):
    """(n, k, J, alphas) of a family word with exactly the target dimension.

    Stays inside the proven closed forms: positive twist counts, the narrow
    family at n = 0 mod 4 only for k = 1, the wide family never there.
    """
    tau = 2 if kind == "b" else 6
    while True:
        k = rng.randint(1, 4) if kind == "b" else rng.randint(2, 4)
        per = k * (2 * k + 1)
        n = (target + 2 * k) // per - rng.randint(0, 1)
        if n < 1 or (n % 4 == 0 and (kind == "c" or k != 1)):
            continue
        J = rng.choice([j for j in range(1, 6) if (j - n) % 2 == 0])
        slack = target - (J * (1 + tau) + n * per - 2 * k)
        if not 0 <= slack <= 8 * J:
            continue
        alphas = [1] * J
        for _ in range(slack):
            alphas[rng.randrange(J)] += 1
        return n, k, J, tuple(alphas)


def delta_request(ls, n: int, k: int, word) -> Request:
    def expect():
        sn = ls.closedforms.sign_null_delta(n, k).as_tuple()
        return sn, ls.splice.torus_delta_diagram(n, k).link_determinant()

    return Request(
        f"delta n={n} k={k}",
        [lambda: (ls.seifert.signature_nullity(word), ls.seifert.link_det(word))],
        expect, _check_family, (word,))


def family_request(ls, kind: str, params, word) -> Request:
    n, k, J, alphas = params

    def expect():
        sign_null = ls.closedforms.sign_null_b if kind == "b" else ls.closedforms.sign_null_c
        return (sign_null(n, k, J, alphas).as_tuple(),
                ls.skeinpoly.family_det_closed_form(kind, n, k, J, alphas))

    return Request(
        f"{kind} n={n} k={k} J={J} alphas={alphas}",
        [lambda: (ls.seifert.signature_nullity(word), ls.seifert.link_det(word))],
        expect, _check_family, (word,))


def _check_family(outs, expected) -> bool:
    (sign_null, det), = outs
    return (sign_null, det) == expected and (sign_null[1] > 0) == det.is_zero()


def families_requests(ls, seed: int, span=lambda name: nullcontext()) -> list[Request]:
    """Half-twist powers (any n, and n = 0 mod 4) and narrow/wide family words."""
    rng = random.Random(seed)
    out = []
    for i in range(FAMILY_ITEMS):
        kind = ("delta", "b", "c", "delta0")[i % 4]
        target = target_dim(i // 4)
        if kind.startswith("delta"):
            n, k = _delta_params(rng, target, 4 if kind == "delta0" else 1)
            with span("braid.word"):
                word = ls.half_twist(2 * k + 1) ** n
            out.append(delta_request(ls, n, k, word))
            continue
        params = _family_params(rng, kind, target)
        p = ls.FamilyParams(*params)
        with span("braid.word"):
            word = ls.family_b(p) if kind == "b" else ls.family_c(p)
        out.append(family_request(ls, kind, params, word))
    return out


# ---------------------------------------------------------------------------
# sieve: the application layer, no Seifert matrix anywhere

#: the two unique surviving M-curve schemes, as pinned by the acceptance suite
DEG9_PINS = {
    (2, 1, 23): [(1, 1, 0, 1, 13, 10, -1, -1)],
    (3, 1, 22): [(1, 2, 1, 0, 12, 10, -1, -1)],
}


def deg9_families(alpha: int, gamma: int) -> list[tuple]:
    """The scheme families of <J | alpha 1<1<gamma>>> under the separation lemma."""
    if alpha % 2 == 0 or alpha < 7:
        return []
    ap, am = (alpha + 7) // 2, (alpha - 7) // 2
    gp, gm = (gamma + 1) // 2, (gamma - 1) // 2
    return sorted([(ap, am, 0, 0, gp, gm, -1, -1), (ap, am, 0, 0, gm, gp, -1, 1),
                   (ap, am, 0, 0, gm, gp, 1, -1)], key=_scheme_key)


def _scheme_key(s: tuple) -> tuple:
    return (s[0], s[2], s[4], s[6], s[7])


def deg9_oracle(alpha: int, beta: int, gamma: int, lemma23: bool) -> list[tuple]:
    """Schemes solving the two balance equations, found by solving for d_alpha.

    The library enumerates every orientation and filters; this route fixes
    (beta+, gamma+, eps1, eps2), solves the linear equation for alpha+, and
    applies the jump cap and the separation lemma.
    """
    out = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            for bp in range(beta + 1):
                db = 2 * bp - beta
                for gp in range(gamma + 1):
                    dg = 2 * gp - gamma
                    if 2 * ((e2 + 1) * (db + dg) + (e1 + 1) * dg) != -(e1 + e2 + 2) ** 2:
                        continue
                    da = 8 - e2 - (1 - 2 * e2) * (db + e1) - (1 - 2 * e1 - 2 * e2) * dg
                    if abs(da) > alpha or (alpha + da) % 2:
                        continue
                    total, cap = da + db + dg, 9 + 2 * beta
                    if gp >= 1 and abs(total - 1) > cap:
                        continue
                    if gamma - gp >= 1 and abs(total + 1) > cap:
                        continue
                    if lemma23 and abs(dg) > 1 and alpha > 0 and beta == 0:
                        continue
                    ap = (alpha + da) // 2
                    out.append((ap, alpha - ap, bp, beta - bp, gp, gamma - gp, e1, e2))
    return sorted(out, key=_scheme_key)


_SCHEME_FIELDS = ("alpha_plus", "alpha_minus", "beta_plus", "beta_minus",
                  "gamma_plus", "gamma_minus", "eps1", "eps2")


def deg9_request(ls, alpha: int, beta: int, gamma: int) -> Request:
    lemma23 = beta == 0

    def expect():
        if (alpha, beta, gamma) in DEG9_PINS:
            return DEG9_PINS[alpha, beta, gamma]
        if lemma23 and gamma % 2:
            return deg9_families(alpha, gamma)
        return deg9_oracle(alpha, beta, gamma, lemma23)

    def check(outs, schemes):
        rep = outs[0].as_dict()
        got = [tuple(s[f] for f in _SCHEME_FIELDS) for s in rep["schemes"]]
        verdict = "admissible" if schemes else "prohibited"
        return rep["verdict"] == verdict and got == schemes

    return Request(
        f"deg9 {alpha},{beta},{gamma}",
        [lambda: ls.prohibit.verdict_degree9(alpha, beta, gamma, m_curve=True,
                                             assume_lemma23=lemma23)],
        expect, check)


def curve_request(ls, params, lam_plus: int, lam_minus: int) -> Request:
    """verdict_curve against the pointwise jump inequalities at every J."""

    def expect():
        need = abs(lam_plus - lam_minus)
        feasible = []
        for j in range(max(1, need), params.lam):
            if (j - params.n) % 2:
                continue
            res = ls.prohibit.theorem11_check(
                ls.prohibit.CurveParams(params.n, params.k, params.r, j, params.lam,
                                        params.lam_odd, params.lam_even))
            if res.ineq1 and res.ineq2:
                feasible.append(j)
        return feasible

    def check(outs, feasible):
        rep = outs[0]
        verdict = "admissible" if feasible else "prohibited"
        return rep.verdict == verdict and rep.details["feasible_jumps"] == feasible

    return Request(
        f"curve {params} {lam_plus} {lam_minus}",
        [lambda: ls.prohibit.verdict_curve(params, lam_plus, lam_minus)],
        expect, check)


def system_request(ls, j: int) -> Request:
    """Odd J: the a^+ system; even J: the a^- system.  Three routes must agree."""
    sp = ls.skeinpoly
    spec, sign = (sp.a_plus_spec(), 1) if j % 2 else (sp.a_minus_even_spec(), -1)
    return Request(
        f"skein system J={j}",
        [lambda: (sp.reconstruct_from_initial(spec, j), sp.a_pm_symbolic(j, sign),
                  sp.a_pm_homogeneous(j, sign))],
        lambda: None,
        lambda outs, _: outs[0][0] == outs[0][1] == outs[0][2])


def a_pm_request(ls, j: int, sign: int, xs: tuple) -> Request:
    sp = ls.skeinpoly
    return Request(
        f"a_pm J={j} sign={sign} xs={xs}",
        [lambda: sp.a_pm(j, sign, xs)],
        lambda: sp.a_pm_homogeneous(j, sign).evaluate(xs),
        lambda outs, want: want == ls.GaussianInteger(outs[0], 0))


def splice_family_request(ls, kind: str, n: int, k: int, j: int) -> Request:
    build = ls.b_family_diagram if kind == "b" else ls.c_family_diagram
    return Request(
        f"splice {kind} n={n} k={k} J={j}",
        [lambda: build(n, k, j).link_determinant()],
        lambda: ls.skeinpoly.det_table_all_ones(kind, n, k, j),
        lambda outs, want: outs[0] == want)


def ring_request(ls, q: int, ps: list[int]) -> Request:
    """A ring-family determinant against the crossing-change average."""

    def expect():
        return ls.splice.ring_family_det_skein(q, ps)

    def check(outs, want):
        return outs[0] == want and (len(ps) == 1 or want.is_zero())

    return Request(
        f"ring q={q} ps={ps}",
        [lambda: ls.ring_family_diagram(q, ps).link_determinant()],
        expect, check)


def sieve_requests(ls, seed: int, span=lambda name: nullcontext()) -> list[Request]:
    """One cycle: every M-curve triple, a degree-7/9 curve grid, the skein
    systems up to J = 9, seeded a_pm points and splice determinants."""
    rng = random.Random(seed)
    triples = sorted(((a, b, 26 - a - b) for a in range(27) for b in range(27 - a)
                      if 26 - a - b >= 1),
                     key=lambda t: ((t[0] + 1) * (t[1] + 1) * (t[2] + 1), t))
    deg9 = [deg9_request(ls, *triples[i]) for i in spread_order(len(triples))]

    CurveParams = ls.prohibit.CurveParams
    curves = [curve_request(ls, CurveParams(n=1, k=3, r=0, lam=13, lam_odd=0,
                                            lam_even=13), 10, 3)]
    while len(curves) < 40:
        lam = rng.randint(8, 28)
        lam_plus = rng.randint(0, lam)
        params = CurveParams(n=1, k=rng.choice((3, 4)), r=rng.randint(0, 2), lam=lam,
                             lam_odd=rng.randint(0, 3), lam_even=rng.randint(0, lam))
        curves.append(curve_request(ls, params, lam_plus, lam - lam_plus))

    systems = [system_request(ls, j + 1) for j in spread_order(9)]

    a_pms = []
    for _ in range(18):
        j = rng.randint(1, 9)
        xs = tuple(rng.randint(-2, 3) for _ in range(j))
        a_pms.append(a_pm_request(ls, j, rng.choice((1, -1)), xs))

    grid = [(kind, n, k, j) for n in range(1, 7) for k in range(1, 5)
            for j in range(1, 7) for kind in "bc"
            if (n - j) % 2 == 0 and (kind == "b" or k >= 2)]
    splices = [splice_family_request(ls, *case) for case in rng.sample(grid, 24)]
    for i in range(12):
        ps = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3))]
        # q = -sum(ps) puts m = 0 on a leaf: the multivariable fallback runs
        q = -sum(ps) if i % 2 == 0 else rng.randint(-4, 4)
        splices.append(ring_request(ls, q, ps))
    rng.shuffle(splices)

    return interleave([deg9, curves, systems, a_pms, splices])


WORKLOADS = {
    "words": words_requests,
    "families": families_requests,
    "sieve": sieve_requests,
}


def block_size(workload: str, requests: list[Request]) -> int:
    """Requests per balanced block: 8 rounds of words (every word size
    stratum once per strand count), 16 sizes of each family kind, or one
    whole sieve cycle."""
    return {"words": 8 * 5, "families": 16 * 4}.get(workload, len(requests))
