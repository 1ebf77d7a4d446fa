import json
import random
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from linksig.braid import (BraidWord, FamilyParams, delta_small, family_b, family_c,
                           half_twist)
from linksig.closedforms import epsilons, sign_null_b, sign_null_delta
from linksig.gaussian import GaussianInteger, i_power, parse_gaussian
from linksig.genskein import build_symmetrized, coefficient_table
from linksig.laurent import ExactDivisionError, LaurentPolynomial
from linksig.prohibit import (CurveParams, Degree9Scheme, jump_window,
                              pointed_alternation_min, theorem11_check)
from linksig.seifert import conway_potential, link_det
from linksig.skeinpoly import FormulaNotEstablished, det_table_all_ones
from linksig.splice import (ENFormulaInapplicable, FactorProduct, SpliceDiagram,
                            b_family_diagram, c_family_diagram, ring_family_diagram,
                            ring_family_det_skein, torus_delta_diagram)
from oracles import expanded_omega, packed_line_omega, path_linking_ell


def lp(d):
    return LaurentPolynomial(d)


def reversed_parallel_pair_diagram(p: int) -> SpliceDiagram:
    """Two parallel unknotted components with opposite orientations, framing p."""
    verts = {
        0: {"kind": "plain"},
        1: {"kind": "arrowhead", "sign": -1},
        2: {"kind": "arrowhead", "sign": 1},
        3: {"kind": "plain"},
        4: {"kind": "plain"},
    }
    edges = [(0, 1, 1, None), (0, 2, 1, None), (0, 3, 1, None), (0, 4, p, None)]
    return SpliceDiagram(verts, edges)


@st.composite
def cabled_diagrams(draw):
    """The unknot cabled up to three times: coprime 1 <= |p|, |q| <= 5, d <= 3."""
    d = SpliceDiagram.unknot()
    for _ in range(draw(st.integers(0, 3))):
        arrow = draw(st.sampled_from(d.arrowheads()))
        p = draw(st.integers(-5, 5).filter(bool))
        q = draw(st.integers(-5, 5).filter(lambda q: q and gcd(p, q) == 1))
        core = draw(st.sampled_from(("removed", "remained")))
        d = d.cable(arrow, draw(st.integers(1, 3)), p, q, core=core)
    return d


windings = st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=1, max_size=3)

#: ring families with q = -sum(ps), which puts m = 0 on a leaf
leaf_zero_rings = windings.map(lambda ps: ring_family_diagram(-sum(ps), ps))


class TestBasics:
    def test_unknot(self):
        u = SpliceDiagram.unknot()
        assert u.omega_via_EN() == LaurentPolynomial.one()
        m = u.m_values()
        assert m == {0: 1} and all(m.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            # valence-2 vertex
            SpliceDiagram(
                {0: {"kind": "plain"}, 1: {"kind": "plain"},
                 2: {"kind": "arrowhead", "sign": 1}},
                [(0, 1, None, None), (1, 2, None, None)],
            )
        with pytest.raises(ValueError):
            # cycle
            SpliceDiagram(
                {0: {"kind": "plain"}, 1: {"kind": "plain"},
                 2: {"kind": "plain"}},
                [(0, 1, None, None), (1, 2, None, None), (2, 0, None, None)],
            )

    def test_cable_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            SpliceDiagram.unknot().cable(1, 1, 2, 4)
        with pytest.raises(ValueError):
            SpliceDiagram.unknot().cable(0, 1, 2, 3)

    def test_json_roundtrip(self):
        d = c_family_diagram(3, 3, 1)
        again = SpliceDiagram.from_json(json.loads(json.dumps(d.to_json())))
        assert again.dumps() == d.dumps()


class TestCableOracle:
    def test_torus_knot_vs_braid(self):
        for q in (1, 3, 5, 7, -3, -5, -7):
            d = SpliceDiagram.unknot().cable(1, 1, 2, q, core="removed")
            word = BraidWord(2, (1,) * q if q > 0 else (-1,) * (-q))
            assert d.omega_via_EN() == conway_potential(word), q

    def test_torus_link_vs_braid(self):
        for q in (2, 4, 6, -2, -4, -6):
            d = SpliceDiagram.unknot().cable(1, 2, 1, q // 2, core="removed")
            word = BraidWord(2, (1,) * q if q > 0 else (-1,) * (-q))
            assert d.omega_via_EN() == conway_potential(word), q

    def test_three_strand_determinant_pattern(self):
        # the k = 1 closed-form determinant 2 i^n, via the diagram route
        for n in (1, 3, 5):
            d = torus_delta_diagram(n, 1)
            assert d.omega_via_EN().eval_at_i() == GaussianInteger(2, 0) * i_power(n)


class TestLinkingNumbers:
    def test_empty_product(self):
        u = SpliceDiagram.unknot()
        assert u.linking_ell(0, 1) == 1

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            SpliceDiagram.unknot().linking_ell(1, 1)

    def test_torus_knot_values(self):
        d = SpliceDiagram.unknot().cable(1, 1, 2, 3, core="removed")
        (arrow,) = d.arrowheads()
        node = next(v for v in d.vertex_ids() if d.valence(v) == 3)
        assert d.linking_ell(node, arrow) == 6

    def test_cable_linking_matches_construction(self):
        # two parallel (2,5)-cables: mutual linking 10, each links core 5
        d = SpliceDiagram.unknot().cable(1, 2, 2, 5, core="remained")
        arrows = d.arrowheads()
        core = 1
        new = [a for a in arrows if a != core]
        assert d.linking_ell(new[0], new[1]) == 10
        assert d.linking_ell(new[0], core) == 5

    @given(d=st.one_of(cabled_diagrams(), leaf_zero_rings))
    @example(d=c_family_diagram(3, 3, 1))
    @example(d=ring_family_diagram(2, [1, -2, 3]))
    @example(d=reversed_parallel_pair_diagram(3))
    # a node of valence 13 with a 0 weight
    @example(d=ring_family_diagram(3, [1] * 12))
    def test_matches_path_product(self, d):
        vs = d.vertex_ids()
        for i in vs:
            for j in vs:
                if i != j:
                    assert d.linking_ell(i, j) == path_linking_ell(d, i, j), (i, j)
        assert d.m_values() == {
            v: sum(d.sign(a) * path_linking_ell(d, v, a) for a in d.arrowheads())
            for v in vs if not d.is_arrowhead(v)}

    def test_narrow_family_m_values(self):
        for n, k, J in ((3, 3, 1), (1, 4, 1), (5, 2, 3)):
            d = b_family_diagram(n, k, J)
            m = sorted(d.m_values().values())
            m2 = n * (k - 1) + 3 * (n - J) // 2
            m3 = n * (k - 1) + (n - J) // 2 + (n + J)
            assert m2 in m and m3 in m, (n, k, J, m)

    def test_wide_family_m_values(self):
        for n, k, J in ((3, 3, 1), (1, 4, 3)):
            d = c_family_diagram(n, k, J)
            m = sorted(d.m_values().values())
            m2 = n * (k - 2) + 5 * (n - J) // 2
            m3 = n * (k - 2) + (n - J) // 2 + 2 * (n + J)
            m4 = (2 * k + 1) * n  # stored doubled on the pair vertex
            assert m2 in m and m3 in m and m4 in m, (n, k, J, m)


class TestFiberability:
    def test_half_twist_diagrams_fiberable(self):
        for n in (1, 3):
            for k in (1, 2, 3):
                m = torus_delta_diagram(n, k).m_values()
                assert all(m.values())
                assert (2 * k + 1) * n in m.values()
                assert 2 * k + 1 in m.values()

    def test_ring_family_not_fiberable_at_balance(self):
        m = ring_family_diagram(-3, [1, 2]).m_values()
        assert not all(m.values())

    def test_unknot_leaf(self):
        u = SpliceDiagram.unknot()
        assert u.m_values()[0] == 1


class TestOmegaEN:
    def test_half_twist_formula(self):
        for n in (1, 3):
            for k in (1, 2, 3):
                m = 2 * k + 1
                want = (LaurentPolynomial.t_binomial(1)
                        * LaurentPolynomial.t_binomial(m * n) ** k).exact_div(
                            LaurentPolynomial.t_binomial(m))
                assert torus_delta_diagram(n, k).omega_via_EN() == want

    def test_narrow_family_formula(self):
        for n, k, J in ((1, 2, 1), (3, 2, 1), (2, 2, 2)):
            m = 2 * k + 1
            m2 = n * (k - 1) + 3 * (n - J) // 2
            m3 = n * (k - 1) + (n - J) // 2 + (n + J)
            tb = LaurentPolynomial.t_binomial
            if n % 2:
                omega1 = tb(m * n) ** (k - 1)
            else:
                omega1 = tb(m * n // 2) ** (2 * (k - 1))
            want = (tb(1) * omega1 * tb(m2) * tb(m3)).exact_div(tb(m))
            assert b_family_diagram(n, k, J).omega_via_EN() == want

    def test_vanishing_when_inner_multiplicity_dies(self):
        # mn = 3J makes one node multiplicity vanish
        assert b_family_diagram(1, 1, 1).omega_via_EN().is_zero()

    def test_leaf_zero_raises(self):
        d = ring_family_diagram(-3, [1, 2])
        with pytest.raises(ENFormulaInapplicable):
            d.omega_via_EN()

    def test_matches_braids(self):
        for n in range(1, 5):
            for k in (1, 2, 3):
                assert (torus_delta_diagram(n, k).omega_via_EN()
                        == conway_potential(half_twist(2 * k + 1) ** n))
        for n in range(1, 4):
            for k in (1, 2, 3):
                for J in range(1, 4):
                    if (n - J) % 2:
                        continue
                    p = FamilyParams(n, k, J, (1,) * J)
                    assert (b_family_diagram(n, k, J).omega_via_EN()
                            == conway_potential(family_b(p)))
                    if k >= 2:
                        assert (c_family_diagram(n, k, J).omega_via_EN()
                                == conway_potential(family_c(p)))


class TestNabla:
    def test_reversed_pair(self):
        for p in (1, 2, 5):
            d = reversed_parallel_pair_diagram(p)
            nab = d.nabla_multivariable()
            assert nab.omega() == LaurentPolynomial.t_binomial(1) * (-p)
            assert nab.det() == GaussianInteger(0, -2) * p

    def test_unknot(self):
        nab = SpliceDiagram.unknot().nabla_multivariable()
        assert len(nab.factors) == 1 and nab.factors[0][1] == -1
        assert nab.omega() == LaurentPolynomial.one()

    def test_omega_size(self):
        # the (2, 3) torus knot: (t - t^-1)(t^6 - t^-6) over (t^2 - t^-2) and
        # (t^3 - t^-3)
        trefoil = SpliceDiagram.unknot().cable(1, 1, 2, 3).nabla_multivariable()
        assert trefoil._omega_size() == (7, 2)
        # a factor with sum v = 0 neither multiplies nor divides
        product = FactorProduct.build(2, 1, [((1, -1), -1), ((1, 1), 2), ((0, 3), -3)])
        assert product._omega_size() == (1 + 2 * 2, 3)

    @given(d=cabled_diagrams())
    @example(d=torus_delta_diagram(3, 2))
    @example(d=b_family_diagram(3, 2, 1))
    @example(d=c_family_diagram(2, 2, 2))
    @example(d=ring_family_diagram(3, [1, 2]))
    @example(d=SpliceDiagram.unknot().cable(1, 1, 2, 5, core="remained"))
    def test_matches_EN_when_defined(self, d):
        try:
            omega = d.omega_via_EN()
        except ENFormulaInapplicable:
            return
        assert d.nabla_multivariable().omega() == omega
        assert d.link_determinant() == omega.eval_at_i()

    @given(d=st.one_of(cabled_diagrams(), leaf_zero_rings))
    @example(d=c_family_diagram(2, 2, 2))
    @example(d=ring_family_diagram(-3, [1, 2]))
    @example(d=ring_family_diagram(0, [1, -1]))
    def test_omega_equals_expanded_product(self, d):
        nab = d.nabla_multivariable()
        assert nab.omega() == expanded_omega(nab)
        assert nab.omega() == packed_line_omega(nab)

    @given(ps=windings)
    def test_leaf_zero_matches_crossing_change(self, ps):
        # q = -sum(ps) puts m = 0 on a leaf, where the one-variable formula
        # has a vanishing denominator but the factor product has none
        q = -sum(ps)
        d = ring_family_diagram(q, ps)
        with pytest.raises(ENFormulaInapplicable):
            d.omega_via_EN()
        assert d.link_determinant() == ring_family_det_skein(q, ps)

    def test_ring_family_det_zero(self):
        # more than one ring kills the determinant, fiberable or not
        for q, ps in ((3, [1, 2]), (0, [1, 1]), (-3, [1, 2]), (2, [2, 3, 1])):
            d = ring_family_diagram(q, ps)
            assert d.link_determinant().is_zero(), (q, ps)
            assert ring_family_det_skein(q, ps).is_zero()
        # a zero winding splits the link, which no diagram draws
        assert ring_family_det_skein(3, [1, 0]).is_zero()

    def test_single_ring_nonzero(self):
        d = ring_family_diagram(1, [1])
        assert not d.link_determinant().is_zero()


@pytest.mark.parametrize("raw, want", [
    # a factor vanishing on the diagonal over another: the ratio of weights
    ([((2, -2), 1), ((1, -1), -1)], LaurentPolynomial.t_binomial(1) * 2),
    # Z > 0 gives 0 and nothing else is checked: this product,
    # (x1/x2 - x2/x1) / (x1 - 1/x1), is not a Laurent polynomial
    ([((1, -1), 1), ((1, 0), -1)], LaurentPolynomial.zero()),
    # a pole on the diagonal
    ([((1, -1), -1)], ExactDivisionError),
    # 1 / (x1 x2^-1 + x1^-1 x2) is not a Laurent polynomial
    ([((1, -1), 1), ((2, -2), -1)], ExactDivisionError),
    # a pole that a packed line of width 2 sum |p w| + 1 aliases away
    ([((1, -1), -1), ((2, 2), 2)], ExactDivisionError),
])
def test_hand_built_products(raw, want):
    fp = FactorProduct.build(2, 1, raw)
    if want is ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            fp.omega()
    else:
        assert fp.omega() == want


def test_factor_product_ignores_zero_powers():
    # a zero power merges as 0 and is dropped with the cancelled factors, so
    # inserting some changes neither the product nor a refusal
    rng = random.Random(8)

    def build(nvars, raw):
        try:
            return FactorProduct.build(nvars, 1, raw)
        except ZeroDivisionError:
            return ZeroDivisionError

    refused = 0
    for _ in range(3000):
        nvars = rng.randint(1, 3)
        vector = lambda: tuple(rng.randint(-1, 1) for _ in range(nvars))
        raw = [(vector(), rng.choice((-2, -1, 1, 2)))
               for _ in range(rng.randint(0, 5))]
        padded = list(raw)
        for _ in range(rng.randint(1, 3)):
            padded.insert(rng.randint(0, len(padded)), (vector(), 0))
        want = build(nvars, raw)
        assert build(nvars, padded) == want, (nvars, raw, padded)
        refused += want is ZeroDivisionError
    assert refused > 0


class TestNamedBuilders:
    def test_dets_against_table(self):
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3):
                for J in range(1, 5):
                    if (n - J) % 2:
                        continue
                    d = b_family_diagram(n, k, J).link_determinant()
                    assert d == det_table_all_ones("b", n, k, J), (n, k, J)
                    if k >= 2:
                        dc = c_family_diagram(n, k, J).link_determinant()
                        assert dc == det_table_all_ones("c", n, k, J), (n, k, J)

    def test_specific_values(self):
        # wide family at n=1, k=3: -16 exactly when J = 1 mod 4
        for J, want in ((1, -16), (3, 0), (5, -16)):
            got = c_family_diagram(1, 3, J).link_determinant()
            assert got == GaussianInteger(want, 0), J
        # narrow family at n=1, k=3: (-2i)^4 = 16 when J = 3 mod 4
        assert b_family_diagram(1, 3, 3).link_determinant() == GaussianInteger(16, 0)
        # even case 4^k when n+2 = J = 0 mod 4
        assert b_family_diagram(2, 3, 4).link_determinant() == GaussianInteger(64, 0)

    def test_braid_det_cross_check(self):
        for n, k, J in ((1, 3, 3), (2, 3, 4), (1, 3, 1)):
            p = FamilyParams(n, k, J, (1,) * J)
            assert (b_family_diagram(n, k, J).link_determinant()
                    == link_det(family_b(p)))


def _diagram(kinds, edges):
    """A splice diagram from {id: kind} (arrowheads signed +1) and edges."""
    return SpliceDiagram({v: {"kind": k, **({"sign": 1} if k == "arrowhead" else {})}
                          for v, k in kinds.items()}, edges)


_A, _P = "arrowhead", "plain"
_L = LaurentPolynomial
_W = [[_L.one(), _L.zero()], [_L.zero(), _L.one()]]
_CURVE = CurveParams(n=1, k=3, lam=13, lam_odd=0, lam_even=13)

#: library refusals that no other test raises, package-wide: a call, the
#: exception it must raise and its full message
LIBRARY_REFUSALS = {
    "braid-strands": (lambda: BraidWord(0), ValueError,
                      "strand count must be >= 1"),
    "half_twist-index": (lambda: half_twist(4, 3), ValueError,
                         "half twist index out of range"),
    "delta_small-index": (lambda: delta_small(0), ValueError,
                          "index out of range"),
    "epsilons-n": (lambda: epsilons(0, 1), ValueError,
                   "n and k must be positive"),
    "sign_null_delta-k": (lambda: sign_null_delta(1, 0), ValueError,
                          "n and k must be positive"),
    "sign_null_b-special-pair": (
        lambda: sign_null_b(4, 2, 2, (1, 0)), FormulaNotEstablished,
        "narrow family special pair needs k = 1 when n = 0 mod 4"),
    "gaussian-negative-power": (
        lambda: GaussianInteger(1, 1) ** -1, ValueError,
        "negative powers are not defined for Gaussian integers"),
    "gaussian-coerce": (lambda: GaussianInteger(1, 0) + "i", TypeError,
                        "cannot interpret 'i' as a Gaussian integer"),
    "parse_gaussian-empty": (lambda: parse_gaussian(""), ValueError,
                             "empty Gaussian integer literal"),
    "laurent-negative-power": (
        lambda: _L.t() ** -1, ValueError,
        "negative powers require exact_div against the inverse"),
    "laurent-coerce": (lambda: _L.one() + "t", TypeError,
                       "cannot interpret 't' as a Laurent polynomial"),
    "laurent-divide-by-zero": (lambda: _L.t() // 0, ZeroDivisionError,
                               "Laurent polynomial division by zero"),
    "substitute_power-zero": (lambda: _L.t().substitute_power(0), ValueError,
                              "substitution exponent must be nonzero"),
    "build_symmetrized-v0": (
        lambda: build_symmetrized([[_L.one(), _L.one()]], [], _W, 1),
        ValueError, "v0 must be square"),
    "build_symmetrized-w": (lambda: build_symmetrized([], [], [[_L.one()]], 1),
                            ValueError, "w must be 2 x 2"),
    "build_symmetrized-ustar": (
        lambda: build_symmetrized([], [], _W, 1, [[_L.one()]]),
        ValueError, "ustar must be 2 x s"),
    "coefficient_table-j": (lambda: coefficient_table(1), ValueError,
                            "the table starts at j = 2"),
    "theorem11_check-J": (lambda: theorem11_check(_CURVE), ValueError,
                          "theorem11_check needs an explicit jump count J"),
    "jump_window-which": (lambda: jump_window(_CURVE, "all"), ValueError,
                          "which must be 'odd', 'even', or 'both'"),
    "pointed_alternation_min-sign": (
        lambda: pointed_alternation_min(Degree9Scheme(1, 0, 0, 0, 0, 0, 1, 1), 0),
        ValueError, "sign_v must be +-1"),
    "degree9-nest-sign": (lambda: Degree9Scheme(1, 0, 0, 0, 0, 0, 1, 0),
                          ValueError, "the nest signs must be +-1"),
    "splice-duplicate-edge": (
        lambda: _diagram({0: _A, 1: _A}, [(0, 1, None, None), (1, 0, None, None)]),
        ValueError, "edges must join distinct vertices, once"),
    "splice-self-loop": (lambda: _diagram({0: _A}, [(0, 0, None, None)]),
                         ValueError, "edges must join distinct vertices, once"),
    "splice-empty": (lambda: _diagram({}, []), ValueError, "empty diagram"),
    "splice-no-arrowhead": (lambda: _diagram({0: _P}, []), ValueError,
                            "diagram has no arrowhead"),
    "splice-cycle-and-isolated": (
        lambda: _diagram({0: _P, 1: _P, 2: _P, 3: _A},
                         [(0, 1, None, None), (1, 2, None, None), (2, 0, None, None)]),
        ValueError, "diagram is not connected"),
    "splice-arrowhead-valence": (
        lambda: _diagram({0: _A, 1: _P, 2: _P, 3: _P},
                         [(0, 1, None, None), (0, 2, None, None), (0, 3, None, None)]),
        ValueError, "arrowhead 0 must have valence 1"),
    "splice-weighted-leaf": (lambda: _diagram({0: _P, 1: _A}, [(0, 1, 5, None)]),
                             ValueError, "non-node 0 carries a weight"),
    "splice-sign-of-plain": (lambda: SpliceDiagram.unknot().sign(0), ValueError,
                             "vertex 0 is not an arrowhead"),
    "cable-core": (lambda: SpliceDiagram.unknot().cable(1, 1, 2, 3, core="kept"),
                   ValueError, "core must be 'removed' or 'remained'"),
    "cable-d": (lambda: SpliceDiagram.unknot().cable(1, 0, 2, 3), ValueError,
                "d must be a positive integer"),
    "factor-product-length": (lambda: FactorProduct.build(2, 1, [((1,), 1)]),
                              ValueError, "exponent vector of wrong length"),
    "factor-product-zero-denominator": (
        lambda: FactorProduct.build(1, 1, [((0,), -1)]), ZeroDivisionError,
        "formal cancellation leaves a vanishing denominator factor"),
    "torus_delta_diagram-n": (lambda: torus_delta_diagram(0, 1), ValueError,
                              "n and k must be positive"),
    "ring_family-no-rings": (lambda: ring_family_diagram(3, []), ValueError,
                             "at least one ring is required"),
    "ring_family-zero-winding": (
        lambda: ring_family_diagram(3, [1, 0]), ValueError,
        "zero winding splits the link; its potential is 0"),
}


@pytest.mark.parametrize("call, error, message", list(LIBRARY_REFUSALS.values()),
                         ids=list(LIBRARY_REFUSALS))
def test_library_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
