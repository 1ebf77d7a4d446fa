import json
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from linksig.braid import BraidWord, FamilyParams, family_b, family_c, half_twist
from linksig.gaussian import GaussianInteger, i_power
from linksig.laurent import LaurentPolynomial
from linksig.seifert import conway_potential, link_det
from linksig.skeinpoly import det_table_all_ones
from linksig.splice import (ENFormulaInapplicable, SpliceDiagram,
                            b_family_diagram, c_family_diagram, ring_family_diagram,
                            ring_family_det_skein, torus_delta_diagram)
from oracles import expanded_omega, path_linking_ell


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

    def test_single_ring_nonzero(self):
        d = ring_family_diagram(1, [1])
        assert not d.link_determinant().is_zero()


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
