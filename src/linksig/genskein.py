"""Skein relations: recurrences in powers of a twist.

A relation is one `RelationSpec`: its twist, its coefficients and its
determinant step.  The Conway potentials of a word with 0, 1, 2, ... twists
appended, weighted by the coefficients, sum to zero.  The classical crossing
relation has three terms, in powers of delta_2 = s1; the generalized ones
have five, in powers of delta_3 = s1 s2 and of the squared half twist
Delta_3^2.  `relation_residual` reads the potentials of w, w twist, ...
off one Burau product of the word and its twists, cut after each
(`seifert._conway_series`), and `det_relation_check` takes `link_det` of
each word on its own.  The block-matrix identity behind the five-term
relations holds for arbitrary matrices in the corner blocks and is checked
here symbolically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .braid import BraidWord, delta_small, half_twist
from .gaussian import GaussianInteger
from .intmatrix import _laurent_determinant
from .laurent import LaurentPolynomial
from .seifert import _conway_series, link_det

_T = LaurentPolynomial.t


def _lp(d: dict[int, int]) -> LaurentPolynomial:
    return LaurentPolynomial(d)


#: coefficients (1, t - 1/t, -1) of the crossing relation in delta_2 powers:
#: Omega(L+) - Omega(L-) = (t - 1/t) Omega(L0) with L- = w, L0 = w s1
CONWAY_COEFFS = (_lp({0: 1}), _lp({1: 1, -1: -1}), _lp({0: -1}))

#: coefficients (1, c1, c2, c3, 1) of the 5-term relation in delta_3 powers
DELTA3_COEFFS = (
    LaurentPolynomial.one(),
    _lp({2: -1, 0: 1, -2: -1}),
    _lp({2: -1, 0: 2, -2: -1}),
    _lp({2: -1, 0: 1, -2: -1}),
    LaurentPolynomial.one(),
)

#: coefficients (1, C1, C2, C3, 1) of the relation in squared-half-twist powers
DELTA3SQ_COEFFS = (
    LaurentPolynomial.one(),
    _lp({6: -1, 0: -2, -6: -1}),
    _lp({6: 2, 0: 2, -6: 2}),
    _lp({6: -1, 0: -2, -6: -1}),
    LaurentPolynomial.one(),
)


@dataclass(frozen=True)
class RelationSpec:
    """A recurrence in powers of a twist, with its determinant step.

    The potentials of word * twist**j, one j per coefficient from 0 up,
    weighted by the coefficients, sum to 0: three terms for delta_2, five
    for delta_3 and Delta_3^2.  At t = i the coefficients weigh
    determinants, and that form holds in steps of twist**det_power.
    """
    coefficients: tuple[LaurentPolynomial, ...]
    twist: BraidWord
    det_power: int

    @staticmethod
    def conway() -> "RelationSpec":
        return RelationSpec(CONWAY_COEFFS, delta_small(2), 1)

    @staticmethod
    def delta3_order4() -> "RelationSpec":
        return RelationSpec(DELTA3_COEFFS, delta_small(3), 1)

    @staticmethod
    def delta3sq_order4() -> "RelationSpec":
        # the determinant form steps by the fourth power of the half twist
        return RelationSpec(DELTA3SQ_COEFFS, half_twist(3) ** 2, 2)

    def step(self, word: BraidWord, power: int) -> BraidWord:
        """twist**power on the strands of word."""
        if word.strands < self.twist.strands:
            raise ValueError(
                f"the relation needs at least {self.twist.strands} strands")
        return BraidWord(word.strands, self.twist.letters * power)


def relation_residual(word: BraidWord, spec: RelationSpec) -> LaurentPolynomial:
    """Sum of coefficient * potential over the twisted closures; contract: 0.

    The potentials of word * twist**j come from one Burau product of the
    word and the twists, cut after each (`seifert._conway_series`): for c
    coefficients, L + (c - 1)|twist| letters where the words one by one
    take c L + c (c - 1) / 2 |twist|.
    """
    count = len(spec.coefficients)
    total = LaurentPolynomial.zero()
    for coeff, omega in zip(spec.coefficients, _conway_series(
            word, spec.step(word, 1).letters, count)):
        total = total + coeff * omega
    return total


def det_relation_check(word: BraidWord, spec: RelationSpec) -> GaussianInteger:
    """The determinant form of the relation (coefficients at t = i); contract: 0."""
    step = spec.step(word, spec.det_power)
    total = GaussianInteger(0, 0)
    current = word
    for coeff in spec.coefficients:
        w = coeff.eval_at_i()
        if w:
            total = total + link_det(current) * w
        current = current * step
    return total


# ---------------------------------------------------------------------------
# the block identity


def _block_A() -> list[list[LaurentPolynomial]]:
    return [
        [_lp({1: 1, -1: -1}), _lp({-1: -1})],
        [_T(1), _lp({1: 1, -1: -1})],
    ]


def _block_B() -> list[list[LaurentPolynomial]]:
    return [
        [_lp({-1: 1}), LaurentPolynomial.zero()],
        [_lp({1: -1}), _lp({-1: 1})],
    ]


def bar_transpose_negate(m: list[list[LaurentPolynomial]]) -> list[list[LaurentPolynomial]]:
    """-(transpose with t -> 1/t); the star pairing of symmetrized blocks."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return [[-(m[j][i].substitute_power(-1)) for j in range(rows)]
            for i in range(cols)]


def build_symmetrized(v0: list[list[LaurentPolynomial]],
                      u: list[list[LaurentPolynomial]],
                      w: list[list[LaurentPolynomial]],
                      j: int,
                      ustar: list[list[LaurentPolynomial]] | None = None,
                      ) -> list[list[LaurentPolynomial]]:
    """The (s + 2j)-dimensional block matrix with j twist blocks appended.

    Layout: v0 on top, then the 2x2 block w, then j-1 copies of the twist
    block A, joined by the fixed block B and its star B*.  ustar
    defaults to the star of u, which is what an actual symmetrized matrix
    carries, but the identity holds for any choice.
    """
    s = len(v0)
    if any(len(row) != s for row in v0):
        raise ValueError("v0 must be square")
    if j == 0:
        return [row[:] for row in v0]
    if len(u) != s or any(len(row) != 2 for row in u):
        raise ValueError("u must be s x 2")
    if len(w) != 2 or any(len(row) != 2 for row in w):
        raise ValueError("w must be 2 x 2")
    if ustar is None:
        ustar = bar_transpose_negate(u) if s else [[], []]
    if len(ustar) != 2 or any(len(row) != s for row in ustar):
        raise ValueError("ustar must be 2 x s")
    dim = s + 2 * j
    zero = LaurentPolynomial.zero()
    m = [[zero] * dim for _ in range(dim)]
    for r in range(s):
        for c in range(s):
            m[r][c] = v0[r][c]
    blocks = [w] + [_block_A() for _ in range(j - 1)]
    for t, blk in enumerate(blocks):
        off = s + 2 * t
        for r in range(2):
            for c in range(2):
                m[off + r][off + c] = blk[r][c]
    for r in range(s):
        for c in range(2):
            m[r][s + c] = u[r][c]
            m[s + c][r] = ustar[c][r]
    b = _block_B()
    bstar = bar_transpose_negate(b)
    for t in range(j - 1):
        off = s + 2 * t
        for r in range(2):
            for c in range(2):
                m[off + r][off + 2 + c] = b[r][c]
                m[off + 2 + r][off + c] = bstar[r][c]
    return m


def block_identity_residual(v0: list[list[LaurentPolynomial]],
                            u: list[list[LaurentPolynomial]],
                            w: list[list[LaurentPolynomial]],
                            ustar: list[list[LaurentPolynomial]] | None = None,
                            ) -> LaurentPolynomial:
    """det V_0 + c1 det V_1 + c2 det V_2 + c3 det V_3 + det V_4; contract: 0."""
    total = LaurentPolynomial.zero()
    for j, coeff in enumerate(DELTA3_COEFFS):
        total = total + coeff * _laurent_determinant(
            build_symmetrized(v0, u, w, j, ustar))
    return total


def coefficient_table(j: int) -> dict[str, LaurentPolynomial]:
    """The expansion det(tail) = a0 + a1 det(w) + sum a_mn w_mn, for j in 2..4.

    The tail is the lower-right 2j x 2j minor of the block matrix, with w in
    the corner.
    """
    if j < 2:
        raise ValueError("the table starts at j = 2")
    zero = LaurentPolynomial.zero()
    one = LaurentPolynomial.one()

    def det_with(w11, w12, w21, w22):
        return _laurent_determinant(
            build_symmetrized([], [], [[w11, w12], [w21, w22]], j))

    a0 = det_with(zero, zero, zero, zero)
    a11 = det_with(one, zero, zero, zero) - a0
    a12 = det_with(zero, one, zero, zero) - a0
    a21 = det_with(zero, zero, one, zero) - a0
    a22 = det_with(zero, zero, zero, one) - a0
    a1 = det_with(one, zero, zero, one) - a0 - a11 - a22
    return {"a0": a0, "a1": a1, "a11": a11, "a12": a12, "a21": a21, "a22": a22}


def random_braid(rng: random.Random, strands: int, max_len: int) -> BraidWord:
    length = rng.randint(0, max_len)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1)
                    for _ in range(length))
    return BraidWord(strands, letters)


def random_laurent(rng: random.Random) -> LaurentPolynomial:
    """An entry from {0, +-1, +-t, +-1/t}, the mix the block tests use."""
    return rng.choice([
        LaurentPolynomial.zero(),
        LaurentPolynomial.one(), -LaurentPolynomial.one(),
        _T(1), -_T(1), _T(-1), -_T(-1),
    ])
