"""Skein systems of cyclically symmetric multilinear polynomials.

A skein system of parity nu is a sequence f_J (J = nu, nu+2, ...) of
polynomials, multilinear and invariant under cyclic shift, satisfying the
reduction f_J(x1, 0, x3, ..., xJ) = f_{J-2}(x1+x3, x4, ..., xJ).  The
normalized family determinants i^alpha * det are such systems in the twist
counts, so each is pinned by a short list of initial values.  The explicit
realization a_J^+- is the determinant of a circulant band matrix A_J^+-,
computed as the trace of a product of 2x2 transfer matrices, on integers
(`a_pm`) or on polynomials (`a_pm_symbolic`).

Coefficients live in the Gaussian integers so the same representation
carries the integer-valued systems and their i-weighted homogeneous
expansions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Sequence

from .braid import family_params
from .gaussian import GaussianInteger, i_power


@dataclass(frozen=True)
class MultilinearCyclicPoly:
    """A multilinear polynomial in x_1..x_J, keyed by monomial support sets."""

    arity: int
    coeffs: tuple[tuple[frozenset[int], GaussianInteger], ...]

    @staticmethod
    def from_dict(arity: int,
                  data: dict[frozenset[int], GaussianInteger]) -> "MultilinearCyclicPoly":
        items = tuple(sorted(
            ((s, c) for s, c in data.items() if not c.is_zero()),
            key=lambda it: (len(it[0]), sorted(it[0])),
        ))
        variables = frozenset(range(1, arity + 1))
        if not all(s <= variables for s, _ in items):
            raise ValueError("monomial variable out of range")
        return MultilinearCyclicPoly(arity, items)

    def as_dict(self) -> dict[frozenset[int], GaussianInteger]:
        return dict(self.coeffs)

    def evaluate(self, xs: Sequence[int]) -> GaussianInteger:
        if len(xs) != self.arity:
            raise ValueError("wrong number of arguments")
        total = GaussianInteger(0, 0)
        for s, c in self.coeffs:
            prod = 1
            for j in s:
                prod *= xs[j - 1]
            total = total + c * prod
        return total

    def cyclic_shift(self) -> "MultilinearCyclicPoly":
        """The polynomial f(x_J, x_1, ..., x_{J-1})."""
        J = self.arity
        data: dict[frozenset[int], GaussianInteger] = {}
        for s, c in self.coeffs:
            data[frozenset(j % J + 1 for j in s)] = c
        return MultilinearCyclicPoly.from_dict(J, data)

    def is_cyclic(self) -> bool:
        return self == self.cyclic_shift()

    def substitute_zero(self, var: int) -> "MultilinearCyclicPoly":
        data = {s: c for s, c in self.coeffs if var not in s}
        return MultilinearCyclicPoly.from_dict(self.arity, data)

    def __add__(self, other: "MultilinearCyclicPoly") -> "MultilinearCyclicPoly":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        data = dict(self.coeffs)
        for s, c in other.coeffs:
            data[s] = data.get(s, GaussianInteger(0, 0)) + c
        return MultilinearCyclicPoly.from_dict(self.arity, data)

    def __sub__(self, other: "MultilinearCyclicPoly") -> "MultilinearCyclicPoly":
        return self + other.scale(GaussianInteger(-1, 0))

    def scale(self, factor: GaussianInteger | int) -> "MultilinearCyclicPoly":
        data = {s: c * factor for s, c in self.coeffs}
        return MultilinearCyclicPoly.from_dict(self.arity, data)

    @staticmethod
    def constant(arity: int, value: GaussianInteger | int) -> "MultilinearCyclicPoly":
        if isinstance(value, int):
            value = GaussianInteger(value, 0)
        return MultilinearCyclicPoly.from_dict(arity, {frozenset(): value})


def axiom_iii_holds(f_j: MultilinearCyclicPoly,
                    f_jm2: MultilinearCyclicPoly) -> bool:
    """f_J(x1, 0, x3, x4, ...) == f_{J-2}(x1+x3, x4, ...) at coefficient level."""
    if f_j.arity != f_jm2.arity + 2:
        raise ValueError("arities must differ by 2")
    lhs = f_j.substitute_zero(2).as_dict()
    # expand the right side in the variables x1, x3, x4, ..., xJ
    rhs: dict[frozenset[int], GaussianInteger] = {}
    for s, c in f_jm2.coeffs:
        tail = frozenset(j + 2 for j in s if j >= 2)
        if 1 in s:
            for head in (frozenset([1]), frozenset([3])):
                key = head | tail
                rhs[key] = rhs.get(key, GaussianInteger(0, 0)) + c
        else:
            rhs[tail] = rhs.get(tail, GaussianInteger(0, 0)) + c
    rhs_poly = MultilinearCyclicPoly.from_dict(f_j.arity, rhs)
    return MultilinearCyclicPoly.from_dict(f_j.arity, lhs) == rhs_poly


# ---------------------------------------------------------------------------
# the normalized determinants a_J^+- as one transfer product
#
# A_J^s = -2 diag(x) + the cyclic band of ones with s in the two corners is a
# periodic Jacobi matrix, so det A_J^s = tr(T_J ... T_1) + 2s(-1)^(J+1) with
# T_k = [[-2x_k, -1], [1, 0]].  Both routes below carry the two rows
# (a, b; c, d) of the product, one factor T_k at a time.


def _pattern(j: int, sign: int) -> tuple[int, int]:
    """(e, c) with a_J^sign = e * tr(T_J ... T_1) + c.

    a_J^s is s det A_J^s for J = 0, 1 mod 4 and -s det A_J^-s for
    J = 2, 3 mod 4; either way the corner term becomes 2(-1)^(J+1).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if j < 1:
        raise ValueError("arity must be positive")
    return (sign if j % 4 in (0, 1) else -sign), (2 if j % 2 else -2)


def a_pm(j: int, sign: int, xs: Sequence[int]) -> int:
    """The normalized determinant a_J^sign at the integers x_1..x_J."""
    e, c0 = _pattern(j, sign)
    if len(xs) != j:
        raise ValueError("need exactly j entries")
    a, b, c, d = 1, 0, 0, 1
    for x in xs:
        a, b, c, d = -2 * x * a - c, -2 * x * b - d, a, b
    return e * (a + d) + c0


def _times_t(top: dict[frozenset[int], int], bottom: dict[frozenset[int], int],
             xk: frozenset[int]) -> dict[frozenset[int], int]:
    """-2 x_k top - bottom; no support holds k yet, so no term cancels."""
    return ({s | xk: -2 * v for s, v in top.items()}
            | {s: -v for s, v in bottom.items()})


def a_pm_symbolic(j: int, sign: int) -> MultilinearCyclicPoly:
    """a_J^sign as a multilinear polynomial in x_1..x_J (about L_J terms)."""
    e, c0 = _pattern(j, sign)
    one = {frozenset(): 1}
    a, b, c, d = one, {}, {}, one
    for k in range(1, j + 1):
        xk = frozenset([k])
        a, b, c, d = _times_t(a, c, xk), _times_t(b, d, xk), a, b
    trace = Counter(a)
    trace.update(d)
    trace[frozenset()] += e * c0
    return MultilinearCyclicPoly.from_dict(
        j, {s: GaussianInteger(e * v, 0) for s, v in trace.items()})


# ---------------------------------------------------------------------------
# homogeneous building blocks: disjoint edge sets of the J-cycle


def cycle_matchings(j: int, edges: int) -> list[tuple[tuple[int, int], ...]]:
    """All sets of `edges` pairwise-disjoint edges of the J-cycle."""
    if j <= 2:  # the 1-cycle has no edge and the 2-cycle one
        all_edges = [(1, 2)][:j - 1]
    else:
        all_edges = [(idx, idx % j + 1) for idx in range(1, j + 1)]
    return [combo for combo in combinations(all_edges, edges)
            if len({v for e in combo for v in e}) == 2 * edges]


def f_Jk(j: int, k: int) -> MultilinearCyclicPoly:
    """Sum over disjoint edge-sets covering J-k variables of the complementary monomial."""
    if k < 0 or k > j or (j - k) % 2:
        raise ValueError("k must have the parity of J and lie in [0, J]")
    data: dict[frozenset[int], GaussianInteger] = {}
    full = frozenset(range(1, j + 1))
    for combo in cycle_matchings(j, (j - k) // 2):
        covered = {v for e in combo for v in e}
        mono = full - covered
        data[mono] = data.get(mono, GaussianInteger(0, 0)) + GaussianInteger(1, 0)
    return MultilinearCyclicPoly.from_dict(j, data)


def a_pm_homogeneous(j: int, sign: int) -> MultilinearCyclicPoly:
    """a_J^+- assembled from the homogeneous pieces with i-power weights."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    odd = j % 2
    plus = MultilinearCyclicPoly.constant(j, 2 * odd)
    for k in range(2 - odd, j + 1, 2):
        plus = plus + f_Jk(j, k).scale(i_power(odd) * GaussianInteger(0, 2) ** k)
    if sign == 1:
        return plus
    return MultilinearCyclicPoly.constant(j, 4 if odd else -4) - plus


# ---------------------------------------------------------------------------
# reconstruction from initial data


@dataclass(frozen=True)
class SkeinSystemSpec:
    """Initial data pinning a skein system of the given parity.

    parity 1: c0 = f_1(0) plus the all-ones values c_J for odd J.
    parity 2: c0 = f_2(0,0) and c1 = f_2(1,0) plus the all-ones values.
    """

    parity: int
    c0: GaussianInteger
    all_ones: Callable[[int], GaussianInteger]
    c1: GaussianInteger | None = None

    def __post_init__(self) -> None:
        if self.parity not in (1, 2):
            raise ValueError("parity must be 1 or 2")
        if self.parity == 2 and self.c1 is None:
            raise ValueError("parity-2 systems need c1 = f_2(1,0)")


class InconsistentSpecError(ValueError):
    """The reduction produced contradictory vertex values."""


def reconstruct_from_initial(spec: SkeinSystemSpec, j: int) -> MultilinearCyclicPoly:
    """The unique multilinear cyclic polynomial with the given initial data.

    Values at 0/1 vertices with a zero reduce to arity J-2 through the
    two-step axiom; the all-ones vertex is the prescribed c_J; multilinear
    interpolation fills in everything else.  The result is checked to be
    cyclically symmetric and to satisfy the reduction, so an inconsistent
    spec raises instead of silently producing a non-system.
    """
    if j < spec.parity or (j - spec.parity) % 2:
        raise ValueError("arity does not match the parity")

    @cache
    def value(xs: tuple[int, ...]) -> GaussianInteger:
        arity = len(xs)
        if all(x == 1 for x in xs):
            return spec.all_ones(arity)
        if arity <= 2 and set(xs) <= {0, 1}:
            # the initial data f_1(0) = f_2(0, 0) = c0, f_2(1, 0) = f_2(0, 1) = c1
            return spec.c1 if 1 in xs else spec.c0
        if 0 in xs and arity > 2:
            pos = xs.index(0)
            # rotate the zero into slot 2
            rot = tuple(xs[(pos - 1 + t) % arity] for t in range(arity))
            return value((rot[0] + rot[2],) + rot[3:])
        # reduce the first coordinate not in {0,1} by linearity
        pos = next(t for t in range(arity) if xs[t] not in (0, 1))
        f0 = value(xs[:pos] + (0,) + xs[pos + 1:])
        f1 = value(xs[:pos] + (1,) + xs[pos + 1:])
        return f0 + (f1 - f0) * xs[pos]

    # the values at the 2^J cube vertices, bit t of the index for x_(t+1),
    # turned into monomial coefficients by the fast Moebius (Yates) transform
    coeffs = [value(tuple(v >> t & 1 for t in range(j))) for v in range(1 << j)]
    for t in range(j):
        for v in range(1 << j):
            if v >> t & 1:
                coeffs[v] = coeffs[v] - coeffs[v ^ (1 << t)]
    data = {frozenset(t + 1 for t in range(j) if v >> t & 1): c
            for v, c in enumerate(coeffs)}
    poly = MultilinearCyclicPoly.from_dict(j, data)
    if not poly.is_cyclic():
        raise InconsistentSpecError("reconstructed polynomial is not cyclic")
    if j >= spec.parity + 2:
        prev = reconstruct_from_initial(spec, j - 2)
        if not axiom_iii_holds(poly, prev):
            raise InconsistentSpecError("reconstruction violates the reduction axiom")
    return poly


def a_plus_spec() -> SkeinSystemSpec:
    """Initial data of the odd {a_J^+} system."""
    return SkeinSystemSpec(
        parity=1,
        c0=GaussianInteger(2, 0),
        all_ones=lambda j: (i_power(j + 1) + 1) * 2,
    )


def a_minus_even_spec() -> SkeinSystemSpec:
    """Initial data of the even {a_J^-} system."""
    return SkeinSystemSpec(
        parity=2,
        c0=GaussianInteger(-4, 0),
        c1=GaussianInteger(-4, 0),
        all_ones=lambda j: (i_power(j) + 1) * -2,
    )


# ---------------------------------------------------------------------------
# closed forms for the normalized family determinants


class FormulaNotEstablished(ValueError):
    """The requested parameters fall outside the proven closed forms."""


def tilde_closed_form(kind: str, n: int, k: int, j: int,
                      alphas: Sequence[int]) -> GaussianInteger:
    """The normalized determinant i^alpha * det of the family braid.

    Five parity cases; the narrow family at n = 0 mod 4 needs k = 1 (larger
    k vanishes identically), and the wide family is undefined there.
    """
    xs = list(family_params(kind, n, k, j, alphas).alphas)
    if n % 4 == 0:
        if kind == "c":
            raise FormulaNotEstablished(
                "wide family at n = 0 mod 4 has no proven closed form")
        if k > 1:
            return GaussianInteger(0, 0)
        return GaussianInteger(a_pm(j, 1, xs), 0)
    if n % 4 == 2:
        return GaussianInteger(-(4 ** (k - 1)) * a_pm(j, -1, xs), 0)
    # n odd
    if (n + 2 * k) % 4 == 1:
        scale = i_power(-k) * 2 ** (k - 1)
        return scale * a_pm(j, -1 if kind == "b" else 1, xs)
    scale = i_power(k) * 2 ** (k - 1)
    return scale * a_pm(j, 1 if kind == "b" else -1, xs)


def family_det_closed_form(kind: str, n: int, k: int, j: int,
                           alphas: Sequence[int]) -> GaussianInteger:
    """det of the family braid: i^-alpha times the normalized value."""
    tilde = tilde_closed_form(kind, n, k, j, alphas)
    return i_power(-sum(alphas)) * tilde


def det_table_all_ones(kind: str, n: int, k: int, j: int) -> GaussianInteger:
    """The four-case closed form for det at all twist counts one."""
    family_params(kind, n, k, j, (1,) * j)
    if kind == "b":
        if n % 4 == 0 and (j + 2) % 4 == 0 and k == 1:
            return GaussianInteger(4, 0)
        if (n + 2) % 4 == 0 and j % 4 == 0:
            return GaussianInteger(4, 0) ** k
        if n % 2 == 1 and (j - (n + 2 * k)) % 4 == 0:
            return (GaussianInteger(-2, 0) * i_power(n)) ** (k + 1)
        return GaussianInteger(0, 0)
    if (n + 2) % 4 == 0 and j % 4 == 0:
        return GaussianInteger(4, 0) ** k
    if n % 2 == 1 and (j - (n + 2 * k + 2)) % 4 == 0:
        return -((GaussianInteger(-2, 0) * i_power(n)) ** (k + 1))
    return GaussianInteger(0, 0)
