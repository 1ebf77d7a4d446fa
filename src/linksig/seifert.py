"""Seifert matrices and Burau matrices of braid closures, and the invariants.

The surface is the standard one for a closed braid: one disk per strand and
one once-twisted band per letter.  A basis of first homology is given by the
bounded regions between consecutive bands on the same generator index; the
linking numbers of those cycles depend only on the local picture, which gives
the sparse matrix rules below.  Two cycles interact only if they share a band
or interleave on adjacent generator indices, so the builder emits only the
nonzero entries, and with cycles ordered by start position V + V^T has a few
nonzeros a row near the diagonal.  One sparse elimination of that form
(`intmatrix.symmetric_invariants`) gives the signature, the nullity and the
determinant behind `link_det`, in milliseconds at dimension 800.

The Conway potential det(t^-1 V - t V^T) is not taken from the d x d
Seifert matrix but from the reduced Burau matrix of the braid, which is only
(m-1) x (m-1) for m strands (Burau 1936; Kassel-Turaev, Braid Groups,
GTM 247): det(I - psi_r(beta)) (1 - x) / (1 - x^m) is the Alexander
polynomial of the closure up to a unit +-x^k.  `conway_potential` pins that
unit in closed form; the test suite checks the result against the Seifert
determinant exactly.

Sign conventions are pinned by three independent checks (see the test
suite): the half twist in B_3 closes to a link of signature -1, the basic
two-strand family has determinant 2i, and the crossing-switch relation for
the potential function holds with its stated sign.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .braid import BraidWord
from .gaussian import GaussianInteger, i_power
# exact_determinant is no longer called here but stays importable from this
# module: bench/spans.py and its tests look it up on `linksig.seifert`
from .intmatrix import exact_determinant, symmetric_invariants  # noqa: F401
from .laurent import LaurentPolynomial, laurent_det


@dataclass(frozen=True)
class SeifertData:
    """A Seifert matrix together with the basis cycles that produced it.

    Each basis cycle is recorded as (generator index i, word positions a < b)
    for the two consecutive index-i letters bounding it, positions referring
    to the stabilized word.  The matrix V is kept as its nonzero entries
    (row, column, value); the dense `matrix` is built on demand.
    """

    nonzeros: tuple[tuple[int, int, int], ...]
    cycle_index: tuple[tuple[int, int, int], ...]
    stabilized_letters: tuple[int, ...]
    strands: int

    @property
    def dimension(self) -> int:
        return len(self.cycle_index)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """V as a dense d x d matrix."""
        n = self.dimension
        v = [[0] * n for _ in range(n)]
        for u, w, x in self.nonzeros:
            v[u][w] = x
        return tuple(tuple(row) for row in v)

    def symmetric_rows(self) -> list[dict[int, int]]:
        """The nonzeros of V + V^T, row by row."""
        rows: list[dict[int, int]] = [{} for _ in range(self.dimension)]
        for u, w, x in self.nonzeros:
            rows[u][w] = rows[u].get(w, 0) + x
            rows[w][u] = rows[w].get(u, 0) + x
        return rows


def stabilize_letters(word: BraidWord) -> tuple[int, ...]:
    """Append sigma_j sigma_j^-1 for every generator index that never occurs.

    This is an isotopy of the closure and makes the spanning surface
    connected, so split closures need no separate code path.
    """
    present = {abs(x) for x in word.letters}
    extra: list[int] = []
    for j in range(1, word.strands):
        if j not in present:
            extra += [j, -j]
    return word.letters + tuple(extra)


def seifert_matrix(word: BraidWord) -> SeifertData:
    letters = stabilize_letters(word)
    signs = [1 if x > 0 else -1 for x in letters]
    positions: dict[int, list[int]] = {}
    for pos, ell in enumerate(letters):
        positions.setdefault(abs(ell), []).append(pos)

    cycles: list[tuple[int, int, int]] = []
    for idx in sorted(positions):
        ps = positions[idx]
        for a, b in zip(ps, ps[1:]):
            cycles.append((idx, a, b))
    # order by start position: interactions are local, the matrix is banded
    cycles.sort(key=lambda c: (c[1], c[0]))
    where = {c: u for u, c in enumerate(cycles)}

    nonzeros: list[tuple[int, int, int]] = []
    for u, (idx, a, b) in enumerate(cycles):
        if signs[a] == signs[b]:
            nonzeros.append((u, u, -signs[a]))

    # consecutive cycles on one index share the middle band
    for idx, ps in positions.items():
        for a, b, c in zip(ps, ps[1:], ps[2:]):
            u = where[(idx, a, b)]
            w = where[(idx, b, c)]
            nonzeros.append((u, w, 1) if signs[b] > 0 else (w, u, -1))

    # interleaved cycles on adjacent indices: the cycle whose span starts
    # first links the pushoff of the other, not vice versa.  A cycle (a, b)
    # on index i interleaves at most two cycles (c, d) on index i + 1: the
    # one with a < c < b < d and the one with c < a < d < b.
    for u, (idx, a, b) in enumerate(cycles):
        qs = positions.get(idx + 1)
        if not qs:
            continue
        t = bisect(qs, b)
        if 0 < t < len(qs) and qs[t - 1] > a:
            nonzeros.append((where[(idx + 1, qs[t - 1], qs[t])], u, 1))
        t = bisect(qs, a)
        if 0 < t < len(qs) and qs[t] < b:
            nonzeros.append((where[(idx + 1, qs[t - 1], qs[t])], u, -1))

    return SeifertData(
        nonzeros=tuple(nonzeros),
        cycle_index=tuple(cycles),
        stabilized_letters=letters,
        strands=word.strands,
    )


def signature_nullity(word: BraidWord) -> tuple[int, int]:
    """(Sign, Null) of the braid closure, from the symmetrized Seifert matrix."""
    sign, null, _ = symmetric_invariants(seifert_matrix(word).symmetric_rows())
    return sign, null


def _burau_columns(word: BraidWord) -> list[list[LaurentPolynomial]]:
    """Columns of the unreduced Burau matrix of the word, in the variable x.

    The product of the letter matrices is built from the identity one letter
    at a time; a letter on index i only mixes columns i and i+1.
    """
    m = word.strands
    one, zero = LaurentPolynomial.one(), LaurentPolynomial.zero()
    cols = [[one if r == c else zero for r in range(m)] for c in range(m)]
    for ell in word.letters:
        i = abs(ell) - 1
        a, b = cols[i], cols[i + 1]
        if ell > 0:
            # col_i <- (1-x) col_i + col_{i+1},  col_{i+1} <- x col_i
            s = [p.shift(1) for p in a]
            cols[i], cols[i + 1] = [p + q - r for p, q, r in zip(a, b, s)], s
        else:
            # col_i <- x^-1 col_{i+1},  col_{i+1} <- col_i + (1-x^-1) col_{i+1}
            s = [q.shift(-1) for q in b]
            cols[i], cols[i + 1] = s, [p + q - r for p, q, r in zip(a, b, s)]
    return cols


def conway_potential(word: BraidWord) -> LaurentPolynomial:
    """The potential function det(t^-1 V - t V^T) of the closure, exactly.

    Computed from the reduced Burau matrix psi_r, the unreduced one taken
    modulo its fixed vector (1, ..., 1):
    A(x) = det(I - psi_r) / (1 + x + ... + x^(m-1)) is the Alexander
    polynomial up to a unit +-x^k, and the potential is +-t^k A(t^2).
    The unit is fixed without any Seifert determinant:

    * the t-power: Omega(t^-1) = (-1)^d Omega(t), so the lowest and highest
      exponents of Omega are negatives of each other;
    * the sign: (-1)^(e + m - 1) with e the exponent sum, which is (-1)^d
      for the Seifert dimension d (for a knot it makes Omega(1) = 1).

    A zero determinant (for instance a split closure) gives 0.
    """
    m = word.strands
    cols = _burau_columns(word)
    rows = [[(1 if r == c else 0) - (cols[c][r] - cols[c][m - 1])
             for c in range(m - 1)] for r in range(m - 1)]
    det = laurent_det(rows)
    if det.is_zero():
        return det
    alexander = det.exact_div(LaurentPolynomial({j: 1 for j in range(m)}))
    omega = alexander.substitute_power(2)
    exps = omega.exponents()
    omega = omega.shift(-(exps[0] + exps[-1]) // 2)
    return -omega if (word.exponent_sum() + m - 1) % 2 else omega


def link_det(word: BraidWord) -> GaussianInteger:
    """The link determinant, the potential function evaluated at t = i.

    At t = i the symmetrization collapses: t^-1 V - t V^T = -i (V + V^T),
    so the value is (-i)^d det(V + V^T) with an integer determinant.
    """
    data = seifert_matrix(word)
    d = data.dimension
    _, _, det = symmetric_invariants(data.symmetric_rows())
    return i_power(-d) * det if d % 4 else GaussianInteger(det, 0)


def band_step(sign_l: int, det_l: GaussianInteger,
              det_lp: GaussianInteger) -> int:
    """Signature after a band attachment: Sign L' = Sign L + sign(i det L'/det L).

    The ratio is real whenever the attachment flips the component-count
    parity; a nonzero imaginary part is a caller error.
    """
    if det_l.is_zero():
        raise ValueError("band step undefined when det L = 0")
    z = GaussianInteger(0, 1) * det_lp
    w = det_l.conj()
    prod = z * w
    if prod.im != 0:
        raise ValueError("i * det L' / det L is not real")
    if prod.re > 0:
        return sign_l + 1
    if prod.re < 0:
        return sign_l - 1
    return sign_l


def band_step_constraint(delta_null: int, delta_sign: int) -> bool:
    """One band attachment moves (Null, Sign) by exactly one unit in total."""
    return abs(delta_null) + abs(delta_sign) == 1


def invariants_report(word: BraidWord) -> dict:
    """All closure invariants of one braid word, as plain JSON-able data."""
    omega = conway_potential(word)
    det = omega.eval_at_i()
    sign, null = signature_nullity(word)
    return {
        "strands": word.strands,
        "word": word.to_text(),
        "components": word.closure_components(),
        "exponent_sum": word.exponent_sum(),
        "signature": sign,
        "nullity": null,
        "conway": omega.to_json(),
        "conway_text": str(omega),
        "det": str(det),
    }
