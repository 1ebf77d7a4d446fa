"""Seifert matrices and Burau matrices of braid closures, and the invariants.

The surface is the standard one for a closed braid: one disk per strand and
one once-twisted band per letter.  A basis of first homology is given by the
bounded regions between consecutive bands on the same generator index; the
linking numbers of those cycles depend only on the local picture, which gives
the sparse matrix rules below.  Two cycles interact only if they share a band
or interleave on adjacent generator indices.  Every word position but the
last on its index starts exactly one cycle, so the cycles are numbered by
start position, and one left-to-right pass over the word emits the nonzero
entries of each cycle as it closes, with no sort and no lookup by cycle.
In that order V + V^T has a few nonzeros a row near the diagonal, and one
sparse elimination of it, built in one pass over the nonzeros of V, gives
the signature and the nullity in milliseconds at dimension 800;
`invariants_report` also reads the determinant off it.  The report takes
that form of the word with its far-commuting inverse pairs cancelled
(`braid._cancel_far_pairs`): the same braid, and two cycles fewer a pair,
about half the dimension on random words.  `seifert_matrix`,
`signature_nullity`, `link_det` and `conway_potential` keep the word they
are given: the Seifert matrix is the paper's object, the paper's family
words have nothing to cancel, and a potential of the uncancelled word lets
the report's det = Omega(i) check the cancellation.

The Conway potential det(t^-1 V - t V^T) comes from the reduced Burau
matrix of the braid, (m-1) x (m-1) for m strands (Burau 1936; Kassel-Turaev,
Braid Groups, GTM 247): det(I - psi_r(beta)) (1 - x) / (1 - x^m) is the
Alexander polynomial of the closure up to a unit +-x^k.  psi_r is the
unreduced Burau matrix acting on the quotient by its fixed vector
(1, ..., 1), so the product is built in that quotient: each column v is
kept as q(v)_r = v_r - v_(m-1), r < m - 1.  A word that misses a
generator index closes to a split link, whose potential is 0.  Otherwise
one pass over the letters proves a width K (`_proven_width`), and both
kernels below pack at x = 2^K by the rule of `intmatrix`.  Two kernels
take the determinant, and that width picks one:

* Short words, K (m - 1) <= 320 bits: the whole word at once, `link_det`'s
  integer column loop with x = 2^K in place of x = -1.  Each entry is one
  integer, and each column is kept times a power x^(o_c) that absorbs the
  x^-1 of negative letters; one integer determinant of I - psi_r, with
  column c scaled by x^(o_c), gives the digits.
* Wider words: the midpoint split.  Each column is a plain integer dict
  keyed by the one integer e * m + r for row r and power x^e.  The word is
  cut at its midpoint, beta = u v.  Then I - psi_r(u) psi_r(v) =
  psi_r(u) (psi_r(u^-1) - psi_r(v)), and det psi_r(u) = (-x)^e(u) for the
  exponent sum e(u), so
      det(I - psi_r(beta)) = (-x)^e(u) det(psi_r(u^-1) - psi_r(v)),
  a shift and a sign of a determinant whose entries q_c(u^-1)[r] - q_c(v)[r]
  span about half as many powers of x.  Each column of that difference is
  one merge of the two halves' column dicts, and each entry is packed as one
  integer after row and column shifts that take out as many powers of x as
  the determinant's terms allow, with a width from Hadamard's bound on the
  entries themselves, for one integer Bareiss determinant
  (`intmatrix._packed_determinant`).

The division by 1 + x + ... + x^(m-1) is one division by x^m - 1 after a
product with x - 1, each one pass over the digit list (`laurent`).
The unit is one closed form, `_unit_power`; the tests check it against
the Seifert determinant.  `link_det` takes the same reduced columns at
t = i, where x = -1 and the letters act over Z: each column is one integer
sum_r q_r 2^(w r), one or two integer operations a letter, for one integer
Bareiss determinant of size m - 1 (or m, for even m).

Sign conventions are pinned by three independent checks (see the test
suite): the half twist in B_3 closes to a link of signature -1, the basic
two-strand family has determinant 2i, and the crossing-switch relation for
the potential function holds with its stated sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .braid import BraidWord, _cancel_far_pairs
from .gaussian import GaussianInteger, i_power
from .intmatrix import (_balanced_digits, _byte_width, _packed_determinant,
                        _packed_digits, _symmetrized_invariants,
                        exact_determinant)
from .laurent import (LaurentPolynomial, _divide_power_minus_one,
                      _times_power_minus_one)

#: the widest K (m - 1), in bits, that `conway_potential` takes by the direct
#: kernel, for the proven width K of m strands: on seeded words of 3 to 12
#: strands the direct kernel stops being the faster one between 320 and 448
_DIRECT_BITS = 320


@dataclass(frozen=True)
class SeifertData:
    """A d x d Seifert matrix V, kept as its nonzero entries.

    The entries are (row, column, value), at most one per pair of basis
    cycles; the dense `matrix` is built on demand.
    """

    nonzeros: tuple[tuple[int, int, int], ...]
    dimension: int

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """V as a dense d x d matrix."""
        n = self.dimension
        v = [[0] * n for _ in range(n)]
        for u, w, x in self.nonzeros:
            v[u][w] = x
        return tuple(tuple(row) for row in v)


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
    """The Seifert matrix of the closure, cycles numbered by start position."""
    letters = stabilize_letters(word)
    # the last position of each generator index: every other position
    # starts a cycle, which runs to the next position on its index
    final = {abs(x): pos for pos, x in enumerate(letters)}
    num = [0] * len(letters)  # cycle number of each start position
    last: dict[int, int] = {}  # the latest position on each index
    nonzeros: list[tuple[int, int, int]] = []
    u = 0
    for e, x in enumerate(letters):
        j = abs(x)
        opens = final[j] != e
        if opens:
            num[e] = u
            u += 1
        s = last.get(j)
        last[j] = e
        if s is None:
            continue
        c = num[s]  # the cycle (s, e) closes here
        if (letters[s] > 0) == (x > 0):
            nonzeros.append((c, c, -1 if x > 0 else 1))
        if opens:
            # the next cycle on this index shares the band at e
            w = num[e]
            nonzeros.append((c, w, 1) if x > 0 else (w, c, -1))
        # a cycle that starts inside (s, e) on an adjacent index and ends
        # after e interleaves this one; the cycle whose span starts first
        # links the pushoff of the other, not vice versa
        y = last.get(j + 1)
        if y is not None and y > s and final[j + 1] != y:
            nonzeros.append((num[y], c, 1))
        y = last.get(j - 1)
        if y is not None and y > s and final[j - 1] != y:
            nonzeros.append((c, num[y], -1))

    return SeifertData(tuple(nonzeros), len(letters) - len(final))


def _form_invariants(word: BraidWord) -> tuple[int, int, GaussianInteger]:
    """(Sign, Null, det) of the closure from one elimination of V + V^T.

    At t = i the symmetrization collapses: t^-1 V - t V^T = -i (V + V^T),
    so the determinant is (-i)^d det(V + V^T) with an integer determinant.
    """
    data = seifert_matrix(word)
    d = data.dimension
    sign, null, det = _symmetrized_invariants(data.nonzeros, d)
    return sign, null, i_power(-d) * det


def signature_nullity(word: BraidWord) -> tuple[int, int]:
    """(Sign, Null) of the braid closure, from the symmetrized Seifert matrix."""
    sign, null, _ = _form_invariants(word)
    return sign, null


def _burau_columns(m: int, letters) -> list[dict[int, int]]:
    """Columns of psi_r, the reduced Burau matrix of the letters on m strands.

    The unreduced Burau matrix fixes the vector (1, ..., 1), so each of its
    columns v is kept as q(v)_r = v_r - v_(m-1) for rows 0 <= r < m - 1:
    column c starts as the unit vector e_c for c < m - 1, and a last column,
    dropped at the end, as -(1, ..., 1).  Column c is one sparse dict
    {e * m + r: coefficient} for the entry at row r and the power x^e, with
    no zero coefficients; ``divmod(key, m)`` gives back (e, r), and a shift
    by x^(+-1) adds +-m to every key.  The letters act on columns, so they
    commute with q: the product is built from the start columns one letter
    at a time, and a letter on index i rewrites only columns i and i+1.
    """
    cols = [{c: 1} for c in range(m - 1)]
    cols.append({r: -1 for r in range(m - 1)})
    for ell in letters:
        i = abs(ell) - 1
        a, b = cols[i], cols[i + 1]
        if ell > 0:
            # col_i <- (1-x) col_i + col_{i+1},  col_{i+1} <- x col_i
            s = {k + m: v for k, v in a.items()}
            cols[i], cols[i + 1] = _merge(b, a, s), s
        else:
            # col_i <- x^-1 col_{i+1},  col_{i+1} <- col_i + (1-x^-1) col_{i+1}
            s = {k - m: v for k, v in b.items()}
            cols[i], cols[i + 1] = s, _merge(a, b, s)
    del cols[-1]
    return cols


def _merge(acc: dict, plus: dict, minus: dict) -> dict:
    """acc + plus - minus, formed in acc; coefficients that cancel are dropped."""
    for other, sign in ((plus, 1), (minus, -1)):
        for k, v in other.items():
            v = acc.get(k, 0) + sign * v
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc


def _unit_power(word: BraidWord) -> int:
    """k in Omega(t) = (-t)^k A(t^2), the unit of the Burau route: k = m - 1 - e.

    Here A(x) = det(I - psi_r) / (1 + x + ... + x^(m-1)) and e is the
    exponent sum.  The Burau matrix is unitary for Squier's hermitian form,
    so det(I - psi_r) is symmetric about x^(e/2), and A(t^2) about t^-k:
    the shift t^k centres it, as Omega(t^-1) = (-1)^d Omega(t) needs, and
    the sign (-1)^k is (-1)^d for the Seifert dimension d (for a knot it
    makes Omega(1) = 1).
    """
    return word.strands - 1 - word.exponent_sum()


def _conway_size(letters: int, strands: int) -> int:
    """The size that `conway_potential` costs on L letters and m strands.

    It is max(L, m - 1) x (m - 1).  The width pre-pass costs L integer
    steps.  The words that reach this size take the midpoint split, whose
    Burau columns cost about L (m - 1) dict updates, and whose dense
    (m - 1) x (m - 1) grid of packed entries is built, and eliminated unless
    it has a zero column, whatever the letter count.  The direct kernel
    takes only words whose proven width K has K (m - 1) <= `_DIRECT_BITS`,
    L steps of m - 1 integer entries each and one (m - 1) x (m - 1)
    determinant.  On seeded random words that is up to about 100 letters
    on 3 strands, 30 on 6 and 20 on 9, under a millisecond; words whose
    letters mostly cancel stay narrow for longer, (1, -1, 2, -2) repeated
    1000 times on 3 strands at K = 16 in 5 ms.  The size counts letters,
    not coefficient bits.  One call each
    (median of three) on seeded random words of size 8000 took 1.0 s on 3
    strands (4000 letters), 2.1 s on 5 (2000), 2.2 s on 8 (1142), 2.1 s on
    16 (533) and 0.5 s on 33 (250); the cost grows faster than the square
    of the length.  The worst case known is (1, -2) repeated 2000 times on
    3 strands, whose coefficients reach 835 digits: 10-13 s.  The grid
    alone grows as (m - 1)^2: sigma_1 ... sigma_89 on 90 strands (size
    7921) took 0.3 s (Python 3.11 on a shared 2-vCPU VM).  A split closure,
    a word that misses a generator index, costs one pass over its letters
    at any size: 1,2,...,8 on 1001 strands (size 10^6) took 0.04 ms.
    """
    gaps = strands - 1
    return max(letters, gaps) * gaps


def _column_norms(m: int, letters) -> list[int]:
    """Bounds N_c on the 1-norms of the m - 1 columns of psi_r, from the letters.

    The 1-norm of a column is the sum of the absolute coefficients of its
    entries.  The columns start as the unit vectors, of norm 1, and the
    dropped last column as -(1, ..., 1), of norm m - 1.  A positive letter
    on columns (a, b) writes (1 - x) a + b and x a, a negative one x^-1 b
    and a + (1 - x^-1) b, so the norms go to at most (2a + b, a) and
    (b, a + 2b).
    """
    norms = [1] * (m - 1) + [m - 1]
    for ell in letters:
        i = abs(ell) - 1
        a, b = norms[i], norms[i + 1]
        if ell > 0:
            norms[i], norms[i + 1] = 2 * a + b, a
        else:
            norms[i], norms[i + 1] = b, a + 2 * b
    del norms[-1]
    return norms


def _proven_width(m: int, letters) -> int:
    """K = `_byte_width(B)` for a bound B on the coefficients of det(I - psi_r).

    On |x| = 1 each entry of column c of I - psi_r is at most its 1-norm,
    so by Hadamard's inequality |det(I - psi_r)| <= B = prod_c (1 + N_c)
    (`_column_norms`), and so is every coefficient.
    """
    return _byte_width(prod(1 + n for n in _column_norms(m, letters)))


def _direct_determinant(m: int, letters, k: int) -> tuple[int, list[int]]:
    """det(I - psi_r) of the letters on m strands, as (low, its dense
    coefficients from x^low up), for a width k from `_proven_width`.

    `link_det`'s integer loop with x = 2^k: column c is kept as x^(o_c)
    times the column, with an offset o_c >= 0 that absorbs the x^-1 of
    negative letters, and each entry of that polynomial as one integer, its
    value at x = 2^k.  Column c of I - psi_r, times x^(o_c), is then
    x^(o_c) e_c minus the stored column, an integer matrix whose
    determinant is x^(sum o_c) det(I - psi_r) at x = 2^k.
    """
    n = m - 1
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    cols.append([-1] * n)
    offs = [0] * m
    for ell in letters:
        if ell > 0:
            # col_i <- (1-x) col_i + col_{i+1},  col_{i+1} <- x col_i
            i = ell - 1
            a, b = cols[i], cols[i + 1]
            oa, ob = offs[i], offs[i + 1]
            if oa > ob:
                s = k * (oa - ob)
                cols[i] = [x - (x << k) + (y << s) for x, y in zip(a, b)]
            else:
                s = k * (ob - oa)
                cols[i] = [((x - (x << k)) << s) + y for x, y in zip(a, b)]
                offs[i] = ob
            if oa:
                cols[i + 1], offs[i + 1] = a, oa - 1
            else:
                cols[i + 1], offs[i + 1] = [x << k for x in a], 0
        else:
            # col_i <- x^-1 col_{i+1},  col_{i+1} <- col_i + (1-x^-1) col_{i+1}
            i = -ell - 1
            a, b = cols[i], cols[i + 1]
            oa, ob = offs[i], offs[i + 1] + 1
            if oa > ob:
                s = k * (oa - ob)
                cols[i + 1] = [x + (((y << k) - y) << s) for x, y in zip(a, b)]
                offs[i + 1] = oa
            else:
                s = k * (ob - oa)
                cols[i + 1] = [(x << s) + (y << k) - y for x, y in zip(a, b)]
                offs[i + 1] = ob
            cols[i], offs[i] = b, ob
    # row c of the transpose, which has the same determinant, is column c
    rows = [[-x for x in col] for col in cols[:n]]
    for c, row in enumerate(rows):
        row[c] += 1 << (k * offs[c])
    zeros, digits = _packed_digits(exact_determinant(rows), k)
    return zeros - sum(offs[:n]), digits


def _split_determinant(m: int, letters) -> tuple[int, list[int]]:
    """det(I - psi_r) of the letters on m strands, as (low, its dense
    coefficients from x^low up), by the midpoint split beta = u v:
    det(I - psi_r(beta)) = (-x)^e(u) det(psi_r(u^-1) - psi_r(v)), whose
    columns, merged from the two halves', go into one packed integer
    determinant (`_packed_determinant`).
    """
    h = len(letters) // 2
    inverse = _burau_columns(m, [-x for x in reversed(letters[:h])])
    low, det = _packed_determinant([_merge(a, {}, b) for a, b in zip(
        inverse, _burau_columns(m, letters[h:]))])
    e_u = sum(1 if x > 0 else -1 for x in letters[:h])
    return low + e_u, [-x for x in det] if e_u % 2 else det


def _potential_from(word: BraidWord, low: int,
                    det: list[int]) -> LaurentPolynomial:
    """The potential of the closure from det(I - psi_r) = sum_j det[j] x^(low+j).

    The digit list is multiplied by x - 1 and divided by x^m - 1, which
    leaves A(x), and Omega = (-t)^k A(t^2) is wrapped once (`_unit_power`).
    """
    # 1 + x + ... + x^(m-1) = (x^m - 1) / (x - 1)
    alexander = _divide_power_minus_one(_times_power_minus_one(det, 1),
                                        word.strands)
    k = _unit_power(word)
    sign = -1 if k % 2 else 1
    return LaurentPolynomial._wrap({2 * (low + j) + k: sign * x
                                    for j, x in enumerate(alexander) if x})


def conway_potential(word: BraidWord) -> LaurentPolynomial:
    """The potential function det(t^-1 V - t V^T) of the closure, exactly.

    Computed from the reduced Burau matrix psi_r, the unreduced one taken
    modulo its fixed vector (1, ..., 1):
    A(x) = det(I - psi_r) / (1 + x + ... + x^(m-1)) is the Alexander
    polynomial up to a unit, and the potential is (-t)^k A(t^2) with
    k = m - 1 - e for the exponent sum e (`_unit_power`).  The width K
    proven from the letters alone (`_proven_width`) picks the kernel: when
    K (m - 1) is at most `_DIRECT_BITS`, the whole word's Burau matrix at
    x = 2^K (`_direct_determinant`); otherwise the midpoint split
    (`_split_determinant`), whose entries span about half as many powers
    of x.  A word that misses a generator index, a split closure, is 0.
    """
    m, letters = word.strands, word.letters
    if len({abs(x) for x in letters}) < m - 1:
        return LaurentPolynomial.zero()
    k = _proven_width(m, letters)
    if k * (m - 1) <= _DIRECT_BITS:
        low, det = _direct_determinant(m, letters, k)
    else:
        low, det = _split_determinant(m, letters)
    return _potential_from(word, low, det)


def link_det(word: BraidWord) -> GaussianInteger:
    """The link determinant Omega(i), from the integer Burau matrix at x = -1.

    At t = i the Burau variable x = t^2 is -1, so the letter matrices are
    integer: a positive letter on index i sets col_i <- 2 col_i + col_{i+1}
    and col_{i+1} <- -col_i, a negative one col_i <- -col_{i+1} and
    col_{i+1} <- col_i + 2 col_{i+1}.  For odd m, 1 + x + ... + x^(m-1) is
    1 at x = -1, so one integer determinant of I - psi_r is A(-1) and
    Omega(i) = (-i)^k A(-1) (`_unit_power`).  For even m that factor
    vanishes there, so sigma_m on a new strand is appended first: a Markov
    stabilization, which keeps the closure and k.

    >>> from linksig.braid import half_twist
    >>> str(link_det(half_twist(3) ** 2))
    '4'
    >>> str(link_det(BraidWord(2, (1, 1))))  # the Hopf link
    '2i'
    """
    m, letters = word.strands, word.letters
    if m % 2 == 0:
        m, letters = m + 1, letters + (m,)
    # column c, kept modulo (1, ..., 1) as in `_burau_columns`, is the int
    # sum_r q_c[r] 2^(w r); a letter at most triples the largest entry, so
    # |q_c[r]| <= 3^L fits a balanced digit
    w = _byte_width(3 ** len(letters))
    cols = [1 << (w * c) for c in range(m - 1)]
    cols.append(-sum(cols))
    for ell in letters:
        if ell > 0:
            a = cols[ell - 1]
            cols[ell - 1] = (a << 1) + cols[ell]
            cols[ell] = -a
        else:
            b = cols[-ell]
            cols[-ell] = cols[-ell - 1] + (b << 1)
            cols[-ell - 1] = -b
    # entry (r, c) of I - psi_r is delta_rc - q_c[r]; row c of its
    # transpose, which has the same determinant, is column c
    rows = [[-x for x in col] for col in _balanced_digits(cols[:-1], w, m - 1)]
    for c, row in enumerate(rows):
        row[c] += 1
    return i_power(-_unit_power(word)) * exact_determinant(rows)


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


def invariants_report(word: BraidWord) -> dict:
    """All closure invariants of one braid word, as plain JSON-able data.

    The potential comes from the Burau matrix of the word as given, and the
    signature, nullity and determinant from the Seifert form of the word
    with its far-commuting inverse pairs cancelled (`_cancel_far_pairs`),
    the same braid with fewer bands, whose form is smaller and faster to
    eliminate.  So det = Omega(i) checks one route against the other, and
    the cancellation with them.  The other fields are the input word's.
    """
    omega = conway_potential(word)
    sign, null, det = _form_invariants(_cancel_far_pairs(word))
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
