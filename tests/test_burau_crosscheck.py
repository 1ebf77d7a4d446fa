"""Cross-checks between the Seifert route and the Burau route.

The library takes the Conway potential and `link_det` from the reduced
Burau matrix and the signature and nullity from the Seifert matrix
(`invariants_report` also reads its determinant there).  Here the Seifert
determinant det(t^-1 V - t V^T) serves as the oracle for
`conway_potential`, exactly and with no freedom of units, and the
unreduced Burau route for each of its two kernels, called directly on the
same words whichever one the proven width would pick.  A second Burau
build, by full matrix products of the letter matrices, checks the Seifert
matrix up to units with no surface or orientation convention in common,
and checks the library's Burau columns, which are kept modulo the fixed
vector (1, ..., 1), and the unreduced columns of the oracle route.  The
oracle's Bareiss elimination over Laurent entries (`laurent_bareiss`)
checks the packed integer determinant that `conway_potential` and the
skein block identities take.
"""

import itertools
import random
from math import prod
from operator import add
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

from linksig import seifert
from linksig.braid import BraidWord, half_twist
from linksig.genskein import RelationSpec, build_symmetrized
from linksig.intmatrix import (_balanced_digits, _byte_width, _lowest_shifts,
                               _packed_determinant)
from linksig.laurent import LaurentPolynomial
from linksig.seifert import (_DIRECT_BITS, _burau_at, _column_norms,
                             _conway_series, _direct_determinant,
                             _potential_from,
                             _proven_width, _split_determinant, _unit_power,
                             conway_potential, invariants_report, link_det,
                             seifert_matrix)
from oracles import (exact_div, laurent_bareiss, unreduced_burau_columns,
                     unreduced_burau_potential)
from strategies import burau_words, mixed_words, random_word

L = LaurentPolynomial


def _matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), L.zero())
             for j in range(n)] for i in range(n)]


def _unreduced_burau(word: BraidWord):
    m = word.strands
    x = L.t(1)
    one = L.one()
    mat = [[one if i == j else L.zero() for j in range(m)] for i in range(m)]
    for ell in word.letters:
        i = abs(ell) - 1
        g = [[one if r == c else L.zero() for c in range(m)] for r in range(m)]
        if ell > 0:
            g[i][i] = one - x
            g[i][i + 1] = x
            g[i + 1][i] = one
            g[i + 1][i + 1] = L.zero()
        else:
            g[i][i] = L.zero()
            g[i][i + 1] = one
            g[i + 1][i] = L.t(-1)
            g[i + 1][i + 1] = L.t(-1) * (x - one)
        mat = _matmul(mat, g)
    return mat


def _read_back(m, letters, k):
    """The columns of `_burau_at` at x = 2^k, each as {(r, e): coefficient}
    for row r and the power x^e, read as balanced base-2^k digits."""
    cols, offs = _burau_at(m, (letters,), k)[0]
    out = []
    for col, o in zip(cols, offs):
        count = max(map(abs, col), default=0).bit_length() // k + 1
        out.append({(r, j - o): v
                    for r, digits in enumerate(_balanced_digits(col, k, count))
                    for j, v in enumerate(digits) if v})
    return out


def _norms_width(m, letters):
    """The width at which `_column_norms` proves every column reads back."""
    return _byte_width(max(_column_norms(m, (letters,))[0], default=0))


@settings(max_examples=80)
@given(burau_words())
@example(BraidWord(1))
@example(BraidWord(2, (-1, -1, 1)))
@example(BraidWord(5, (2, -2, 4, -1, 4, 4, -1)))
@example(BraidWord(8, tuple((-1) ** k * (3 * k % 7 + 1) for k in range(40))))
def test_burau_columns_equal_letter_matrix_products(word):
    mat = _unreduced_burau(word)
    m = word.strands

    def decode(col):
        # a key e * m + r holds the coefficient of x^e in row r
        return {divmod(key, m)[::-1]: v for key, v in col.items()}

    unreduced = unreduced_burau_columns(word)
    assert len(unreduced) == m
    for c, col in enumerate(unreduced):
        assert decode(col) == {(r, e): v for r in range(m)
                               for e, v in mat[r][c].items()}, (word.letters, c)
    # the library keeps each column v modulo (1, ..., 1), v_r - v_(m-1), and
    # returns the m - 1 columns of the reduced matrix
    cols = _read_back(m, word.letters, _norms_width(m, word.letters))
    assert len(cols) == m - 1
    for c, col in enumerate(cols):
        assert col == {(r, e): v for r in range(m - 1)
                       for e, v in (mat[r][c] - mat[m - 1][c]).items()
                       }, (word.letters, c)


def _assert_kernels_equal_oracle(word):
    # each kernel gives det(I - psi_r(beta)) as digits; the oracle takes
    # the whole word's unreduced Burau matrix by Laurent Bareiss
    m, letters = word.strands, word.letters
    want = unreduced_burau_potential(word)
    k = _proven_width(m, (letters,))
    direct = _direct_determinant(*_burau_at(m, (letters,), k)[0], k)
    split = _split_determinant(m, letters)
    unit = _unit_power(word)
    assert _potential_from(m, unit, *direct) == want, (m, letters)
    assert _potential_from(m, unit, *split) == want, (m, letters)
    assert conway_potential(word) == want, (m, letters)


# 64 (6 - 1) = 320 bits, the widest the direct kernel takes; one more letter
# makes it 72 (6 - 1) and the midpoint split
UNDER = random_word(6, 33, seed=6000)
OVER = random_word(6, 34, seed=6000)


@settings(max_examples=300)
@given(mixed_words(1, 16, 60))
@example(BraidWord(1))
@example(BraidWord(2))
@example(BraidWord(2, (-1,)))  # u is empty
@example(BraidWord(4, (1, -1, 3)))  # a split closure, det 0
@example(BraidWord(4, (1, -3)))  # a split closure with a zero column
@example(BraidWord(3, (1, 1, 2, -1, 2, 2)))  # e(u) = 3
# u^-1 = v: the two halves' columns are equal and every merged entry cancels
@example(BraidWord(3, (1, -2, 2, -1)))
# coefficients past 2^53, and (-t)^k (-x)^e(u) with k + e(u) odd and negative
@example(BraidWord(3, (1, -2) * 60 + (1,) * 5))
@example(UNDER)
@example(OVER)
@example(random_word(8, 250, seed=8250))
def test_conway_potential_equals_unreduced_burau_route(word):
    # the direct kernel takes det(I - psi_r(beta)) at x = 2^K; the split
    # cuts the word at its midpoint, beta = u v, and takes
    # (-x)^e(u) det(psi_r(u^-1) - psi_r(v)); the oracle det(I - psi_r(beta))
    _assert_kernels_equal_oracle(word)


def test_conway_potential_equals_unreduced_burau_route_on_seeded_words():
    # hypothesis favours short words; these 300 spread evenly over 0-40 letters
    rng = random.Random(1515)
    for _ in range(300):
        m = rng.randint(2, 16)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, m - 1)
                        for _ in range(rng.randint(0, 40)))
        _assert_kernels_equal_oracle(BraidWord(m, letters))


def test_proven_width_picks_the_kernel(monkeypatch):
    taken = []
    for name in ("_direct_determinant", "_split_determinant"):
        kernel = getattr(seifert, name)
        monkeypatch.setattr(seifert, name, lambda *args, kernel=kernel, name=name:
                            taken.append(name) or kernel(*args))
    assert _proven_width(6, (UNDER.letters,)) * 5 == _DIRECT_BITS
    assert _proven_width(6, (OVER.letters,)) * 5 > _DIRECT_BITS
    conway_potential(UNDER)
    conway_potential(OVER)
    assert taken == ["_direct_determinant", "_split_determinant"]


RELATION_TWISTS = tuple(spec.twist.letters for spec in (
    RelationSpec.conway(), RelationSpec.delta3_order4(),
    RelationSpec.delta3sq_order4()))


@st.composite
def twist_series(draw) -> tuple[BraidWord, tuple[int, ...], int]:
    """A word on 2-7 strands of 0-30 letters (half of them off a subset of
    the generator indices), a twist on its strands, one of the relations'
    or 1-6 random signed letters, and a count of 1-5."""
    m = draw(st.integers(2, 7))
    gens = list(range(1, m))
    if m > 2 and draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(gens), min_size=1,
                             max_size=m - 2, unique=True))
    letter = st.sampled_from(gens).flatmap(lambda j: st.sampled_from((j, -j)))
    word = BraidWord(m, tuple(draw(st.lists(letter, max_size=30))))
    signed = st.integers(1, m - 1).flatmap(lambda j: st.sampled_from((j, -j)))
    twists = [t for t in RELATION_TWISTS if max(t) < m]
    twist = draw(st.one_of(st.sampled_from(twists), st.lists(
        signed, min_size=1, max_size=6).map(tuple)))
    return word, twist, draw(st.integers(1, 5))


@settings(max_examples=300)
@given(twist_series())
# sigma_1^3 proves 16 bits, sigma_1^3 sigma_2^-1 only 8, and the same with
# sigma_2 in front, where the first cut is not a split closure
@example((BraidWord(3, (1, 1, 1)), (-2,), 2))
@example((BraidWord(3, (2, 1, 1, 1)), (-2,), 2))
# the word misses index 2, which the twist supplies: split, then not
@example((BraidWord(3, (1, -1, 1)), (1, 2), 5))
# the twist misses index 3 as well: every cut is split
@example((BraidWord(4, (1, 2, -1)), (1, 2), 5))
# 64 (6 - 1) bits at the word, 72 (6 - 1) at the last: the midpoint split
# of each word
@example((UNDER, OVER.letters[-1:], 2))
@example((BraidWord(3), (1, 2), 5))
@example((BraidWord(2), (1,), 3))
def test_conway_series_equals_the_potentials_of_the_twisted_words(case):
    # the oracle takes each word's unreduced Burau matrix on its own; the
    # series takes no Burau work when every cut is a split closure, else one
    # loop over the word and the twists at the width proven at every cut, or,
    # when that width is past the direct kernel's, one midpoint split a word
    # that is not a split closure
    word, twist, count = case
    m = word.strands
    words = [BraidWord(m, word.letters + twist * j) for j in range(count)]
    want = [unreduced_burau_potential(w) for w in words]
    widths = [_proven_width(m, (w.letters,)) for w in words]
    split = [len({abs(x) for x in w.letters}) < m - 1 for w in words]
    with (patch.object(seifert, "_burau_at", wraps=seifert._burau_at) as loop,
          patch.object(seifert, "_split_determinant",
                       wraps=seifert._split_determinant) as halves):
        assert _conway_series(word, twist, count) == want, case
    if all(split):
        assert loop.call_count == halves.call_count == 0, case
    elif max(widths) * (m - 1) <= _DIRECT_BITS:
        assert loop.call_count == 1, case
        assert loop.call_args.args[2] == max(widths), case
        assert halves.call_count == 0, case
    else:
        # each midpoint split builds its two halves, and nothing else loops
        assert loop.call_count == 2 * halves.call_count, case
        assert [call.args[1] for call in halves.call_args_list] == [
            w.letters for w, s in zip(words, split) if not s], case


@settings(max_examples=200)
@given(mixed_words(1, 12, 60))
@example(BraidWord(1))
@example(BraidWord(2, (1,) * 30))
@example(BraidWord(3, (1, -2) * 30))
@example(BraidWord(6, (-5, -4, -3, -2, -1) * 6))
def test_column_norms_bound_the_burau_columns(word):
    # N_c is at least the sum of the absolute coefficients of column c, and
    # a width proven from the N_c reads the columns as a wide one does: a
    # letter at most triples a column's norm, which starts at most m - 1
    m, letters = word.strands, word.letters
    norms = _column_norms(m, (letters,))[0]
    cols = _read_back(m, letters, _byte_width((m - 1) * 3 ** len(letters)))
    assert _read_back(m, letters, _norms_width(m, letters)) == cols
    assert len(norms) == len(cols) == m - 1
    for c, (bound, col) in enumerate(zip(norms, cols)):
        assert sum(map(abs, col.values())) <= bound, (m, letters, c)


def _reduced_columns(m, letters):
    """psi_r from the oracle's unreduced columns: entry (r, c) is
    col_c[r] - col_c[m-1], as {(r, e): coefficient} a column."""
    out = []
    for col in unreduced_burau_columns(BraidWord(m, letters))[:m - 1]:
        reduced = {}
        for key, v in col.items():
            e, r = divmod(key, m)
            for row, sign in ([(r, 1)] if r < m - 1
                              else [(row, -1) for row in range(m - 1)]):
                reduced[row, e] = reduced.get((row, e), 0) + sign * v
        out.append(reduced)
    return out


def test_split_width_holds_the_difference_of_the_halves(monkeypatch):
    # the split reads both halves at one width k; every coefficient of
    # column c of psi_r(u^-1) - psi_r(v) is at most N_c(u^-1) + N_c(v) and
    # below 2^(k-1), so the balanced digits are the coefficients
    widths = []
    burau_at = seifert._burau_at
    monkeypatch.setattr(seifert, "_burau_at", lambda m, runs, k:
                        widths.append(k) or burau_at(m, runs, k))
    rng = random.Random(3232)
    for _ in range(300):
        m = rng.randint(2, 12)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, m - 1)
                        for _ in range(rng.randint(0, 60)))
        h = len(letters) // 2
        inverse, rest = tuple(-x for x in reversed(letters[:h])), letters[h:]
        widths.clear()
        _split_determinant(m, letters)
        k = widths[0]
        assert widths == [k, k], (m, letters)
        bounds = map(add, _column_norms(m, (inverse,))[0],
                     _column_norms(m, (rest,))[0])
        for c, (bound, a, b) in enumerate(zip(
                bounds, _reduced_columns(m, inverse), _reduced_columns(m, rest))):
            top = max((abs(a.get(key, 0) - b.get(key, 0))
                       for key in a.keys() | b.keys()), default=0)
            assert top <= bound and top < 2 ** (k - 1), (m, letters, c)


def test_proven_width_is_above_the_hadamard_bound():
    # every coefficient of det(I - psi_r) is at most prod(1 + N_c), and a
    # balanced digit of width K holds it only if 2^(K-1) is larger still
    rng = random.Random(3030)
    for _ in range(300):
        m = rng.randint(2, 16)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, m - 1)
                        for _ in range(rng.randint(0, 60)))
        k = _proven_width(m, (letters,))
        bound = prod(1 + n for n in _column_norms(m, (letters,))[0])
        assert k % 8 == 0 and 2 ** (k - 1) > bound, (m, letters)


def test_split_closures_take_no_burau_work(monkeypatch):
    # a word that misses a generator index closes to a split link, whose
    # potential is 0: fewer letters than generators, or longer words with
    # one index left out
    rng = random.Random(6565)
    words = []
    for _ in range(60):
        m = rng.randint(2, 16)
        words.append(BraidWord(m, tuple(
            rng.choice((1, -1)) * rng.randint(1, m - 1)
            for _ in range(rng.randint(0, m - 2)))))
        gap = rng.randint(1, m - 1)
        kept = [j for j in range(1, m) if j != gap]
        words.append(BraidWord(m, tuple(
            rng.choice((1, -1)) * rng.choice(kept)
            for _ in range(rng.randint(m, 30) if kept else 0))))
    wants = [unreduced_burau_potential(w) for w in words]
    taken = []
    for name in ("_column_norms", "_proven_width", "_direct_determinant",
                 "_split_determinant", "_burau_at"):
        work = getattr(seifert, name)
        monkeypatch.setattr(seifert, name, lambda *args, work=work, name=name:
                            taken.append(name) or work(*args))
    for w, want in zip(words, wants):
        assert want.is_zero(), (w.strands, w.letters)
        assert conway_potential(w) == want, (w.strands, w.letters)
    assert taken == []


@st.composite
def laurent_matrices(draw) -> list[list[LaurentPolynomial]]:
    """n x n, n = 1-7: negative exponents, zero entries, coefficients up to
    2^80, and a zero row or column in a third of the draws (det 0)."""
    n = draw(st.integers(1, 7))
    bound = 1 << draw(st.sampled_from((3, 20, 80)))
    entry = st.dictionaries(st.integers(-5, 5), st.integers(-bound, bound),
                            max_size=3)
    rows = [[L(draw(entry)) for _ in range(n)] for _ in range(n)]
    zero = draw(st.sampled_from(("row", "column", None)))
    if zero:
        i = draw(st.integers(0, n - 1))
        for j in range(n):
            if zero == "row":
                rows[i][j] = L.zero()
            else:
                rows[j][i] = L.zero()
    return rows


@st.composite
def block_matrices(draw) -> list[list[LaurentPolynomial]]:
    """The skein block matrices: `build_symmetrized` with s = 0-4 and j =
    0-4 (dimension s + 2j <= 12, the 0x0 matrix included), entries from
    {0, +-1, +-t, +-1/t} in the free blocks."""
    s, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.sampled_from((L.zero(), L.one(), -L.one(), L.t(1), -L.t(1),
                             L.t(-1), -L.t(-1)))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return build_symmetrized(block(s, s), block(s, 2), block(2, 2), j,
                             block(2, s))


def _as_columns(rows):
    """rows as `_packed_determinant`'s column dicts {e * (n + 1) + r: v}."""
    n = len(rows)
    cols = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for col, entry in zip(cols, row):
            for e, v in entry.items():
                col[e * (n + 1) + r] = v
    return cols


@settings(max_examples=60)
@given(st.one_of(laurent_matrices(), block_matrices()))
# coefficients of det A equal to the Hadamard bound B with bits(B) a
# multiple of 8, so they need the whole digit width bits(B) + 1
@example([[L({0: 255})]])
@example([[L({-3: -(2 ** 80 - 1)})]])
@example([[L({-2: 15}), L.zero()], [L.zero(), L({1: -17})]])
@example([[L({2: 1, 0: 1}), L({-1: 1})], [L({2: 1, 0: 1}), L({-1: 1})]])
@example([[L({4: 7})]])
def test_packed_determinant_equals_laurent_bareiss(rows):
    low, digits = _packed_determinant(_as_columns(rows))
    assert L(dict(enumerate(digits, low))) == laurent_bareiss(rows), rows


NEVER = 1 << 62


@settings(max_examples=80)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-30, 30), st.just(NEVER)),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
@example([[NEVER, 0], [NEVER, 0]])  # a zero row
# the column and row minima sum to 0, but columns 0 and 1 both have theirs
# in row 0: every choice costs at least 9
@example([[0, 9, 9], [0, 9, 9], [9, 0, 0]])
def test_lowest_shifts_solve_the_assignment_problem(lows):
    # against the least sum over all n! choices of one entry in each row and
    # column that avoid the zero entries (lows NEVER)
    n = len(lows)
    sums = [sum(lows[c][p[c]] for c in range(n))
            for p in itertools.permutations(range(n))
            if all(lows[c][p[c]] != NEVER for c in range(n))]
    shifts = _lowest_shifts(lows, NEVER)
    if not sums:
        assert shifts is None
        return
    t, s = shifts
    assert all(t[c] + s[r] <= lows[c][r] for c in range(n) for r in range(n))
    assert sum(t) + sum(s) == min(sums)


def alexander_via_burau(word: BraidWord) -> LaurentPolynomial:
    m = word.strands
    b = _unreduced_burau(word)
    # the column (1, ..., 1) is fixed; quotient out to get the reduced action
    r = [[b[i][j] - b[m - 1][j] for j in range(m - 1)] for i in range(m - 1)]
    for i in range(m - 1):
        r[i][i] = r[i][i] - L.one()
    det = laurent_bareiss(r)
    if not det:
        return det
    return exact_div(det * (L.one() - L.t(1)), L.one() - L.t(m))


def alexander_via_seifert(word: BraidWord) -> LaurentPolynomial:
    v = seifert_matrix(word).matrix
    n = len(v)
    if n == 0:
        return L.one()
    x = L.t(1)
    rows = [[L.constant(v[i][j]) - x * L.constant(v[j][i]) for j in range(n)]
            for i in range(n)]
    return laurent_bareiss(rows)


def seifert_potential(word: BraidWord) -> LaurentPolynomial:
    """det(t^-1 V - t V^T) = t^-d det(V - t^2 V^T) from the Seifert matrix."""
    d = seifert_matrix(word).dimension
    return alexander_via_seifert(word).substitute_power(2).shift(-d)


def _normalize(p: LaurentPolynomial) -> LaurentPolynomial:
    if p.is_zero():
        return p
    p = p.shift(-min(p.exponents()))
    if p[min(p.exponents())] < 0:
        p = -p
    return p


def equal_up_to_units(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    p, q = _normalize(p), _normalize(q)
    return p == q or p == _normalize(q.substitute_power(-1))


def test_burau_matches_seifert_on_random_braids():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.choice([2, 3, 4])
        length = rng.randint(1, 9)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                        for _ in range(length))
        w = BraidWord(m, letters)
        assert equal_up_to_units(alexander_via_burau(w),
                                 alexander_via_seifert(w)), letters


def test_burau_matches_seifert_on_half_twists():
    for m in (3, 4, 5):
        for n in (1, 2, 3):
            w = half_twist(m) ** n
            assert equal_up_to_units(alexander_via_burau(w),
                                     alexander_via_seifert(w)), (m, n)


def test_burau_matches_on_split_closures():
    w = BraidWord(3, (1, 1))
    assert alexander_via_burau(w).is_zero()
    assert alexander_via_seifert(w).is_zero()


@st.composite
def braid_words(draw) -> BraidWord:
    m = draw(st.integers(1, 6))
    if m == 1:
        return BraidWord(1)
    letter = st.integers(1, m - 1).flatmap(lambda j: st.sampled_from((j, -j)))
    return BraidWord(m, tuple(draw(st.lists(letter, max_size=14))))


@settings(max_examples=150)
@given(braid_words())
def test_conway_potential_equals_seifert_determinant(word):
    assert conway_potential(word) == seifert_potential(word), word.letters


def test_conway_potential_equals_seifert_on_half_twist_grid():
    # the criterion-1 grid Delta_{2k+1}^n, n <= 4, k <= 3: d <= 78
    for n in range(1, 5):
        for k in range(1, 4):
            w = half_twist(2 * k + 1) ** n
            assert seifert_matrix(w).dimension <= 80
            assert conway_potential(w) == seifert_potential(w), (n, k)


class TestUnitRule:
    """Pinned potentials for each branch of the closed-form unit."""

    def test_one_strand(self):
        assert conway_potential(BraidWord(1)) == L.one()
        assert seifert_potential(BraidWord(1)) == L.one()

    def test_two_strands_odd_exponent_sum(self):
        trefoil = BraidWord(2, (1, 1, 1))
        assert conway_potential(trefoil) == L({2: 1, 0: -1, -2: 1})
        assert conway_potential(BraidWord(2, (-1,))) == L.one()

    def test_two_strands_even_exponent_sum(self):
        assert conway_potential(BraidWord(2, (1, 1))) == L({1: 1, -1: -1})
        assert conway_potential(BraidWord(2, (-1, -1))) == L({1: -1, -1: 1})
        assert (conway_potential(BraidWord(2, (1, 1, 1, 1)))
                == L({3: 1, 1: -1, -1: 1, -3: -1}))

    def test_split_closure(self):
        w = BraidWord(4, (1, -1, 3))
        assert conway_potential(w).is_zero()
        assert seifert_potential(w).is_zero()

    def test_absent_generators(self):
        # the Seifert route stabilizes with sigma_j sigma_j^-1, Burau does not
        for w in (BraidWord(3, (2, 2)), BraidWord(5, (1, 2, -1, 4, 4))):
            # sigma_j sigma_j^-1, two letters, for each missing generator index
            missing = w.strands - 1 - len({abs(x) for x in w.letters})
            assert missing > 0
            assert (seifert_matrix(w).dimension
                    == len(w.letters) + 2 * missing - (w.strands - 1))
            assert conway_potential(w) == seifert_potential(w)


def test_potential_at_seifert_dimension_208():
    # d+1 Seifert determinants of size 208 took over a minute on this word
    w = half_twist(9) ** 6
    d = seifert_matrix(w).dimension
    assert d == 208
    omega = conway_potential(w)
    assert omega.substitute_power(-1) == omega * (-1) ** d
    assert omega.eval_at_i() == link_det(w)


def test_report_det_matches_seifert_determinant():
    rng = random.Random(41)
    for _ in range(40):
        m = rng.randint(2, 6)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, m - 1)
                        for _ in range(rng.randint(0, 16)))
        w = BraidWord(m, letters)
        assert invariants_report(w)["det"] == str(link_det(w)), letters
