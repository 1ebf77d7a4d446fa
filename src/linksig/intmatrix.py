"""Exact matrix kernels: determinants and congruence diagonalization.

Everything here is fraction-free (Bareiss, Math. Comp. 22, 1968).
`exact_determinant` is the library's one dense elimination: Bareiss on a
square integer matrix, pivoting on the first nonzero entry of each column,
for `link_det` and every Laurent determinant.  Every Kronecker substitution
(Kronecker 1882) in the library takes one packing rule: values proven to be
at most B in absolute value are packed at x = 2^k, k = `_byte_width(B)`,
and read back as balanced base-2^k digits (`_packed_digits`).
A Laurent determinant is one packed integer determinant
(`_packed_determinant`): each entry is shifted by powers of x and
evaluated at x = 2^k, with B from Hadamard's inequality.  It takes the
Laurent matrix as n sparse column dicts keyed by e * (n + 1) + r for the
power x^e in row r: the Conway potential passes the difference of its two
Burau halves, and the skein block identities a matrix of
`LaurentPolynomial` entries (`_laurent_determinant`).

Symmetric integer matrices go through `symmetric_invariants`, one sparse
symmetric elimination that gives signature, nullity and determinant
together: each pivot touches only its neighbours, which keeps the banded
Seifert forms of braid closures (dimension up to about 800, four or five
nonzeros a row) cheap.  Its working matrix is one dict per row, and the
two positions (i, j) and (j, i) of an entry hold one ``(value, stamp)``
pair, written together, so an update costs one tuple and two dict writes.
The rows with a nonzero diagonal wait on a heap, each at most once, and a
pivot row is emptied once it is used, so a stale heap entry is found by
one membership test.  A Seifert form V + V^T is built in one pass over V.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import isqrt
from typing import Mapping, Sequence

from .laurent import LaurentPolynomial

Matrix = Sequence[Sequence[int]]


def exact_determinant(m: Matrix) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination.

    The pivot of column k is its first nonzero entry in rows k..; moving it
    to row k flips the sign.  Every division is exact by Sylvester's
    identity.  A singular matrix gives 0; the 0x0 matrix gives 1.

    The zero heading the first column moves the row below it up:

    >>> exact_determinant([[0, 2, 1], [3, 1, 4], [1, 5, 9]])
    -32
    """
    a = [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (piv * row_i[j] - aik * row_k[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def _laurent_determinant(
        rows: Sequence[Sequence[LaurentPolynomial]]) -> LaurentPolynomial:
    """Determinant of a square matrix of Laurent polynomials, exactly.

    Column c is packed as one dict {e * (n + 1) + r: coefficient} for the
    entry at row r and the power t^e (``divmod`` gives back (e, r), for
    negative e too), and the n x n determinant is `_packed_determinant` of
    those columns, wrapped.  The 0x0 matrix gives 1.
    """
    n = len(rows)
    m = n + 1
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    for r, row in enumerate(rows):
        for col, entry in zip(cols, row):
            for e, v in entry.items():
                col[e * m + r] = v
    low, digits = _packed_determinant(cols)
    return LaurentPolynomial._wrap({e: x for e, x in enumerate(digits, low) if x})


def _packed_determinant(cols) -> tuple[int, list[int]]:
    """det of the n x n Laurent matrix with these n columns, exactly, as
    (low, its dense coefficients from x^low up).

    Column c is one dict {e * m + r: coefficient}, m = n + 1, for the entry
    at row r and the power x^e, with no zero coefficients.  It is taken as
    one integer determinant (Kronecker substitution): shift column c by t_c
    and row r by s_r (`_lowest_shifts`), so every exponent e - t_c - s_r is
    >= 0, pack each entry at x = 2^k straight from the dicts, and read the
    coefficients off det A(2^k) as balanced digits.  They are exact once
    every coefficient of det A has absolute value below 2^(k-1).  A
    coefficient is at most the largest |det A(z)| on |z| = 1, and by
    Hadamard's inequality that is at most sqrt(prod_c S_c), S_c the sum
    over r of |A_rc|_1^2 (or the same over rows), where |A_rc|_1 is the sum
    of the absolute coefficients of entry (r, c).  So k = `_byte_width` of
    its integer part.  The shifts keep the packed integers short: every
    power of x left in an entry costs k bits.
    """
    n = len(cols)
    m = n + 1
    never = 1 << 62  # above every exponent: the low of a zero entry
    # per column, the lowest power and the 1-norm of each row's entry
    lows = [[never] * n for _ in range(n)]
    norms = [[0] * n for _ in range(n)]
    for col, low, norm in zip(cols, lows, norms):
        for key, v in col.items():
            e, r = divmod(key, m)
            if e < low[r]:
                low[r] = e
            norm[r] += abs(v)
    shifts = _lowest_shifts(lows, never)
    if shifts is None:
        return 0, []  # every term of det A has a zero factor
    t, s = shifts
    by_cols = by_rows = 1
    for i in range(n):
        by_cols *= sum(x * x for x in norms[i])
        by_rows *= sum(norm[i] ** 2 for norm in norms)
    k = _byte_width(isqrt(min(by_cols, by_rows)))
    # the transpose, one packed list per column, has the same determinant
    packed = [[0] * n for _ in range(n)]
    for col, tc, row in zip(cols, t, packed):
        shift = [k * (tc + sr) for sr in s]
        for key, v in col.items():
            e, r = divmod(key, m)
            row[r] += v << (k * e - shift[r])
    zeros, digits = _packed_digits(exact_determinant(packed), k)
    return zeros + sum(t) + sum(s), digits


def _lowest_shifts(lows, never: int):
    """Column and row shifts t, s with t[c] + s[r] <= lows[c][r] and the
    largest sum, or None if det A is 0 for want of nonzero entries.

    lows[c][r] is the lowest power of x in entry (r, c), ``never`` if the
    entry is 0.  Every term of det A is a product of n entries, one in each
    row and column, so its lowest power is at least the least sum of their
    lows, which is the largest sum of such shifts (linear programming
    duality).  Packed with those shifts, det A(2^k) carries no zero low
    digits unless its lowest terms cancel.  The column and row minima alone
    can fall far short: on sigma_1 sigma_2 ... sigma_39 they left 190 zero
    digits of 229, and sigma_1 ... sigma_62 took 14 s instead of 0.05 s.
    So the minima only start the Hungarian method with potentials (Kuhn
    1955) in its O(n^3) form: each column in turn is assigned a row along
    a cheapest augmenting path, which is one step when the first row where
    the column is tight is free.  When the cheapest assignment takes a zero
    entry, so does every one, and det A = 0.
    """
    n, inf = len(lows), float("inf")
    t = [min(low) for low in lows]
    if never in t:
        return None  # a zero column
    s = [min(low[r] - tc for low, tc in zip(lows, t)) for r in range(n)]
    s.append(0)  # s[n] belongs to a dummy row
    owner = [n] * (n + 1)  # the column assigned to each row; n for none
    for c0 in range(n):
        owner[n], r0 = c0, n
        best, via = [inf] * n, [n] * n
        todo, done = list(range(n)), [n]
        while owner[r0] != n:
            c = owner[r0]
            low, tc, delta = lows[c], t[c], inf
            for r in todo:
                reduced = low[r] - tc - s[r]
                if reduced < best[r]:
                    best[r], via[r] = reduced, r0
                if best[r] < delta:
                    delta, r1 = best[r], r
            for r in done:
                t[owner[r]] += delta
                s[r] -= delta
            for r in todo:
                best[r] -= delta
            todo.remove(r1)
            done.append(r1)
            r0 = r1
        while r0 != n:  # flip the augmenting path
            r1 = via[r0]
            owner[r0] = owner[r1]
            r0 = r1
    if any(lows[c][r] == never for r, c in enumerate(owner[:n])):
        return None
    return t, s[:n]


def _byte_width(bound: int) -> int:
    """The least multiple of 8, k, with bound < 2^(k-1): every integer of
    absolute value at most bound is one balanced base-2^k digit."""
    return (bound.bit_length() + 8) // 8 * 8


def _packed_digits(det: int, k: int) -> tuple[int, list[int]]:
    """(zeros, digits) with det = 2^(k zeros) sum_j digits[j] 2^(k j): the
    zero low base-2^k digits stripped, the rest balanced; (0, []) for 0."""
    if not det:
        return 0, []
    zeros = ((det & -det).bit_length() - 1) // k
    det >>= k * zeros
    [digits] = _balanced_digits([det], k, abs(det).bit_length() // k + 1)
    return zeros, digits


def _balanced_digits(xs, width: int, count: int) -> list[list[int]]:
    """The count lowest balanced digits in base 2^width of each x, lowest first.

    x = sum_j d_j 2^(width j) with -2^(width-1) <= d_j < 2^(width-1), and
    width from `_byte_width`.  Adding 2^(width-1) to every digit makes them
    all nonnegative.  Then one ``to_bytes`` cuts x into chunks of at most
    16 digits, and each chunk is split by shifts: linear in count, and for
    a few digits no more than the shifts alone.  A count of 0 reads no digit.
    """
    size, half, mask = width // 8, 1 << (width - 1), (1 << width) - 1
    per = min(count, 16) or 1
    step = size * per
    whole = -(-count // per) * step  # whole chunks; the digits past count are 0
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * (whole // size), "little")
    shifts = range(0, per * width, width)
    out = []
    for x in xs:
        raw = (x + bias).to_bytes(whole, "little")
        digits = [((y >> s) & mask) - half for j in range(0, whole, step)
                  for y in [int.from_bytes(raw[j:j + step], "little")]
                  for s in shifts]
        del digits[count:]
        out.append(digits)
    return out


def symmetric_invariants(
    rows: Sequence[Mapping[int, int]],
) -> tuple[int, int, int]:
    """(signature, nullity, determinant) of a symmetric integer matrix.

    ``rows[i]`` maps column j to the entry (i, j); zero entries may be left
    out, and the rows must describe a symmetric matrix.  They are copied,
    not changed.  One fraction-free elimination over the nonzeros gives all
    three invariants:

    * the pivot a_pp is the first nonzero diagonal entry in index order,
      and it updates only the pairs (i, j) of its neighbours, to
      ``(a_pp * a_ij - a_ip * a_pj) // div`` with ``div`` the previous pivot;
    * an entry that no pivot has touched since it was written, under pivot
      ``p_s``, is read as ``stored * div // p_s``;
    * when the whole remaining diagonal is zero, row/column j is added to
      row/column i, for the first row i and its first nonzero a_ij; this
      congruence has determinant 1 and makes a_ii = 2 a_ij nonzero;
    * an empty row adds one to the nullity and is dropped.

    Every entry is a minor of the matrix (after the row additions so far)
    bordered on the pivots taken so far, so each division is exact by
    Sylvester's identity, and the entries are ``div`` times the remaining
    real quadratic form: a pivot counts positive when it has the sign of
    ``div``.  The last pivot is the determinant, 0 once the nullity is
    positive; the 0x0 matrix has determinant 1.
    """
    return _eliminate([{j: (x, 1) for j, x in row.items() if x} for row in rows])


def _symmetrized_invariants(entries, n: int) -> tuple[int, int, int]:
    """`symmetric_invariants` of V + V^T for the nonzero entries (u, w, x) of
    V, at most one per pair {u, w}; equal values share a pair, to allocate less."""
    a: list[dict] = [{} for _ in range(n)]
    pairs: dict[int, tuple[int, int]] = {}
    for u, w, x in entries:
        x = 2 * x if u == w else x
        a[u][w] = a[w][u] = pairs.get(x) or pairs.setdefault(x, (x, 1))
    return _eliminate(a)


def _eliminate(a: list[dict]) -> tuple[int, int, int]:
    """`symmetric_invariants` on its working rows: ``a[i][j] = a[j][i]`` holds
    the nonzero pair ``(stored, p_s)``, p_s = 1 on entry, and the row p popped
    from the heap is a pivot exactly when ``p in a[p]``."""
    n = len(a)
    queued = [i in row for i, row in enumerate(a)]
    heap = [i for i in range(n) if queued[i]]  # sorted, so already a heap
    left = sum(1 for row in a if row)  # rows neither pivoted nor dropped
    null = n - left
    first = 0  # every row before it is empty
    pos = neg = 0
    div = 1
    while left:
        while heap:
            p = heappop(heap)
            queued[p] = False
            if p in a[p]:
                break
        else:
            # zero diagonal: add row/column j to row/column i
            while not a[first]:
                first += 1
            i = first
            row_i = a[i]
            merged: dict[int, int] = {}
            for r in (i, min(row_i)):
                for k, (x, s) in a[r].items():
                    merged[k] = merged.get(k, 0) + (x if s == div else x * div // s)
            merged[i] *= 2  # a_ii + a_ij + a_ji + a_jj with a_ii = a_jj = 0
            for k, x in merged.items():
                if x:
                    row_i[k] = a[k][i] = (x, div)
                elif k in row_i:
                    del row_i[k], a[k][i]
            heappush(heap, i)
            queued[i] = True
            continue
        row_p = a[p]
        a[p] = {}
        left -= 1
        piv = 0
        nb: list[tuple[int, int, dict]] = []
        for k, (x, s) in row_p.items():
            if s != div:
                x = x * div // s
            if k == p:
                piv = x
            else:
                row = a[k]
                del row[p]
                nb.append((k, x, row))
        if (piv > 0) == (div > 0):
            pos += 1
        else:
            neg += 1
        for u, (k, ck, row) in enumerate(nb):
            for ell, cl, other in nb[u:]:
                e = row.get(ell)
                if e is None:
                    new = -(ck * cl) // div
                else:
                    old, s = e
                    if s != div:
                        old = old * div // s
                    new = (piv * old - ck * cl) // div
                if new:
                    row[ell] = other[k] = (new, piv)
                elif e is not None:
                    del row[ell]
                    if ell != k:
                        del other[k]
        for k, _, row in nb:
            if not row:
                left -= 1
                null += 1
            elif k in row and not queued[k]:
                heappush(heap, k)
                queued[k] = True
        div = piv
    return pos - neg, null, 0 if null else div


def signature_nullity_of_symmetric(m: Matrix) -> tuple[int, int]:
    """(signature, nullity) of a symmetric integer matrix over the reals.

    The dense matrix is checked for squareness and symmetry, then handed to
    `symmetric_invariants` as the nonzeros of its rows.
    """
    n = len(m)
    for i, row in enumerate(m):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j in range(i):
            if row[j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    sign, null, _ = symmetric_invariants(
        [{j: x for j, x in enumerate(row) if x} for row in m])
    return sign, null
