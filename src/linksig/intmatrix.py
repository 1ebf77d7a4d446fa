"""Exact matrix kernels: determinants and congruence diagonalization.

Everything here is fraction-free (Bareiss, Math. Comp. 22, 1968).
`exact_determinant` is the library's one dense elimination: Bareiss on a
square matrix over any exact ring, the integers for the cyclic skein
systems, `link_det` and the Conway potential (its polynomial entries
packed into integers at x = 2^k), and Laurent polynomials for the skein
block identities.  Its pivot in column k is the nonzero
entry with the fewest terms, the first of them in row order: ``len(x)``
counts the terms of a ring element, and an int counts as one, so an
integer matrix pivots on the first nonzero entry.  Over Laurent
polynomials a sparse pivot keeps the products of each step and the exact
divisions by that pivot in the next step small.

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
from typing import Mapping, Sequence

Matrix = Sequence[Sequence[int]]


def exact_determinant(m: Sequence[Sequence]):
    """Determinant of a square matrix over an exact ring, by Bareiss elimination.

    The entries may be integers or any ring elements with ``+``, ``-``,
    ``*``, an exact ``//``, truthiness meaning nonzero and ``len`` counting
    terms, such as `LaurentPolynomial`.  The pivot of column k is its
    nonzero entry in rows k.. with the fewest terms (an int counts as one
    term), the first such in row order; moving it to row k flips the sign.
    Every division is exact by Sylvester's identity.  A singular matrix
    gives the ring's own zero; the 0x0 matrix gives 1.

    The dense entry 1 + t + t^2 heads the first column, so the monomial t
    below it is the pivot:

    >>> from linksig.laurent import LaurentPolynomial
    >>> t = LaurentPolynomial.t()
    >>> print(exact_determinant([[1 + t + t * t, t], [t, 1 + t]]))
    + t^3 + t^2 + 2*t + 1
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
        p = fewest = 0
        for i in range(k, n):
            x = a[i][k]
            if x:
                size = 1 if isinstance(x, int) else len(x)
                if not fewest or size < fewest:
                    p, fewest = i, size
                    if size == 1:
                        break
        if not fewest:
            return a[k][k]
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        row_k = a[k]
        divide = prev != 1  # skip x // 1, which is all of the first step
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if aik:
                for j in range(k + 1, n):
                    x = piv * row_i[j] - aik * row_k[j]
                    row_i[j] = x // prev if divide else x
            else:
                # still rescale so every entry stays an exact minor
                for j in range(k + 1, n):
                    x = piv * row_i[j]
                    row_i[j] = x // prev if divide else x
        prev = piv
    return sign * a[n - 1][n - 1]


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
