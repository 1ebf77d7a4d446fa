"""Exact integer matrix kernels: determinants and congruence diagonalization.

Everything here is fraction-free (Bareiss, Math. Comp. 22, 1968).
`exact_determinant` is dense Bareiss elimination of a general square matrix.
Symmetric matrices go through `symmetric_invariants`, one sparse symmetric
elimination that gives signature, nullity and determinant together: each
pivot touches only its neighbours, which keeps the banded Seifert forms of
braid closures (dimension up to about 800, four or five nonzeros a row)
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Mapping, Sequence

Matrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class SymmetricIntMatrix:
    """A symmetric square integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        object.__setattr__(self, "entries", rows)

    @property
    def dimension(self) -> int:
        return len(self.entries)


def _as_rows(m: "Matrix | SymmetricIntMatrix") -> list[list[int]]:
    if isinstance(m, SymmetricIntMatrix):
        m = m.entries
    return [list(row) for row in m]


def exact_determinant(m: "Matrix | SymmetricIntMatrix") -> int:
    """Determinant by fraction-free Bareiss elimination.

    The determinant of the 0x0 matrix is 1.
    """
    a = _as_rows(m)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            if aik == 0:
                # still rescale so every entry stays an exact minor
                for j in range(k + 1, n):
                    row_i[j] = (piv * row_i[j]) // prev
            else:
                for j in range(k + 1, n):
                    row_i[j] = (piv * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def symmetric_invariants(
    rows: Sequence[Mapping[int, int]],
) -> tuple[int, int, int]:
    """(signature, nullity, determinant) of a symmetric integer matrix.

    ``rows[i]`` maps column j to the entry (i, j); zero entries may be left
    out, and the rows must describe a symmetric matrix.  One fraction-free
    elimination over the nonzeros gives all three invariants:

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
    n = len(rows)
    val = [{j: x for j, x in row.items() if x} for row in rows]
    # the value of div under which each entry was last written
    at = [dict.fromkeys(row, 1) for row in val]
    alive = {i for i in range(n) if val[i]}
    null = n - len(alive)
    heap = [i for i in range(n) if i in val[i]]
    pos = neg = 0
    div = 1
    while alive:
        while heap and (heap[0] not in alive or heap[0] not in val[heap[0]]):
            heappop(heap)
        if not heap:
            # zero diagonal: add row/column j to row/column i
            i = min(alive)
            j = min(val[i])
            merged: dict[int, int] = {}
            for r in (i, j):
                stamps = at[r]
                for k, x in val[r].items():
                    s = stamps[k]
                    merged[k] = merged.get(k, 0) + (x if s == div else x * div // s)
            merged[i] *= 2  # a_ii + a_ij + a_ji + a_jj with a_ii = a_jj = 0
            row, stamps = val[i], at[i]
            for k, x in merged.items():
                if x:
                    row[k] = val[k][i] = x
                    stamps[k] = at[k][i] = div
                elif k in row:
                    del row[k], val[k][i], stamps[k], at[k][i]
            heappush(heap, i)
            continue
        p = heappop(heap)
        alive.remove(p)
        stamps = at[p]
        piv = 0
        nb: list[tuple[int, int]] = []
        for k, x in val[p].items():
            s = stamps[k]
            if s != div:
                x = x * div // s
            if k == p:
                piv = x
            else:
                nb.append((k, x))
                del val[k][p], at[k][p]
        if (piv > 0) == (div > 0):
            pos += 1
        else:
            neg += 1
        for u, (k, ck) in enumerate(nb):
            row, stamps = val[k], at[k]
            for ell, cl in nb[u:]:
                old = row.get(ell)
                if old is None:
                    new = -(ck * cl) // div
                else:
                    s = stamps[ell]
                    if s != div:
                        old = old * div // s
                    new = (piv * old - ck * cl) // div
                if new:
                    row[ell] = val[ell][k] = new
                    stamps[ell] = at[ell][k] = piv
                elif old is not None:
                    del row[ell], stamps[ell]
                    if ell != k:
                        del val[ell][k], at[ell][k]
        for k, _ in nb:
            if not val[k]:
                alive.remove(k)
                null += 1
            elif k in val[k]:
                heappush(heap, k)
        div = piv
    return pos - neg, null, 0 if null else div


def signature_nullity_of_symmetric(
    m: "Matrix | SymmetricIntMatrix",
) -> tuple[int, int]:
    """(signature, nullity) of a symmetric integer matrix over the reals.

    A dense matrix is checked for squareness and symmetry, then handed to
    `symmetric_invariants` as the nonzeros of its rows.
    """
    a = _as_rows(m)
    n = len(a)
    if not isinstance(m, SymmetricIntMatrix):
        for i in range(n):
            if len(a[i]) != n:
                raise ValueError("matrix is not square")
            for j in range(i):
                if a[i][j] != a[j][i]:
                    raise ValueError("matrix is not symmetric")
    sign, null, _ = symmetric_invariants(
        [{j: x for j, x in enumerate(row) if x} for row in a])
    return sign, null
