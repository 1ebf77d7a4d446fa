"""Exact integer matrix kernels: determinants and congruence diagonalization.

Everything here is fraction-free.  Determinants use Bareiss elimination;
signatures come from symmetric (two-sided) elimination whose pivots are
ratios of leading principal minors, with hyperbolic 2x2 blocks split off
when the whole remaining diagonal vanishes.  The braid computations push
matrices towards 200x200 with large intermediate minors, so all arithmetic
stays in arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def signature_nullity_of_symmetric(
    m: "Matrix | SymmetricIntMatrix",
) -> tuple[int, int]:
    """(signature, nullity) of a symmetric integer matrix over the reals.

    Pivoting policy: take nonzero diagonal pivots in index order; if the
    remaining diagonal is entirely zero, a nonzero row yields a hyperbolic
    2x2 block contributing (+1, -1) to the sign counts, and an all-zero row
    contributes to the nullity.
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
    pos = neg = null = 0
    # invariant: a == c * (remaining real quadratic form) for some rational
    # c with sign(c) == c_sign, and every entry of a is a minor of the matrix
    # left after the last hyperbolic split, bordered on the pivots taken
    # since (Bareiss).  Symmetric swaps and zero-row drops keep that true,
    # so by Sylvester's identity each division by the previous pivot `div`
    # is exact; a split starts a new chain with div = 1.
    c_sign = 1
    div = 1
    while a:
        k = len(a)
        # nonzero diagonal pivot, in index order
        d = next((i for i in range(k) if a[i][i] != 0), None)
        if d is not None:
            if d != 0:
                a[0], a[d] = a[d], a[0]
                for row in a:
                    row[0], row[d] = row[d], row[0]
            piv = a[0][0]
            if (piv > 0) == (c_sign > 0):
                pos += 1
            else:
                neg += 1
            a_0 = a[0]
            a = [[(piv * a_i[j] - a_i[0] * a_0[j]) // div for j in range(1, k)]
                 for a_i in a[1:]]
            c_sign = c_sign * (1 if piv > 0 else -1) * (1 if div > 0 else -1)
            div = piv
            continue
        # diagonal is all zero: drop zero rows, else split a hyperbolic pair
        zero_row = next(
            (i for i in range(k) if all(a[i][j] == 0 for j in range(k))), None
        )
        if zero_row is not None:
            null += 1
            del a[zero_row]
            for row in a:
                del row[zero_row]
            continue
        i0 = next(i for i in range(k) if any(a[i][j] != 0 for j in range(k)))
        j0 = next(j for j in range(k) if a[i0][j] != 0)
        b = a[i0][j0]
        pos += 1
        neg += 1
        keep = [r for r in range(k) if r not in (i0, j0)]
        a = [
            [
                b * a[r][s] - a[r][i0] * a[j0][s] - a[r][j0] * a[i0][s]
                for s in keep
            ]
            for r in keep
        ]
        c_sign = c_sign * (1 if b > 0 else -1)
        div = 1
    return pos - neg, null
