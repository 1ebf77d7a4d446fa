"""Independent routes the tests check the library kernels against.

None of these is used by the library itself: each is slower, or only
correct for small inputs, and exists so that an exact kernel has a second
computation to agree with.
"""

from __future__ import annotations

from fractions import Fraction


def cofactor_determinant(m) -> int:
    """Naive cofactor expansion; an independent oracle for small matrices."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    rest = m[1:]
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rest]
        term = m[0][j] * cofactor_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


def rational_signature(m) -> tuple[int, int]:
    """(signature, nullity) by two-sided LDL^T elimination over the rationals.

    A nonzero diagonal entry is a 1x1 pivot.  When the whole remaining
    diagonal vanishes, a nonzero entry b at (i, j) spans a hyperbolic plane
    [[0, b], [b, 0]], which adds one positive and one negative square.  An
    all-zero remainder is the kernel.
    """
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = null = 0
    while a:
        k = len(a)
        d = next((i for i in range(k) if a[i][i] != 0), None)
        if d is not None:
            piv = a[d][d]
            if piv > 0:
                pos += 1
            else:
                neg += 1
            rest = [r for r in range(k) if r != d]
            a = [[a[r][s] - a[r][d] * a[d][s] / piv for s in rest]
                 for r in rest]
            continue
        pair = next(((i, j) for i in range(k) for j in range(k) if a[i][j]),
                    None)
        if pair is None:
            null += k
            break
        i, j = pair
        b = a[i][j]
        pos += 1
        neg += 1
        keep = [r for r in range(k) if r not in (i, j)]
        a = [[a[r][s] - (a[r][i] * a[j][s] + a[r][j] * a[i][s]) / b
              for s in keep] for r in keep]
    return pos - neg, null


def random_unimodular(dim: int, rng, max_entry: int = 3, steps: int = 12):
    """A random integer matrix of determinant +-1 (product of shears/swaps)."""
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-max_entry, max_entry)
        for col in range(dim):
            m[i][col] += c * m[j][col]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def congruence(u, m) -> list[list[int]]:
    """u^T m u for integer matrices."""
    n = len(m)
    mu = [[sum(m[i][k] * u[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(u[k][i] * mu[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
