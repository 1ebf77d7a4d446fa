"""Independent routes the tests check the library kernels against.

None of these is used by the library itself: each is slower, or only
correct for small inputs, and exists so that an exact kernel has a second
computation to agree with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


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


def leibniz_determinant(m):
    """The permutation sum of sign(p) * m[0][p(0)] * ... * m[n-1][p(n-1)].

    Over any commutative ring, with no division and no pivot; for n up to
    about 6.  The 0x0 matrix has the one empty permutation and gives 1.
    """
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            term = m[i][perm[i]] * term
        total = total + term
    return total


def exact_div(num, den):
    """The exact quotient num / den in Z[t, t^-1], by sparse long division.

    den may be a `LaurentPolynomial` or an int.  Each step cancels the top
    term of the remainder, so it works on sparse polynomials of any degree
    span, where the library divides densely by t^a - 1 alone.  Raises
    ExactDivisionError if the division leaves a remainder or a non-integer
    coefficient.
    """
    from linksig.laurent import ExactDivisionError, LaurentPolynomial

    divisor = dict(den.items()) if isinstance(den, LaurentPolynomial) else (
        {0: den} if den else {})
    if not divisor:
        raise ZeroDivisionError("Laurent polynomial division by zero")
    rem = dict(num.items())
    if not rem:
        return LaurentPolynomial()
    lead = max(divisor)
    lead_c = divisor[lead]
    # quotient exponents of an exact division lie in this window
    low = min(rem) - min(divisor)
    quot: dict[int, int] = {}
    # each step cancels rem[top] and adds only exponents below it, so the
    # leading exponent falls strictly and each qe comes up once
    while rem:
        top = max(rem)
        c = rem[top]
        qe = top - lead
        if qe < low or c % lead_c:
            raise ExactDivisionError("division leaves a remainder")
        q = c // lead_c
        quot[qe] = q
        for e, dc in divisor.items():
            ne = e + qe
            v = rem.get(ne, 0) - q * dc
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return LaurentPolynomial(quot)


def laurent_bareiss(m):
    """Bareiss elimination over Laurent polynomials, with `exact_div`.

    The library takes a Laurent determinant as one packed integer
    determinant (`intmatrix._laurent_determinant`); this is the direct
    route.  The pivot of column k is its nonzero entry in rows k.. with the
    fewest terms (an int counts as one), the first such in row order, which
    keeps the products of each step and the divisions by that pivot in the
    next small; moving it to row k flips the sign.  Every division is exact
    by Sylvester's identity, and none is by 1.  A singular matrix gives the
    ring's own zero; the 0x0 matrix gives 1.
    """
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        p = fewest = 0
        for i in range(k, n):
            x = a[i][k]
            if x:
                size = 1 if isinstance(x, int) else len(x.exponents())
                if not fewest or size < fewest:
                    p, fewest = i, size
        if not fewest:
            return a[k][k]
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                x = piv * row_i[j] - aik * row_k[j]
                row_i[j] = x if prev == 1 else exact_div(x, prev)
        prev = piv
    return sign * a[n - 1][n - 1]


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
            # a row with a[r][d] = 0 is unchanged: skip its zero updates
            a = [[a[r][s] - a[r][d] * a[d][s] / piv for s in rest]
                 if a[r][d] else [a[r][s] for s in rest] for r in rest]
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
              for s in keep] if a[r][i] or a[r][j] else [a[r][s] for s in keep]
             for r in keep]
    return pos - neg, null


def free_reduce(letters) -> tuple[int, ...]:
    """Braid letters with adjacent sigma_j sigma_j^-1 pairs cancelled until
    none remain (one stack pass)."""
    stack: list[int] = []
    for ell in letters:
        if stack and stack[-1] == -ell:
            stack.pop()
        else:
            stack.append(ell)
    return tuple(stack)


def pointwise_letters(strands: int, letters) -> tuple[int, ...]:
    """The letters `BraidWord(strands, letters)` keeps, checked one by one.

    A tuple of exact ints is kept as given; anything else is converted by
    int() letter by letter.  The first letter outside +-1..+-(strands - 1)
    is refused by name.
    """
    if strands < 1:
        raise ValueError("strand count must be >= 1")
    if type(letters) is not tuple or not all(type(x) is int for x in letters):
        letters = tuple([int(x) for x in letters])
    for ell in letters:
        if ell == 0 or not 1 <= abs(ell) <= strands - 1:
            raise ValueError(f"letter {ell} out of range for {strands} strands")
    return letters


def product_half_twist(k: int, strands: int | None = None):
    """Delta_k as the product pi_{1,k-1} pi_{1,k-2} ... pi_{1,2} sigma_1,
    one `BraidWord` product per factor (O(k^3) letter checks)."""
    from linksig.braid import BraidWord, pi_word

    m = strands if strands is not None else k
    if k < 1 or k > m:
        raise ValueError("half twist index out of range")
    if k == 1:
        return BraidWord(m)
    word = BraidWord(m)
    for top in range(k - 1, 1, -1):
        word = word * pi_word(1, top, m)
    return word * BraidWord(m, (1,))


def product_tau_word(k: int, l: int, strands: int):
    """The mixed block pi_{l,k+1}^-1 pi_{k,l-1} (resp. pi_{l,k-1}^-1
    pi_{k,l+1}) as the product of an inverted `pi_word` and a `pi_word`."""
    from linksig.braid import BraidWord, pi_word

    if k == l:
        return BraidWord(strands)
    if k < l:
        return pi_word(l, k + 1, strands).inverse() * pi_word(k, l - 1, strands)
    return pi_word(l, k - 1, strands).inverse() * pi_word(k, l + 1, strands)


def product_family_word(p, lo: int, hi: int):
    """A jump-block family word as a product of blocks: for odd j the block
    sigma_lo^-alpha_j tau_{lo,hi}, for even j sigma_hi^-alpha_j tau_{hi,lo},
    with both mixed blocks built by `product_tau_word`, then the
    product-built half twist on 2k+1 strands to the n-th power."""
    from linksig.braid import BraidWord

    m = p.strands
    word = BraidWord(m)
    for j, alpha in enumerate(p.alphas, start=1):
        if j % 2 == 1:
            block = BraidWord(m, (-lo,) * alpha) * product_tau_word(lo, hi, m)
        else:
            block = BraidWord(m, (-hi,) * alpha) * product_tau_word(hi, lo, m)
        word = word * block
    return word * (product_half_twist(m, m) ** p.n)


def unreduced_burau_columns(word) -> list[dict[int, int]]:
    """Columns of the unreduced m x m Burau matrix of the word, in x.

    Column c is one sparse dict {e * m + r: coefficient} for row r,
    0 <= r < m, and the power x^e, built from the identity one letter at a
    time.  Each new column is a fresh sum of the old ones (`_combine`), so
    this route shares no helper with the library's column build.
    """
    m = word.strands
    cols = [{c: 1} for c in range(m)]
    for ell in word.letters:
        i = abs(ell) - 1
        a, b = cols[i], cols[i + 1]
        if ell > 0:
            # col_i <- (1-x) col_i + col_{i+1},  col_{i+1} <- x col_i
            s = {k + m: v for k, v in a.items()}
            cols[i], cols[i + 1] = _combine((a, 1), (s, -1), (b, 1)), s
        else:
            # col_i <- x^-1 col_{i+1},  col_{i+1} <- col_i + (1-x^-1) col_{i+1}
            s = {k - m: v for k, v in b.items()}
            cols[i], cols[i + 1] = s, _combine((a, 1), (b, 1), (s, -1))
    return cols


def _combine(*terms) -> dict[int, int]:
    """sum of sign * d over the (d, sign) terms, as a new dict with no zeros."""
    out: dict[int, int] = {}
    for d, sign in terms:
        for k, v in d.items():
            out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def unreduced_burau_potential(word):
    """The Conway potential from the unreduced Burau columns: entry (r, c)
    of I - psi_r is delta_rc - col_c[r] + col_c[m-1], row m - 1 of the
    unreduced matrix added into every row.  The unit (-t)^k, k = m - 1 - e
    for the exponent sum e, is the closed form of `seifert._unit_power`,
    written out here so that the oracle calls nothing of the Burau route."""
    from linksig.laurent import LaurentPolynomial

    m = word.strands
    if m == 1:
        return LaurentPolynomial.one()
    rows = [[{0: 1} if r == c else {} for c in range(m - 1)] for r in range(m - 1)]
    for c, col in enumerate(unreduced_burau_columns(word)[:m - 1]):
        for key, v in col.items():
            e, r = divmod(key, m)
            targets, v = (rows, v) if r == m - 1 else ((rows[r],), -v)
            for row in targets:
                row[c][e] = row[c].get(e, 0) + v
    det = laurent_bareiss([[LaurentPolynomial(p) for p in row] for row in rows])
    if not det:
        return det
    alexander = exact_div(det, LaurentPolynomial({j: 1 for j in range(m)}))
    k = m - 1 - word.exponent_sum()
    omega = alexander.substitute_power(2).shift(k)
    return -omega if k % 2 else omega


def dense_seifert_matrix(word) -> list[list[int]]:
    """The Seifert matrix V of a closed braid by scanning all pairs of cycles.

    Same surface, basis and cycle order as `linksig.seifert.seifert_matrix`,
    but every pair of cycles on adjacent generator indices is tested for
    interleaving, O(d^2), where the library bisects.
    """
    from linksig.seifert import stabilize_letters

    letters = stabilize_letters(word)
    signs = [1 if x > 0 else -1 for x in letters]
    positions: dict[int, list[int]] = {}
    for pos, ell in enumerate(letters):
        positions.setdefault(abs(ell), []).append(pos)
    cycles = sorted(((idx, a, b) for idx, ps in positions.items()
                     for a, b in zip(ps, ps[1:])), key=lambda c: (c[1], c[0]))
    where = {c: u for u, c in enumerate(cycles)}
    n = len(cycles)
    v = [[0] * n for _ in range(n)]
    for u, (idx, a, b) in enumerate(cycles):
        v[u][u] = -(signs[a] + signs[b]) // 2
    for idx, ps in positions.items():
        for a, b, c in zip(ps, ps[1:], ps[2:]):
            u, w = where[(idx, a, b)], where[(idx, b, c)]
            v[u][w] = (signs[b] + 1) // 2
            v[w][u] = (signs[b] - 1) // 2
    for u, (idx, a, b) in enumerate(cycles):
        for w, (jdx, c, d) in enumerate(cycles):
            if jdx == idx + 1 and a < c < b < d:
                v[w][u] = 1
            elif jdx == idx + 1 and c < a < d < b:
                v[w][u] = -1
    return v


def goeritz_invariants(word, parity: int):
    """(Sign, Null, det) of the closure from a Goeritz matrix (Gordon-Litherland).

    The braid closure is drawn on an annulus; gap g lies between strands g
    and g + 1, so gap 0 is the inner disk and gap m the outer region, and
    the crossings of the letters on index g cut gap g into pieces.  The
    regions in the gaps g = parity (mod 2) are white.  A letter e*g on a
    white gap joins the pieces before and after it with eta = -e; one on a
    dark gap joins the current pieces of gaps g - 1 and g + 1 with
    eta = +e.  G_ij = -sum eta over the joins of regions i != j, the row
    sums vanish, and one region is deleted.  Then
    Sign = sign(G) - (exponent sum of the letters on dark gaps),
    Null = null(G) and Omega(i) = i^-Sign |det G|, or 0 when Null > 0.
    Neither Seifert matrix nor `intmatrix` elimination of a symmetric form
    is used: the signature is `rational_signature`'s.
    """
    from linksig.gaussian import GaussianInteger, i_power
    from linksig.intmatrix import exact_determinant
    from linksig.seifert import stabilize_letters

    m, letters = word.strands, stabilize_letters(word)
    cuts = [0] * (m + 1)  # crossings on each gap
    for x in letters:
        cuts[abs(x)] += 1
    first, regions = {}, 0  # the region number of piece 0 of each white gap
    for g in range(parity, m + 1, 2):
        first[g] = regions
        regions += max(cuts[g], 1)
    g_matrix = [[0] * regions for _ in range(regions)]
    seen = [0] * (m + 1)  # crossings passed on each gap

    def region(g: int, piece: int) -> int:
        return first[g] + piece % max(cuts[g], 1)

    dark = 0
    for x in letters:
        g, e = abs(x), 1 if x > 0 else -1
        if g % 2 == parity:
            a, b, eta = region(g, seen[g]), region(g, seen[g] + 1), -e
        else:
            a, b, eta = region(g - 1, seen[g - 1]), region(g + 1, seen[g + 1]), e
            dark += e
        seen[g] += 1
        if a != b:
            for i, j in ((a, b), (b, a)):
                g_matrix[i][j] -= eta
                g_matrix[i][i] += eta
    reduced = [row[1:] for row in g_matrix[1:]]
    sign, null = rational_signature(reduced)
    sign -= dark
    if null:
        return sign, null, GaussianInteger(0, 0)
    return sign, null, i_power(-sign) * abs(exact_determinant(reduced))


def symmetric_rows(data) -> list[dict[int, int]]:
    """The nonzeros of V + V^T, row by row, for a `SeifertData` V.

    No pair of cycles has entries on both sides of the diagonal, so each
    entry of V gives its two entries of V + V^T as they are.
    """
    rows: list[dict[int, int]] = [{} for _ in range(data.dimension)]
    for u, w, x in data.nonzeros:
        if u == w:
            rows[u][u] = 2 * x
        else:
            rows[u][w] = rows[w][u] = x
    return rows


def seifert_link_det(word):
    """The link determinant from one sparse elimination of the Seifert form.

    At t = i the potential's matrix collapses, t^-1 V - t V^T = -i (V + V^T),
    so Omega(i) = (-i)^d det(V + V^T) for the Seifert dimension d, where
    `linksig.seifert.link_det` takes the integer Burau matrix at x = -1.
    The rows of V + V^T come from `symmetric_rows` and go through the
    public `symmetric_invariants`.
    """
    from linksig.gaussian import i_power
    from linksig.intmatrix import symmetric_invariants
    from linksig.seifert import seifert_matrix

    data = seifert_matrix(word)
    return i_power(-data.dimension) * symmetric_invariants(symmetric_rows(data))[2]


def list_link_det(word):
    """`linksig.seifert.link_det` with each Burau column a list of m ints.

    The letters act at x = -1 entry by entry: a positive letter on index i
    sets col_i <- 2 col_i + col_{i+1} and col_{i+1} <- -col_i, a negative
    one col_i <- -col_{i+1} and col_{i+1} <- col_i + 2 col_{i+1}, where the
    library keeps each column as one packed integer.  The stabilization for
    even m, the determinant and the unit are the library's.
    """
    from linksig.gaussian import i_power
    from linksig.intmatrix import exact_determinant
    from linksig.seifert import _unit_power

    m, letters = word.strands, word.letters
    if m % 2 == 0:
        m, letters = m + 1, letters + (m,)
    cols = [[int(r == c) for r in range(m)] for c in range(m)]
    for ell in letters:
        if ell > 0:
            a, b = cols[ell - 1], cols[ell]
            cols[ell - 1] = [2 * x + y for x, y in zip(a, b)]
            cols[ell] = [-x for x in a]
        else:
            a, b = cols[-ell - 1], cols[-ell]
            cols[-ell - 1] = [-y for y in b]
            cols[-ell] = [x + 2 * y for x, y in zip(a, b)]
    det = exact_determinant([[int(r == c) - col[r] + col[-1]
                              for c, col in enumerate(cols[:-1])]
                             for r in range(m - 1)])
    return i_power(-_unit_power(word)) * det


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


def band_step_constraint(delta_null: int, delta_sign: int) -> bool:
    """One band attachment moves (Null, Sign) by exactly one unit in total."""
    return abs(delta_null) + abs(delta_sign) == 1


def check_skein_axioms(seq) -> bool:
    """Cyclic symmetry and the two-step reduction of a skein system, symbolically.

    Multilinearity holds by construction of `MultilinearCyclicPoly`.
    """
    from linksig.skeinpoly import axiom_iii_holds

    if not all(f.is_cyclic() for f in seq):
        return False
    for prev, cur in zip(seq, seq[1:]):
        if cur.arity != prev.arity + 2:
            raise ValueError("consecutive arities must differ by 2")
        if not axiom_iii_holds(cur, prev):
            return False
    return True


def flipped_scheme(s):
    """The degree-nine scheme with every orientation reversed."""
    from linksig.prohibit import Degree9Scheme

    return Degree9Scheme(s.alpha_minus, s.alpha_plus, s.beta_minus, s.beta_plus,
                         s.gamma_minus, s.gamma_plus, -s.eps1, -s.eps2)


def deg9_formulas_up_to_flip(s) -> dict:
    """The degree-nine sieves, insensitive to the global orientation choice."""
    from linksig.prohibit import deg9_formulas

    a = deg9_formulas(s)
    b = deg9_formulas(flipped_scheme(s))
    return {
        "rm7": a["rm7"] or b["rm7"],
        "orient8": a["orient8"] or b["orient8"],
        "ineq10": a["ineq10"],  # already flip-invariant
    }


def curve_hypotheses_hold(n: int, k: int, J, lam: int) -> bool:
    """The deep-nest hypotheses written out: lambda > J > 0 and J = n (mod 2)
    for a given J, and k = 1 whenever 4 divides n."""
    if J is not None and not (lam > J > 0 and (J - n) % 2 == 0):
        return False
    return n % 4 != 0 or k == 1


def jump_slacks(n: int, k: int, r: int, J: int, lam_odd: int,
                lam_even: int) -> tuple[int, int]:
    """The two jump inequalities at one J, as right side minus left side.

    r + 2 lambda_odd + x - |n k^2 - 3k + 1 - r - J + eps|, and the same with
    lambda_even and eps'; x = k - 1 for odd n and 2(k - 1) for even n,
    eps = (1 + (-1)^k)/2 Re i^(n-1), eps' = (1 - 3(-1)^k)/2 Re i^(n-1).
    """
    re = (1, 0, -1, 0)[(n - 1) % 4]
    eps = (1 + (-1) ** k) // 2 * re
    eps_prime = (1 - 3 * (-1) ** k) // 2 * re
    extra = k - 1 if n % 2 else 2 * (k - 1)
    centre = n * k * k - 3 * k + 1 - r - J
    return (r + 2 * lam_odd + extra - abs(centre + eps),
            r + 2 * lam_even + extra - abs(centre + eps_prime))


def feasible_jumps(n: int, k: int, r: int, lam: int, lam_odd: int,
                   lam_even: int, need: int) -> list[int]:
    """Every J with lambda > J > 0, J = n (mod 2) and J >= need at which
    both jump inequalities hold."""
    return [j for j in range(1, lam)
            if (j - n) % 2 == 0 and j >= need
            and min(jump_slacks(n, k, r, j, lam_odd, lam_even)) >= 0]


def banded_matrix(j: int, sign: int, xs) -> list[list[int]]:
    """-2 diag(x) + off-diagonal band of ones +- ones in the corners.

    For j == 2 the band and the corner coincide, giving off-diagonal
    entries 2 and 0 for the two signs.
    """
    if j < 1:
        raise ValueError("arity must be positive")
    if len(xs) != j:
        raise ValueError("need exactly j entries")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    m = [[0] * j for _ in range(j)]
    for idx in range(j):
        m[idx][idx] = -2 * xs[idx]
    for idx in range(j - 1):
        m[idx][idx + 1] += 1
        m[idx + 1][idx] += 1
    if j == 1:
        m[0][0] += 2 * sign
    else:
        m[0][j - 1] += sign
        m[j - 1][0] += sign
    return m


def A_matrix_det(j: int, sign: int, xs) -> int:
    """det A_J^+- by dense Bareiss, where the library takes the trace of a
    2x2 transfer product."""
    from linksig.intmatrix import exact_determinant

    return exact_determinant(banded_matrix(j, sign, list(xs)))


def A_matrix_det_symbolic(j: int, sign: int):
    """det A_J^+- as a multilinear polynomial in x_1..x_J.

    Splitting the matrix into diagonal and constant band, the coefficient of
    the monomial over S is (-2)^|S| times the complementary principal minor
    of the band part.
    """
    from itertools import combinations

    from linksig.gaussian import GaussianInteger
    from linksig.intmatrix import exact_determinant
    from linksig.skeinpoly import MultilinearCyclicPoly

    band = banded_matrix(j, sign, [0] * j)
    data = {}
    for size in range(j + 1):
        for subset in combinations(range(j), size):
            rest = [r for r in range(j) if r not in subset]
            minor = [[band[r][c] for c in rest] for r in rest]
            coeff = (-2) ** size * exact_determinant(minor)
            if coeff:
                data[frozenset(v + 1 for v in subset)] = GaussianInteger(coeff, 0)
    return MultilinearCyclicPoly.from_dict(j, data)


def reconstruct_by_subset_sums(spec, j: int):
    """The multilinear polynomial pinned by a skein spec, with no checks.

    Each coefficient is the Moebius inversion over the subsets of its
    monomial, sum over T in S of (-1)^(|S|-|T|) f(1_T): 3^J vertex
    evaluations, each a fresh recursion through the reduction, where
    `linksig.skeinpoly.reconstruct_from_initial` evaluates the 2^J vertices
    once and runs the fast transform.
    """
    from itertools import combinations

    from linksig.gaussian import GaussianInteger
    from linksig.skeinpoly import MultilinearCyclicPoly

    def value(xs: tuple[int, ...]) -> GaussianInteger:
        arity = len(xs)
        if arity == 1:
            return spec.c0 + (spec.all_ones(1) - spec.c0) * xs[0]
        if arity == 2:
            b = spec.c1 - spec.c0
            quad = spec.all_ones(2) - spec.c1 - b
            return spec.c0 + b * (xs[0] + xs[1]) + quad * (xs[0] * xs[1])
        if all(x == 1 for x in xs):
            return spec.all_ones(arity)
        if 0 in xs:
            pos = xs.index(0)
            rot = tuple(xs[(pos - 1 + t) % arity] for t in range(arity))
            return value((rot[0] + rot[2],) + rot[3:])
        pos = next(t for t in range(arity) if xs[t] not in (0, 1))
        f0 = value(xs[:pos] + (0,) + xs[pos + 1:])
        f1 = value(xs[:pos] + (1,) + xs[pos + 1:])
        return f0 + (f1 - f0) * xs[pos]

    data = {}
    for size in range(j + 1):
        for subset in combinations(range(1, j + 1), size):
            total = GaussianInteger(0, 0)
            for inner_size in range(size + 1):
                for inner in combinations(subset, inner_size):
                    term = value(tuple(int(t + 1 in inner) for t in range(j)))
                    total = total + (-term if (size - inner_size) % 2 else term)
            data[frozenset(subset)] = total
    return MultilinearCyclicPoly.from_dict(j, data)


def path_linking_ell(diagram, i: int, j: int) -> int:
    """`SpliceDiagram.linking_ell` from the i-j path found by a search.

    The path is read back from the search tree rooted at i; each node on it
    multiplies in its weights on the edges to vertices not next to it on
    the path.  The adjacency comes from `to_json`, not from the library's
    own tables.
    """
    weights: dict[int, dict] = {v: {} for v in diagram.vertex_ids()}
    for e in diagram.to_json()["edges"]:
        weights[e["a"]][e["b"]] = e.get("weight_at_a")
        weights[e["b"]][e["a"]] = e.get("weight_at_b")
    parent = {i: None}
    stack = [i]
    while stack:
        v = stack.pop()
        for u in weights[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    path = [j]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    product = 1
    for pos, v in enumerate(path):
        if len(weights[v]) >= 3:
            near = path[max(pos - 1, 0):pos + 2]
            for u, w in weights[v].items():
                if u not in near:
                    product *= w
    return product


def expanded_omega(fp):
    """`FactorProduct.omega` by expanding the multivariable product first.

    The product, times the prefactor x_1 - x_1^-1 that makes it a Laurent
    polynomial for one variable too, is multiplied out and divided as an
    honest Laurent polynomial in the n variables, each division by
    x^v - x^-v exact under lexicographic leading terms, and only then
    collapsed onto the diagonal t_1 = ... = t_n = t, where `linksig.splice`
    never leaves one variable.
    """
    from linksig.laurent import LaurentPolynomial

    if fp.sign == 0:
        return LaurentPolynomial.zero()
    first = (1,) + (0,) * (fp.nvars - 1)
    num = _mul_binomial({(0,) * fp.nvars: 1}, first)
    dens: list[tuple[int, ...]] = []
    for vec, power in fp.factors:
        if power > 0:
            for _ in range(power):
                num = _mul_binomial(num, vec)
        else:
            dens.extend([vec] * (-power))
    for vec in dens:
        num = _div_binomial(num, vec)
    collapsed: dict[int, int] = {}
    for exps, c in num.items():
        e = sum(exps)
        collapsed[e] = collapsed.get(e, 0) + c
    return LaurentPolynomial(collapsed) * fp.sign


def packed_line_omega(fp):
    """`FactorProduct.omega` by exact one-variable division on a packed line.

    The product is taken on the line t_j = t s^(c_j), c_j = r^j - 1 with
    r = 2 max|v_j| + 1.  There x^v = t^(sum v) s^(w(v)), w(v) = sum c_j v_j,
    and w(v) = sum r^j v_j != 0 when sum v = 0 and v != 0 (a balanced
    base-r numeral), so no factor vanishes and every division is exact;
    s = 1 then gives the diagonal.  The two variables are packed into one
    by t = T^B, s = T with B = 2 sum |p w| + 1 over the factors' powers p:
    no s-exponent of a factor, of the numerator or of a quotient exceeds
    sum |p w| in size, so the packing is injective on all of them, and
    s = 1 maps T^e to t^floor((e + floor(B/2)) / B).  With one variable
    c_0 = 0, and the line is the diagonal itself.
    """
    from linksig.laurent import LaurentPolynomial

    if fp.sign == 0:
        return LaurentPolynomial.zero()
    r = 2 * max((abs(c) for vec, _ in fp.factors for c in vec), default=0) + 1
    weights = [r**j - 1 for j in range(fp.nvars)]
    # (sum v, w(v), power) of each factor
    factors = [(sum(vec), sum(c * x for c, x in zip(weights, vec)), power)
               for vec, power in fp.factors]
    width = 2 * sum(abs(power * w) for _, w, power in factors) + 1
    num = LaurentPolynomial.t_binomial(width)
    dens: list[LaurentPolynomial] = []
    for total, w, power in factors:
        binom = LaurentPolynomial.t_binomial(width * total + w)
        if power > 0:
            num = num * binom**power
        else:
            dens.extend([binom] * -power)
    for den in dens:
        num = exact_div(num, den)
    half = width // 2
    diagonal: dict[int, int] = {}
    for e, c in num.items():
        a = (e + half) // width
        diagonal[a] = diagonal.get(a, 0) + c
    omega = LaurentPolynomial(diagonal)
    return omega if fp.sign > 0 else -omega


def _mul_binomial(poly: dict, vec: tuple[int, ...]) -> dict:
    out: dict[tuple[int, ...], int] = {}
    neg = tuple(-c for c in vec)
    for exps, c in poly.items():
        for shift, s in ((vec, c), (neg, -c)):
            key = tuple(a + b for a, b in zip(exps, shift))
            v = out.get(key, 0) + s
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _div_binomial(poly: dict, vec: tuple[int, ...]) -> dict:
    """Exact division by x^vec - x^-vec under lexicographic leading terms."""
    neg = tuple(-c for c in vec)
    lead, trail, lead_c = (vec, neg, 1) if vec > neg else (neg, vec, -1)
    rem = dict(poly)
    quot: dict[tuple[int, ...], int] = {}
    steps = 0
    while rem:
        steps += 1
        if steps > 100000:
            raise ArithmeticError("binomial division does not terminate")
        top = max(rem)
        c = rem.pop(top)
        qe = tuple(a - b for a, b in zip(top, lead))
        qc = c * lead_c
        quot[qe] = quot.get(qe, 0) + qc
        key = tuple(a + b for a, b in zip(qe, trail))
        v = rem.get(key, 0) + qc * lead_c
        if v:
            rem[key] = v
        else:
            rem.pop(key, None)
        if rem and max(rem) >= top:
            raise ArithmeticError("binomial division is not exact")
    return quot
