"""Braid words and the parametric two-jump / wide-jump braid families.

A word in the braid group B_m is a sequence of nonzero integers: letter +j
is the standard generator sigma_j, letter -j its inverse.  The families
``family_b`` and ``family_c`` insert twist blocks between half-twist powers;
they are the braids realized by deep-nest curve arrangements, one jump block
per jump, with the block's generator pair sitting next to the middle strand
(``family_b``) or one strand further out (``family_c``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True, slots=True)
class BraidWord:
    """A braid word with an explicit strand count.

    >>> BraidWord(3, (1, 2, 1)).exponent_sum()
    3
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("strand count must be >= 1")
        letters = self.letters
        # a tuple of ints is kept as given: a copy built by tuple() of a
        # generator grows and shrinks in steps, which left about 1 KB of heap
        # behind per word of about 90 letters
        if type(letters) is not tuple or not set(map(type, letters)) <= {int}:
            letters = tuple([int(x) for x in letters])
        top = self.strands - 1
        if letters and (0 in letters or min(letters) < -top or max(letters) > top):
            bad = next(x for x in letters if x == 0 or not 1 <= abs(x) <= top)
            raise ValueError(f"letter {bad} out of range for {self.strands} strands")
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, n: int) -> "BraidWord":
        base = self if n >= 0 else self.inverse()
        return BraidWord(self.strands, base.letters * abs(n))

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple([-x for x in reversed(self.letters)]))

    def exponent_sum(self) -> int:
        """Sum of letter signs, e(b)."""
        return sum(1 if x > 0 else -1 for x in self.letters)

    def permutation(self) -> list[int]:
        """Image of each strand (0-based) under the word, read left to right."""
        perm = list(range(self.strands))
        for ell in self.letters:
            j = abs(ell) - 1
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
        return perm

    def closure_components(self) -> int:
        """Number of components of the braid closure (cycles of the permutation)."""
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for start in range(self.strands):
            if seen[start]:
                continue
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        return count

    def to_text(self) -> str:
        return ",".join(str(x) for x in self.letters)

    @staticmethod
    def from_text(strands: int, text: str) -> "BraidWord":
        return BraidWord(strands, tuple([int(p) for p in text.replace(",", " ").split()]))


def _cancel_far_pairs(word: BraidWord) -> BraidWord:
    """The word with each sigma_j^e ... sigma_j^-e cancelled across letters
    that all commute with sigma_j, those on indices other than j - 1, j and
    j + 1 (Artin's relations): the same braid on the same strands.

    One left-to-right pass keeps, per generator index, the stack of the
    output positions of its kept letters.  An incoming sigma_j^-e can only
    cancel the latest kept letter on j, and does when that letter is
    sigma_j^e and the latest kept letters on j - 1 and j + 1 lie before it.
    A cancellation pops that stack, which restores the letter below it, and
    blanks the slot; the blanks are dropped at the end.  Each letter costs
    O(1), so the pass is O(L + m), with no scan back over commuting letters.
    The word itself comes back when nothing cancels.

    >>> _cancel_far_pairs(BraidWord(4, (1, 3, -1))).letters
    (3,)
    """
    out: list[int] = []
    # indices 0 and m bound the generators and stay empty
    stacks: list[list[int]] = [[] for _ in range(word.strands + 1)]
    for x in word.letters:
        j = abs(x)
        kept = stacks[j]
        if kept and out[kept[-1]] == -x:
            p = kept[-1]
            below, above = stacks[j - 1], stacks[j + 1]
            if (not below or below[-1] < p) and (not above or above[-1] < p):
                kept.pop()
                out[p] = 0
                continue
        kept.append(len(out))
        out.append(x)
    if len(out) == len(word.letters):
        return word
    return BraidWord(word.strands, tuple([x for x in out if x]))


# -- named subwords --------------------------------------------------------

def pi_word(k: int, l: int, strands: int) -> BraidWord:
    """sigma_k sigma_{k+1} ... sigma_l (descending when k > l)."""
    if k < l:
        letters = tuple(range(k, l + 1))
    elif k > l:
        letters = tuple(range(k, l - 1, -1))
    else:
        letters = (k,)
    return BraidWord(strands, letters)


def tau_word(k: int, l: int, strands: int) -> BraidWord:
    """The mixed block pi_{l,k+1}^-1 pi_{k,l-1} (resp. pi_{l,k-1}^-1 pi_{k,l+1}):
    the letters -(k+s), ..., -l, then k, ..., l-s, for s the sign of l - k,
    as one tuple."""
    if k == l:
        return BraidWord(strands)
    s = 1 if k < l else -1
    return BraidWord(strands, tuple([-x for x in range(k + s, l + s, s)]
                                    + list(range(k, l, s))))


def half_twist(k: int, strands: int | None = None) -> BraidWord:
    """The half twist Delta_k = pi_{1,k-1} pi_{1,k-2} ... pi_{1,2} sigma_1:
    the letter runs 1..k-1, 1..k-2, ..., 1..2, 1, k(k-1)/2 letters in all."""
    m = strands if strands is not None else k
    if k < 1 or k > m:
        raise ValueError("half twist index out of range")
    return BraidWord(m, tuple([x for top in range(k - 1, 0, -1)
                               for x in range(1, top + 1)]))


def delta_small(k: int, strands: int | None = None) -> BraidWord:
    """delta_k = sigma_1 sigma_2 ... sigma_{k-1}; Delta_k^2 == delta_k^k."""
    m = strands if strands is not None else k
    if k < 1 or k > m:
        raise ValueError("index out of range")
    return BraidWord(m, tuple(range(1, k)))


# -- parametric families ----------------------------------------------------

def _check_jumps(n: int, k: int, J: int) -> None:
    """The family rules on (n, k, J), which need no twist count."""
    if n < 1 or k < 1 or J < 1:
        raise ValueError("n, k, J must be positive")
    if (n - J) % 2 != 0:
        raise ValueError("the number of jumps J must have the parity of n")


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (n, k, J, alphas) of the jump-block braid families.

    The one statement of the family domain: n, k, J >= 1, J has the parity
    of n, and alphas are J nonnegative twist counts.  `family_params` adds
    the rule of each kind; every function of the families validates through
    it before it answers or reports a closed form as not established.  The
    curve layer asks `_check_jumps` about a jump count alone.
    """

    n: int
    k: int
    J: int
    alphas: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        _check_jumps(self.n, self.k, self.J)
        if len(self.alphas) != self.J:
            raise ValueError("alphas must have length J")
        if any(a < 0 for a in self.alphas):
            raise ValueError("alphas must be nonnegative")

    @property
    def strands(self) -> int:
        return 2 * self.k + 1


def family_params(kind: str, n: int, k: int, J: int,
                  alphas: Sequence[int]) -> FamilyParams:
    """The parameters of a family braid of the given kind, validated.

    Kind "b" is the narrow-pair family, "c" the wide-pair family, which
    needs k >= 2.

    >>> family_params("c", 1, 1, 1, (1,))
    Traceback (most recent call last):
    ...
    ValueError: the wide family requires k >= 2
    """
    if kind not in ("b", "c"):
        raise ValueError("kind must be 'b' or 'c'")
    p = FamilyParams(n, k, J, alphas)
    if kind == "c" and k < 2:
        raise ValueError("the wide family requires k >= 2")
    return p


def _family_word(p: FamilyParams, lo: int, hi: int) -> BraidWord:
    """The jump blocks, then Delta_m^n on m = 2k+1 strands.  Jump j is
    alpha_j letters -a and then tau_{a,b}, with (a, b) = (lo, hi) for odd j
    and (hi, lo) for even j."""
    m = p.strands
    blocks = [(-a, tau_word(a, b, m).letters) for a, b in ((lo, hi), (hi, lo))]
    letters: list[int] = []
    for j, alpha in enumerate(p.alphas):
        twist, tau = blocks[j % 2]
        letters += [twist] * alpha
        letters += tau
    letters += half_twist(m).letters * p.n
    return BraidWord(m, tuple(letters))


def family_length(kind: str, p: FamilyParams) -> int:
    """Letter count of `family_b` (kind "b") or `family_c` ("c"), unbuilt.

    J jump blocks, the j-th of alpha_j letters and a tau block of 2 (b) or
    6 (c) letters, then n half twists of k(2k+1) letters each.
    """
    tau = 2 if kind == "b" else 6
    return sum(p.alphas) + p.J * tau + p.n * p.k * (2 * p.k + 1)


def family_b(p: FamilyParams) -> BraidWord:
    """The narrow-pair family: jump blocks on the adjacent pair at the middle.

    The generator pair is (sigma_k, sigma_{k+1}), the two crossings touching
    the middle strand of B_{2k+1}; this is the unique labeling under which
    the single-jump word with no twists is conjugate to the half-twist power
    (sigma_k Delta^n = Delta^n sigma_{k+1} for odd n) and the closed-form
    determinant tables hold for every k >= 1.
    """
    return _family_word(p, p.k, p.k + 1)


def family_c(p: FamilyParams) -> BraidWord:
    """The wide-pair family: jump blocks on the distance-three pair (needs k >= 2).

    Generator pair (sigma_{k-1}, sigma_{k+2}), one strand further out on both
    sides than the narrow family.
    """
    family_params("c", p.n, p.k, p.J, p.alphas)
    return _family_word(p, p.k - 1, p.k + 2)
