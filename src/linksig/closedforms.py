"""Closed-form signatures and nullities of the half-twist powers and the
jump-block families, plus the signed-count gap of the Murasugi-Tristram
inequality.

The two epsilon constants absorb the parity corrections between the
half-twist signature and the family signatures; they vanish for even n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .braid import family_params
from .gaussian import i_power
from .skeinpoly import FormulaNotEstablished

__all__ = [
    "SignNull", "EpsilonPair", "epsilons", "sign_null_delta",
    "sign_null_b", "sign_null_c", "mt_gap", "FormulaNotEstablished",
]


@dataclass(frozen=True)
class SignNull:
    sign: int | None
    null: int

    def __post_init__(self) -> None:
        if self.null < 0:
            raise ValueError("nullity cannot be negative")

    def as_tuple(self) -> tuple[int | None, int]:
        return (self.sign, self.null)


@dataclass(frozen=True)
class EpsilonPair:
    eps: int
    eps_prime: int


def epsilons(n: int, k: int) -> EpsilonPair:
    """eps = (1+(-1)^k)/2 * Re i^(n-1); eps' = (1-3(-1)^k)/2 * Re i^(n-1)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    re = i_power(n - 1).re
    eps = ((1 + (-1) ** k) // 2) * re
    eps_prime = ((1 - 3 * (-1) ** k) // 2) * re
    return EpsilonPair(eps, eps_prime)


def sign_null_delta(n: int, k: int) -> SignNull:
    """(Sign, Null) of the n-th half-twist power closure in B_{2k+1}."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    sign = -n * k * (k + 1)
    if k % 2 == 1 and n % 2 == 1:
        sign += (-1) ** ((n - 1) // 2)
    null = 2 * k if n % 4 == 0 else 0
    return SignNull(sign, null)


def _is_special_pair(alphas: Sequence[int]) -> bool:
    """The (alpha_0, 0) shape handled by the special cases."""
    return len(alphas) == 2 and alphas[1] == 0


def _signed_count(n: int, k: int, j: int, alphas: Sequence[int], w: int,
                  eps: int) -> SignNull:
    """The main closed form, with w = 2k -+ 1 and the kind's epsilon.

    Null = [J = w n (mod 4) and every alpha = 1];
    Sign = Null - nk(k+1) + sum(alphas) - J + eps.
    """
    null = 1 if (j - w * n) % 4 == 0 and all(a == 1 for a in alphas) else 0
    return SignNull(null - n * k * (k + 1) + sum(alphas) - j + eps, null)


def sign_null_b(n: int, k: int, j: int, alphas: Sequence[int]) -> SignNull:
    """Closed-form (Sign, Null) of the narrow-pair family braid closure.

    Positive twist counts use the main formula; the (alpha_0, 0) shape uses
    the special cases (for n = 0 mod 4 only the nullity is established, so
    sign comes back as None there).  n = 0 mod 4 with k > 1, and any other
    shape with a zero twist count, are outside the proven range and raise
    FormulaNotEstablished.
    """
    alphas = family_params("b", n, k, j, alphas).alphas
    eps = epsilons(n, k).eps
    if all(a >= 1 for a in alphas):
        if n % 4 == 0 and k != 1:
            raise FormulaNotEstablished(
                "narrow family at n = 0 mod 4 is only established for k = 1")
        return _signed_count(n, k, j, alphas, 2 * k - 1, eps)
    if _is_special_pair(alphas):
        if n % 4 == 2:
            # the main formula with J = 0 and the twist sum replaced by a0
            return _signed_count(n, k, 0, alphas[:1], 2 * k - 1, eps)
        # J = 2 has the parity of n, so n = 0 mod 4 here
        if k != 1:
            raise FormulaNotEstablished(
                "narrow family special pair needs k = 1 when n = 0 mod 4")
        # no twists at all is the plain half-twist power with kernel 2;
        # any twisting removes exactly one kernel vector
        return SignNull(None, 2 if alphas[0] == 0 else 1)
    raise FormulaNotEstablished(
        "zero twist counts are only established in the (a0, 0) pair")


def sign_null_c(n: int, k: int, j: int, alphas: Sequence[int]) -> SignNull:
    """Closed-form (Sign, Null) of the wide-pair family braid closure."""
    alphas = family_params("c", n, k, j, alphas).alphas
    if n % 4 == 0:
        raise FormulaNotEstablished(
            "wide family at n = 0 mod 4 has no proven signature formula")
    if all(a >= 1 for a in alphas):
        return _signed_count(n, k, j, alphas, 2 * k + 1, epsilons(n, k).eps_prime)
    if _is_special_pair(alphas):
        # n = 2 mod 4 here; the narrow family agrees there
        return sign_null_b(n, k, j, alphas)
    raise FormulaNotEstablished(
        "zero twist counts are only established in the (a0, 0) pair")


def mt_gap(sign: int, null: int, strands: int, exponent_sum: int) -> int:
    """(Null + 1) - (|Sign| + m - e); the signed-count inequality holds iff >= 0."""
    return (null + 1) - (abs(sign) + strands - exponent_sum)
