"""Integer Laurent polynomials in one variable t.

This is the carrier of the Conway potential of a link.  Coefficients are
arbitrary-precision integers, exponents are (small) signed integers, and
every operation is exact; zero coefficients are never stored.  The only
divisions the invariants need are by binomials t^a - 1 (the splice products
by t^a - t^-a, the Conway potential by 1 + t + ... + t^(m-1)), and they take
them on dense coefficient lists (`_divide_power_minus_one`).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .gaussian import GaussianInteger


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class LaurentPolynomial:
    """An element of Z[t, t^-1], stored sparsely as {exponent: coefficient}.

    Instances are immutable; all arithmetic returns new objects.

    >>> t = LaurentPolynomial.t()
    >>> print((t - LaurentPolynomial.t(-1)) * (t + LaurentPolynomial.t(-1)))
    + t^2 - t^-2
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    data[int(e)] = int(c)
        self._coeffs = data

    @staticmethod
    def _wrap(data: dict[int, int]) -> "LaurentPolynomial":
        """An instance owning data, which must have no zero coefficients."""
        p = object.__new__(LaurentPolynomial)
        p._coeffs = data
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial()

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial({0: 1})

    @staticmethod
    def constant(c: int) -> "LaurentPolynomial":
        return LaurentPolynomial({0: c})

    @staticmethod
    def t(exponent: int = 1) -> "LaurentPolynomial":
        return LaurentPolynomial({exponent: 1})

    @staticmethod
    def t_binomial(m: int) -> "LaurentPolynomial":
        """t^m - t^-m (zero when m == 0)."""
        if m == 0:
            return LaurentPolynomial()
        return LaurentPolynomial({m: 1, -m: -1})

    # -- mapping-ish access -------------------------------------------

    def __getitem__(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def exponents(self) -> list[int]:
        return sorted(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "LaurentPolynomial | int", sign: int) -> "LaurentPolynomial":
        data = dict(self._coeffs)
        for e, c in _coerce(other)._coeffs.items():
            v = data.get(e, 0) + sign * c
            if v:
                data[e] = v
            else:
                data.pop(e, None)
        return LaurentPolynomial._wrap(data)

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return self._plus(other, -1)

    def __rsub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return _coerce(other) + (-self)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._wrap({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        other = _coerce(other)
        data: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                v = data.get(e, 0) + c1 * c2
                if v:
                    data[e] = v
                else:
                    data.pop(e, None)
        return LaurentPolynomial._wrap(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial._wrap({e + k: c for e, c in self._coeffs.items()})

    # -- evaluation ----------------------------------------------------

    def eval_at_i(self) -> GaussianInteger:
        """Exact evaluation at t = i (with i^-1 = -i)."""
        # sums[r]: the coefficients of the exponents e = r mod 4, i^r = 1, i, -1, -i
        sums = [0, 0, 0, 0]
        for e, c in self._coeffs.items():
            sums[e % 4] += c
        return GaussianInteger(sums[0] - sums[2], sums[1] - sums[3])

    def substitute_power(self, k: int) -> "LaurentPolynomial":
        """The polynomial with t replaced by t^k (k != 0)."""
        if k == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPolynomial({e * k: c for e, c in self._coeffs.items()})

    # -- equality / formatting ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        c = self._coeffs  # a constant equals its int, so it hashes as that int
        return hash(c.get(0, 0)) if c.keys() <= {0} else hash(frozenset(c.items()))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}t^{e}" if e != 1 else f"{head}t"
            parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(sorted(self._coeffs.items()))!r})"

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict[str, str]:
        """JSON object {exponent: coefficient-string}, exact at any size."""
        return {str(e): str(c) for e, c in sorted(self._coeffs.items())}

    @staticmethod
    def from_json(obj: Mapping[str, str]) -> "LaurentPolynomial":
        return LaurentPolynomial({int(e): int(c) for e, c in obj.items()})


def _times_power_minus_one(c: list[int], a: int) -> list[int]:
    """The dense coefficients c, lowest first, times x^a - 1, for a > 0."""
    return [x - y for x, y in zip([0] * a + c, c + [0] * a)]


def _divide_power_minus_one(c: list[int], a: int) -> list[int]:
    """The exact quotient of the dense coefficients c by x^a - 1, for a > 0.

    From the top down q_j = c_(j+a) + q_(j+a), so the stride-a suffix sums
    s_i = c_i + s_(i+a) give q_j = s_(j+a), and the division is exact when
    s_i = 0 for the a lowest i; otherwise it raises ExactDivisionError.
    """
    s = list(c)
    for i in range(len(s) - a - 1, -1, -1):
        s[i] += s[i + a]
    if any(s[:a]):
        raise ExactDivisionError("division leaves a remainder")
    return s[a:]


def _coerce(value: "LaurentPolynomial | int") -> LaurentPolynomial:
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a Laurent polynomial")
