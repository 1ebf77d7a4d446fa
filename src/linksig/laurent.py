"""Integer Laurent polynomials in one variable t.

This is the carrier of the Conway potential of a link.  Coefficients are
arbitrary-precision integers, exponents are (small) signed integers, and
every operation is exact; zero coefficients are never stored.  Exact
division is also spelled ``//``, so `intmatrix.exact_determinant` takes
determinants of Laurent matrices with the same elimination as over Z.
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

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    data[int(e)] = int(c)
        self._coeffs = data
        self._hash: int | None = None

    @staticmethod
    def _wrap(data: dict[int, int]) -> "LaurentPolynomial":
        """An instance owning data, which must have no zero coefficients."""
        p = object.__new__(LaurentPolynomial)
        p._coeffs = data
        p._hash = None
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
    def t(exponent: int = 1, coefficient: int = 1) -> "LaurentPolynomial":
        return LaurentPolynomial({exponent: coefficient})

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

    def __len__(self) -> int:
        """The number of stored (nonzero) terms."""
        return len(self._coeffs)

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
            raise ValueError("negative powers require exact_div against the inverse")
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

    def exact_div(self, divisor: "LaurentPolynomial | int") -> "LaurentPolynomial":
        """Exact quotient self / divisor in Z[t, t^-1]; also spelled ``//``.

        Raises ExactDivisionError if the division leaves a remainder or a
        non-integer coefficient.
        """
        divisor = _coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("Laurent polynomial division by zero")
        if self.is_zero():
            return LaurentPolynomial()
        lead = max(divisor._coeffs)
        lead_c = divisor._coeffs[lead]
        # quotient exponents of an exact division lie in this window
        low = min(self._coeffs) - min(divisor._coeffs)
        rem = dict(self._coeffs)
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
            for e, dc in divisor._coeffs.items():
                ne = e + qe
                v = rem.get(ne, 0) - q * dc
                if v:
                    rem[ne] = v
                else:
                    rem.pop(ne, None)
        return LaurentPolynomial._wrap(quot)

    __floordiv__ = exact_div

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
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._coeffs.items())))
        return self._hash  # type: ignore[return-value]

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


def _coerce(value: "LaurentPolynomial | int") -> LaurentPolynomial:
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a Laurent polynomial")
