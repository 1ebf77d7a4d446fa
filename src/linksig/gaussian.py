"""Exact Gaussian integers a + b*i with arbitrary-precision components.

Link determinants live here: for a braid closure the determinant is real
when the closure has an odd number of components and purely imaginary when
it has an even number, so a single exact type carries both cases.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GaussianInteger:
    re: int = 0
    im: int = 0

    def __add__(self, other: "GaussianInteger | int") -> "GaussianInteger":
        other = _coerce(other)
        return GaussianInteger(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianInteger | int") -> "GaussianInteger":
        other = _coerce(other)
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: "GaussianInteger | int") -> "GaussianInteger":
        return _coerce(other) - self

    def __mul__(self, other: "GaussianInteger | int") -> "GaussianInteger":
        other = _coerce(other)
        return GaussianInteger(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianInteger":
        return GaussianInteger(-self.re, -self.im)

    def __pow__(self, n: int) -> "GaussianInteger":
        if n < 0:
            raise ValueError("negative powers are not defined for Gaussian integers")
        result = GaussianInteger(1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "GaussianInteger":
        return GaussianInteger(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im_part = {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        if self.re == 0:
            return im_part
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        return f"{self.re}{sign}{'' if mag == 1 else mag}i"

    def __bool__(self) -> bool:
        return not self.is_zero()


def _coerce(value: GaussianInteger | int) -> GaussianInteger:
    if isinstance(value, GaussianInteger):
        return value
    if isinstance(value, int):
        return GaussianInteger(value, 0)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian integer")


_I_POWERS = (GaussianInteger(1, 0), GaussianInteger(0, 1),
             GaussianInteger(-1, 0), GaussianInteger(0, -1))


def i_power(n: int) -> GaussianInteger:
    """i**n for any integer n, including negative (i**-1 == -i)."""
    return _I_POWERS[n % 4]


def parse_gaussian(text: str) -> GaussianInteger:
    """Parse strings of the form '3+2i', '-4', '2i', 'i', '1-i', '0'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian integer literal")
    if not s.endswith("i"):
        return GaussianInteger(int(s), 0)
    body = s[:-1]
    # split off a real part if one is present ahead of the trailing term
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-":
            re_part, im_part = body[:pos], body[pos:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = 1
    elif im_part == "-":
        im = -1
    else:
        im = int(im_part)
    return GaussianInteger(int(re_part) if re_part else 0, im)
