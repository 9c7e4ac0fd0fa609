"""Exact integer Laurent polynomials in ``t^(1/2)`` and Conway polynomials in ``z``.

``HalfLaurent`` and ``hfk.BigradedRank`` are immutable sparse maps on one
core, ``_SparseMap``: a dict of nonzero integers, a sum and a convolution
product.  Half-integer exponents are stored doubled, so ``t^(k/2)`` lives
at key ``k`` and all arithmetic stays in plain integers.  ``ConwayPoly`` is
a dense coefficient tuple in ``z``, kept apart from the core because the
Conway table holds a thousand of them and a tuple is the smaller value;
substituting ``z -> t^(1/2) - t^(-1/2)`` turns it into a ``HalfLaurent``.
Both polynomials print through ``_join_terms``.  ``_pack`` and ``_unpack``
write a polynomial as one integer, its value at ``2**bits``, and read it
back as balanced digits; the sweeps and the Burau engine keep their values
so.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import add, index
from typing import Callable, Iterable, Mapping


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where none is possible."""


# Coefficient lists longer than this are packed and unpacked by halves, so
# that a long value is not shifted once per coefficient.
_SHIFT_LOOP_COEFFS = 32


def _pack(coeffs: list[int], bits: int) -> int:
    """The value at ``t = 2**bits`` of the polynomial with these coefficients."""
    if len(coeffs) > _SHIFT_LOOP_COEFFS:
        h = len(coeffs) // 2
        return _pack(coeffs[:h], bits) + (_pack(coeffs[h:], bits) << (bits * h))
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def _unpack(value: int, bits: int) -> list[int]:
    """Balanced base-``2**bits`` digits of ``value``, lowest first, with no
    trailing zero: the coefficients of the one polynomial whose coefficients
    lie in ``[-2**(bits-1), 2**(bits-1))`` and whose value at ``2**bits``
    is ``value``.
    """
    count = value.bit_length() // bits
    if count > _SHIFT_LOOP_COEFFS:
        h = count // 2
        # The sums of h such digits times 2**(bits*k) are exactly the
        # integers from -half * ones to (half - 1) * ones, one per residue
        # class mod 2**(bits*h); the low half is the one in value's class.
        width = bits * h
        ones = ((1 << width) - 1) // ((1 << bits) - 1)
        floor = -(1 << (bits - 1)) * ones
        low = ((value - floor) & ((1 << width) - 1)) + floor
        digits = _unpack(low, bits)
        high = _unpack((value - low) >> width, bits)
        return digits + [0] * (h - len(digits)) + high if high else digits
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = []
    while value:
        value += half
        digits.append((value & mask) - half)
        value >>= bits
    return digits


def _join_terms(terms: Iterable[tuple[int, int]], power: Callable[[int], str]) -> str:
    """``(exponent, coefficient)`` pairs, highest first, as ``3 t^2 - t + 1``.

    ``power`` names the power of each nonzero exponent; zero coefficients
    are skipped, and no terms is ``0``.
    """
    out = ""
    for e, v in terms:
        if v:
            mag = abs(v)
            body = str(mag) if e == 0 else power(e) if mag == 1 else f"{mag} {power(e)}"
            sign = "-" if v < 0 else "+"
            out += f" {sign} {body}" if out else body if v > 0 else f"-{body}"
    return out or "0"


class _SparseMap:
    """Finitely supported map from keys to nonzero integers, the core of
    ``HalfLaurent`` and ``BigradedRank``.

    No public method changes a value once built, so a table may hand one
    object to every caller.  Keys are read with ``_key`` and values with
    ``operator.index``: a bool becomes an int, and any other non-integer
    raises ``TypeError``.  Zeros are dropped, and a value equals only
    values of its own type.
    """

    __slots__ = ("_c",)
    _key = staticmethod(index)

    def __init__(self, coeffs: Mapping | None = None):
        c, key = {}, self._key
        if coeffs:
            for k, v in coeffs.items():
                k, v = key(k), index(v)
                if v:
                    c[k] = v
        self._c = c

    @classmethod
    def _of(cls, c: dict):
        """Wrap a dict that already holds no zero."""
        r = cls.__new__(cls)
        r._c = c
        return r

    @classmethod
    def zero(cls):
        return cls()

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        out = dict(self._c)
        for k, v in other._c.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return self._of(out)

    def _convolve(self, other, plus):
        """The product whose term ``k1, k2`` lands at ``plus(k1, k2)``."""
        out: dict = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = plus(k1, k2)
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return self._of(out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._c!r})"


class HalfLaurent(_SparseMap):
    """Finitely supported map from doubled exponents to integer coefficients."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    @classmethod
    def half_difference(cls) -> "HalfLaurent":
        """The polynomial ``t^(1/2) - t^(-1/2)``."""
        return cls({1: 1, -1: -1})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "HalfLaurent":
        summed: dict[int, int] = {}
        for k, v in pairs:
            summed[k] = summed.get(k, 0) + v
        return cls(summed)

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "HalfLaurent":
        return self._of({k: -v for k, v in self._c.items()})

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self._convolve(other, add)

    def shifted(self, doubled_exp: int) -> "HalfLaurent":
        """Multiply by the monomial ``t^(doubled_exp/2)``."""
        return self._of({k + doubled_exp: v for k, v in self._c.items()})

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        """Coefficient of ``t^exponent`` for an integer exponent."""
        return self._c.get(2 * exponent, 0)

    def coefficient_doubled(self, doubled_exp: int) -> int:
        return self._c.get(doubled_exp, 0)

    @property
    def top_doubled(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no top exponent")
        return max(self._c)

    @property
    def bottom_doubled(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no bottom exponent")
        return min(self._c)

    def is_symmetric(self) -> bool:
        """Palindromic under ``t -> 1/t``."""
        return all(self._c.get(-k, 0) == v for k, v in self._c.items())

    def to_pairs(self) -> list[list[int]]:
        """JSON form: ``[doubledExponent, coefficient]`` pairs, descending."""
        return [[k, self._c[k]] for k in sorted(self._c, reverse=True)]

    def __str__(self) -> str:
        power = lambda k: "t" if k == 2 else f"t^{k // 2}" if k % 2 == 0 else f"t^({k}/2)"
        return _join_terms(sorted(self._c.items(), reverse=True), power)


class ConwayPoly:
    """Integer polynomial in the Conway variable ``z`` (dense coefficients).

    Coefficients are read with ``operator.index``: a bool becomes an int,
    and any other non-integer raises ``TypeError``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(map(index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def zero(cls) -> "ConwayPoly":
        return cls()

    @classmethod
    def one(cls) -> "ConwayPoly":
        return cls((1,))

    @classmethod
    def z(cls) -> "ConwayPoly":
        return cls((0, 1))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConwayPoly) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __add__(self, other: "ConwayPoly") -> "ConwayPoly":
        return ConwayPoly([a + b for a, b in zip_longest(self._c, other._c, fillvalue=0)])

    def __mul__(self, other: "ConwayPoly") -> "ConwayPoly":
        if not self._c or not other._c:
            return ConwayPoly()
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return ConwayPoly(out)

    def times_z(self) -> "ConwayPoly":
        if not self._c:
            return self
        return ConwayPoly((0,) + self._c)

    def to_half_laurent(self) -> HalfLaurent:
        """Substitute ``z -> t^(1/2) - t^(-1/2)``.

        Horner's rule from the top coefficient down, over a dense list whose
        entry ``j`` holds the coefficient of ``t^((j - m)/2)`` when the list
        has ``2m + 1`` entries.
        """
        dense = [0]
        for coeff in reversed(self._c):
            # times t^(1/2) - t^(-1/2): entry j becomes dense[j-2] - dense[j]
            dense = [a - b for a, b in zip([0, 0] + dense, dense + [0, 0])]
            dense[len(dense) // 2] += coeff
        m = len(dense) // 2
        return HalfLaurent({j - m: c for j, c in enumerate(dense) if c})

    def __str__(self) -> str:
        power = lambda i: "z" if i == 1 else f"z^{i}"
        return _join_terms(reversed(list(enumerate(self._c))), power)

    def __repr__(self) -> str:
        return f"ConwayPoly({list(self._c)!r})"
