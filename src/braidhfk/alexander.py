"""Two independent Alexander polynomial engines for positive braid closures.

``conway`` resolves doubled crossings with the oriented skein relation
``nabla(L+) = nabla(L-) + z * nabla(L0)``.  It reads splitness and the
unknot off the word, and it splits off a summand wherever one of the
destabilisations and cuts of ``immediate_reduction`` fires; Burau checks
those cuts, since a wrong one changes the product.  It never calls
``decompose``.
``alexander_burau`` is the classical matrix route: the determinant of
``reduced_burau(word) - I`` divided by ``1 + t + ... + t^(n-1)``.  It
packs each entry of ``Z[t]`` into one integer, its value at
``t = 2**bits``, updates one column of the matrix per letter, and takes
the determinant by fraction-free Bareiss elimination over ``Z``.  A
bound on the entries' l1 norms sets the digit width of the build, and
Hadamard's bound on the determinant's coefficients sets the width of
the decode (see ``alexander_burau``).  It costs polynomial time in the
strand count and never consults the skein route or ``decompose``.

Both are normalised to the same graded Euler characteristic: the result
of ``hfk_euler`` equals ``sum_(m,a) (-1)^m rank_m(L, a) t^a`` over the
knot Floer homology of the closure, in the convention where Maslov
gradings of positive braid links are integers and non-positive.  For the
single-variable Alexander polynomial this amounts to multiplying by
``(t^(1/2) - t^(-1/2))^(components - 1)`` and fixing the unit so the
outcome is palindromic with positive top coefficient; the positive Hopf
link calibrates the convention to ``t - 2 + t^-1``.  The two engines
reach it separately: the skein route shifts the Conway coefficients,
and Burau multiplies by ``(t - 1)^(components - 1)`` and centres.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import Optional

from .braidword import (
    BraidWord,
    DEFAULT_BUDGET,
    closure_components,
    closure_genus,
    find_adjacent_square,
    immediate_reduction,
    require_budget,
    resolve_square,
)
from .polynomials import ConwayPoly, HalfLaurent, InexactDivisionError


class EngineFailure(RuntimeError):
    """The skein engine could not expose a doubled crossing within budget."""


# --------------------------------------------------------------------------
# Skein-recursion engine
# --------------------------------------------------------------------------

_conway_cache: dict[tuple[int, tuple[int, ...]], ConwayPoly] = {}


def clear_caches() -> None:
    _conway_cache.clear()


def conway(w: BraidWord, budget: int = DEFAULT_BUDGET) -> ConwayPoly:
    """Conway polynomial of the closure via the skein recursion.

    Split closures give 0 and unknots give 1.  When a destabilisation or
    a cut of ``immediate_reduction`` fires, the result is the product over
    the pieces, since Conway is multiplicative under connected sum.
    Everything else resolves at a doubled crossing found by
    ``find_adjacent_square``; every step strictly reduces the crossing
    count, so the recursion terminates.  That search writes the crossing
    down in one pass unless the word is a simple braid, and ``budget``
    caps the simple conjugates it walks then; ``EngineFailure`` when they
    run out first.
    """
    require_budget(budget)
    return _conway(w, budget)


def _conway(w: BraidWord, budget: int) -> ConwayPoly:
    """Fold the skein tree over the memo table in post-order.

    The tree is as deep as the crossing count, so it is walked with an
    explicit stack rather than by recursion: a word is expanded when it
    is first popped, and combined from its sub-words when popped again.
    """
    stack: list[tuple[BraidWord, Optional[tuple]]] = [(w, None)]
    while stack:
        u, expansion = stack.pop()
        key = (u.strands, u.letters)
        if key in _conway_cache:
            continue
        if expansion is None:
            if not u.is_connected:
                _conway_cache[key] = ConwayPoly.zero()
                continue
            if closure_genus(u) == 0:
                _conway_cache[key] = ConwayPoly.one()
                continue
            if (r := immediate_reduction(u.strands, u.letters)) is not None:
                expansion = (False, tuple(BraidWord(strands, letters) for strands, letters in r))
            else:
                sq = find_adjacent_square(u, budget)
                if sq is None:
                    raise EngineFailure(f"no doubled crossing found within budget for {u}")
                triple = resolve_square(sq)
                expansion = (True, (triple.l_minus, triple.l_zero))
            stack.append((u, expansion))
            stack.extend((sub, None) for sub in expansion[1])
            continue
        skein, subs = expansion
        values = [_conway_cache[(sub.strands, sub.letters)] for sub in subs]
        if skein:
            result = values[0] + values[1].times_z()
        else:
            result = ConwayPoly.one()
            for v in values:
                result = result * v
        _conway_cache[key] = result
    return _conway_cache[(w.strands, w.letters)]


def hfk_euler(w: BraidWord, budget: int = DEFAULT_BUDGET) -> HalfLaurent:
    """Graded Euler characteristic of the closure's knot Floer homology.

    ``(t^(1/2) - t^(-1/2))^(|L|-1)`` times the Conway polynomial under
    ``z -> t^(1/2) - t^(-1/2)``; integer exponents only, palindromic, and
    with coefficient +1 at ``t^genus`` for non-split closures.  The factor
    is ``z^(|L|-1)`` before the substitution, so it is a shift of the
    Conway coefficients.
    """
    shift = (0,) * (closure_components(w) - 1)
    return ConwayPoly(shift + conway(w, budget).coefficients).to_half_laurent()


# --------------------------------------------------------------------------
# Reduced Burau engine
# --------------------------------------------------------------------------

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


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """Quotient in ``Z[t]``; raises InexactDivisionError on a remainder."""
    if b == [1] or not a:
        return a
    deg = len(b) - 1
    if len(a) <= deg:
        raise InexactDivisionError("nonzero remainder")
    rem = list(a)
    lead = b[-1]
    out = [0] * (len(a) - deg)
    for shift in range(len(out) - 1, -1, -1):
        c = rem[shift + deg]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise InexactDivisionError("leading coefficient does not divide")
            out[shift] = q
            for k, v in enumerate(b, shift):
                rem[k] -= q * v
    if any(rem[:deg]):
        raise InexactDivisionError("nonzero remainder")
    return out


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant by fraction-free elimination (Bareiss 1968), in place.

    Every update divides exactly by the previous pivot; a zero pivot is
    replaced by a later row with a nonzero entry in its column, and a
    column with none gives determinant 0.
    """
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if not a[k][k]:
            for r in range(k + 1, size):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                q, r = divmod(row[j] * pivot - lead * pivot_row[j], prev)
                if r:
                    raise InexactDivisionError("Bareiss step left a remainder")
                row[j] = q
        prev = pivot
    return sign * a[-1][-1]


def alexander_burau(w: BraidWord) -> HalfLaurent:
    """Graded Euler characteristic via the reduced Burau representation.

    ``det(burau(word) - I) / (1 + t + ... + t^(n-1))`` is the Alexander
    polynomial of the closure up to a unit; split inputs give 0.  The
    product with ``(t - 1)^(|L|-1)`` is centred and signed to be
    palindromic with positive top coefficient, matching ``hfk_euler``.

    Entries of a positive word's matrix lie in ``Z[t]``, and each is kept
    packed as one integer, its value at ``t = 2**bits`` (Kronecker
    substitution).  Right-multiplying by generator ``i`` changes only
    column ``i``, to ``t*M[:,i-1] - t*M[:,i] + M[:,i+1]`` (a term past the
    edge is dropped), so each letter costs ``O(n)`` integer updates.

    Two bounds make the packing exact.  A pass over the letters first
    bounds the l1 norm of the entries of each column, since the update
    adds the norms of the three columns it reads.  Every coefficient of
    an entry is at most that norm (plus 1 on the diagonal), which is below
    ``2**(bits-1)`` when ``bits`` is the norm's bit length plus 2, so each
    entry is its balanced base-``2**bits`` digits.  The determinant is
    taken by Bareiss elimination over ``Z`` on the transpose, whose rows
    are the stored columns.  Evaluation at ``2**bits`` is a ring map, so
    the integer elimination divides exactly (Sylvester's identity) and
    returns the determinant's value there, however large its intermediate
    entries.  To decode that value, the entries are unpacked once and
    repacked at the width Hadamard's bound ``prod_c sqrt(sum_r |M_rc|_1^2)``
    asks for: on ``|t| = 1`` an entry is at most its l1 norm, so this
    bounds ``|det|`` on the unit circle, and no coefficient of a
    polynomial exceeds its maximum there.
    """
    n = w.strands
    if n == 1:
        return HalfLaurent.one()
    size = n - 1
    norms = [1] * size
    for i in w.letters:
        norms[i - 1] += (norms[i - 2] if i > 1 else 0) + (norms[i] if i < size else 0)
    bits = max(norms).bit_length() + 2
    cols = [[int(r == c) for r in range(size)] for c in range(size)]
    edge = [0] * size
    for i in w.letters:
        left = cols[i - 2] if i > 1 else edge
        right = cols[i] if i < size else edge
        cols[i - 1] = [((a - b) << bits) + c for a, b, c in zip(left, cols[i - 1], right)]
    for c in range(size):
        cols[c][c] -= 1
    entries = [[_unpack(v, bits) for v in col] for col in cols]
    hadamard_sq = prod(sum(sum(map(abs, e)) ** 2 for e in col) for col in entries)
    bits = (isqrt(hadamard_sq) + 1).bit_length() + 2
    det = _bareiss_det([[_pack(e, bits) for e in col] for col in entries])
    if not det:
        return HalfLaurent.zero()
    quotient = _exact_div(_unpack(det, bits), [1] * n)
    for _ in range(closure_components(w) - 1):
        quotient = [a - b for a, b in zip([0] + quotient, quotient + [0])]
    lo = next(k for k, v in enumerate(quotient) if v)
    hi = len(quotient) - 1
    body = quotient[lo:]
    if body != body[::-1]:
        raise InexactDivisionError("normalized polynomial is not palindromic")
    sign = 1 if quotient[hi] > 0 else -1
    return HalfLaurent({2 * k - lo - hi: sign * v for k, v in enumerate(quotient) if v})
