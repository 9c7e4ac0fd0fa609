"""Two independent Alexander polynomial engines for positive braid closures.

``conway`` resolves doubled crossings with the oriented skein relation
``nabla(L+) = nabla(L-) + z * nabla(L0)``.  It reads splitness and the
unknot off the word, and it splits off a summand wherever one of the
destabilisations and cuts of ``immediate_reduction`` fires; Burau checks
those cuts, since a wrong one changes the product.  It never calls
``decompose``.
``alexander_burau`` is the classical matrix route: the determinant of
``reduced_burau(word) - I`` divided by ``1 + t + ... + t^(n-1)``.  It
works over ``Z[t]`` with dense coefficient lists, updates one column of
the matrix per letter, and takes the determinant by fraction-free
Bareiss elimination, so it costs polynomial time in the strand count
and never consults the skein route or ``decompose``.

Both are normalised to the same graded Euler characteristic: the result
of ``hfk_euler`` equals ``sum_(m,a) (-1)^m rank_m(L, a) t^a`` over the
knot Floer homology of the closure, in the convention where Maslov
gradings of positive braid links are integers and non-positive.  For the
single-variable Alexander polynomial this amounts to multiplying by
``(t^(1/2) - t^(-1/2))^(components - 1)`` and fixing the unit so the
outcome is palindromic with positive top coefficient; the positive Hopf
link calibrates the convention to ``t - 2 + t^-1``.
"""

from __future__ import annotations

from itertools import zip_longest
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
    count, so the recursion terminates.
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
                expansion = (False, tuple(BraidWord(strands, letters) for strands, letters in r[1:]))
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


def _euler_bridge(nabla: HalfLaurent, components: int) -> HalfLaurent:
    return nabla * (HalfLaurent.half_difference() ** (components - 1))


def hfk_euler(w: BraidWord, budget: int = DEFAULT_BUDGET) -> HalfLaurent:
    """Graded Euler characteristic of the closure's knot Floer homology.

    ``(t^(1/2) - t^(-1/2))^(|L|-1)`` times the Conway polynomial under
    ``z -> t^(1/2) - t^(-1/2)``; integer exponents only, palindromic, and
    with coefficient +1 at ``t^genus`` for non-split closures.
    """
    nabla = conway(w, budget).to_half_laurent()
    return _euler_bridge(nabla, closure_components(w))


def second_coefficient(w: BraidWord, budget: int = DEFAULT_BUDGET) -> int:
    """Coefficient of ``t^(g-1)`` in the graded Euler characteristic.

    For a non-split positive braid closure this equals
    ``-(primes + components - splits)``; in particular -1 for prime knots.
    """
    if not w.is_connected:
        raise ValueError("second_coefficient expects a non-split closure")
    return hfk_euler(w, budget).coefficient(closure_genus(w) - 1)


# --------------------------------------------------------------------------
# Reduced Burau engine
# --------------------------------------------------------------------------

def _trim(c: list[int]) -> list[int]:
    while c and not c[-1]:
        c.pop()
    return c


def _add(a: list[int], b: list[int]) -> list[int]:
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a: list[int], b: list[int]) -> list[int]:
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


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


def _bareiss_det(a: list[list[list[int]]]) -> list[int]:
    """Determinant by fraction-free elimination (Bareiss 1968), in place.

    Every update divides exactly by the previous pivot; a zero pivot is
    replaced by a later row with a nonzero entry in its column, and a
    column with none gives determinant 0.
    """
    size = len(a)
    sign = 1
    prev = [1]
    for k in range(size - 1):
        if not a[k][k]:
            for r in range(k + 1, size):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return []
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = _exact_div(_sub(_mul(row[j], pivot), _mul(lead, pivot_row[j])), prev)
        prev = pivot
    det = a[-1][-1]
    return det if sign > 0 else [-x for x in det]


def _normalize_symmetric(p: HalfLaurent) -> HalfLaurent:
    """Center by a half-integer monomial shift and fix the sign so the top
    coefficient is positive; the result must be palindromic."""
    if not p:
        return p
    center = (p.top_doubled + p.bottom_doubled) // 2
    if (p.top_doubled + p.bottom_doubled) % 2 != 0:
        raise InexactDivisionError("exponent span cannot be centered")
    out = p.shifted(-center)
    if out.coefficient_doubled(out.top_doubled) < 0:
        out = -out
    if not out.is_symmetric():
        raise InexactDivisionError("normalized polynomial is not palindromic")
    return out


def alexander_burau(w: BraidWord) -> HalfLaurent:
    """Graded Euler characteristic via the reduced Burau representation.

    ``det(burau(word) - I) / (1 + t + ... + t^(n-1))`` is the Alexander
    polynomial of the closure up to a unit; split inputs give 0.  The
    product with ``(t^(1/2) - t^(-1/2))^(|L|-1)`` is normalised to be
    palindromic with positive top coefficient, matching ``hfk_euler``.

    Entries of a positive word's matrix lie in ``Z[t]`` and are kept as
    dense coefficient lists.  Right-multiplying by generator ``i`` changes
    only column ``i``, to ``t*M[:,i-1] - t*M[:,i] + M[:,i+1]`` (a term
    past the edge is dropped), so each letter costs ``O(n)`` updates.
    The determinant is taken by Bareiss elimination on the transpose,
    whose rows are the stored columns.
    """
    n = w.strands
    if n == 1:
        return HalfLaurent.one()
    size = n - 1
    cols = [[[1] if r == c else [] for r in range(size)] for c in range(size)]
    edge = [[]] * size
    for i in w.letters:
        left = cols[i - 2] if i > 1 else edge
        right = cols[i] if i < size else edge
        cols[i - 1] = [_add([0] + _sub(a, b), c) for a, b, c in zip(left, cols[i - 1], right)]
    for c in range(size):
        cols[c][c] = _sub(cols[c][c], [1])
    quotient = _exact_div(_bareiss_det(cols), [1] * n)
    if not quotient:
        return HalfLaurent.zero()
    raw = HalfLaurent({2 * k: v for k, v in enumerate(quotient)})
    bridged = _euler_bridge(raw, closure_components(w))
    return _normalize_symmetric(bridged)
