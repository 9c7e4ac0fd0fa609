"""Reference Burau engine over dense coefficient lists.

This is the engine ``alexander.alexander_burau`` ran before it packed
each entry of ``Z[t]`` into one integer: every entry is a list of
coefficients, each letter updates one column by list arithmetic, and the
determinant is taken by Bareiss elimination over ``Z[t]``, dividing by
the previous pivot with polynomial long division.  The Euler bridge and
the normalisation are its own too, so it shares nothing with the code it
checks but ``BraidWord``, ``closure_components`` and ``HalfLaurent``.
"""

from itertools import zip_longest

from braidhfk.braidword import BraidWord, closure_components
from braidhfk.polynomials import HalfLaurent, InexactDivisionError


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


def euler_bridge(nabla: HalfLaurent, components: int) -> HalfLaurent:
    """``nabla`` times ``(t^(1/2) - t^(-1/2))^(components - 1)``."""
    for _ in range(components - 1):
        nabla = nabla * HalfLaurent.half_difference()
    return nabla


def normalize_symmetric(p: HalfLaurent) -> HalfLaurent:
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


def burau_by_lists(w: BraidWord) -> HalfLaurent:
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
    return normalize_symmetric(euler_bridge(raw, closure_components(w)))
