"""Two independent Alexander polynomial engines for positive braid closures.

``conway`` resolves doubled crossings with the oriented skein relation
``nabla(L+) = nabla(L-) + z * nabla(L0)``.  It reads splitness and the
unknot off the word, and it splits off a summand only where an O(len)
destabilisation or cut fires on the word as written; it never runs the
orbit search of ``decompose``, so it stays an independent check of it.
``alexander_burau`` is the classical matrix route: the determinant of
``reduced_burau(word) - I`` divided by ``1 + t + ... + t^(n-1)``.

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

from .braidword import (
    BraidWord,
    DEFAULT_BUDGET,
    closure_components,
    closure_genus,
    find_adjacent_square,
    immediate_reduction,
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
    a cut fires on the word as written, the result is the product over
    the pieces, since Conway is multiplicative under connected sum.
    Everything else resolves at a doubled crossing found by
    ``find_adjacent_square``; every step strictly reduces the crossing
    count, so the recursion terminates.
    """
    key = (w.strands, w.letters)
    hit = _conway_cache.get(key)
    if hit is not None:
        return hit
    if not w.is_connected:
        result = ConwayPoly.zero()
    elif closure_genus(w) == 0:
        result = ConwayPoly.one()
    elif (r := immediate_reduction(w.strands, w.letters)) is not None:
        result = ConwayPoly.one()
        for strands, letters in r[1:]:
            result = result * conway(BraidWord(strands, letters), budget)
    else:
        sq = find_adjacent_square(w, budget)
        if sq is None:
            raise EngineFailure(f"no doubled crossing found within budget for {w}")
        triple = resolve_square(sq)
        result = conway(triple.l_minus, budget) + conway(triple.l_zero, budget).times_z()
    _conway_cache[key] = result
    return result


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

def _burau_entries(n: int, i: int) -> dict[tuple[int, int], HalfLaurent]:
    """Nonidentity entries of the reduced Burau matrix of generator ``i``.

    Rows and columns are indexed ``1..n-1``; ``t`` is stored with doubled
    exponent 2.
    """
    t = HalfLaurent.monomial(2)
    minus_t = HalfLaurent.monomial(2, -1)
    one = HalfLaurent.one()
    entries: dict[tuple[int, int], HalfLaurent] = {(i, i): minus_t}
    if i > 1:
        entries[(i - 1, i)] = t
    if i < n - 1:
        entries[(i + 1, i)] = one
    return entries


def _burau_matrix(n: int, i: int) -> list[list[HalfLaurent]]:
    zero = HalfLaurent.zero()
    one = HalfLaurent.one()
    m = [[one if r == c else zero for c in range(n - 1)] for r in range(n - 1)]
    for (r, c), v in _burau_entries(n, i).items():
        m[r - 1][c - 1] = v
    return m


def _mat_mul(a: list[list[HalfLaurent]], b: list[list[HalfLaurent]]) -> list[list[HalfLaurent]]:
    size = len(a)
    out = []
    for r in range(size):
        row = []
        for c in range(size):
            acc = HalfLaurent.zero()
            for k in range(size):
                if a[r][k] and b[k][c]:
                    acc = acc + a[r][k] * b[k][c]
            row.append(acc)
        out.append(row)
    return out


def _det(m: list[list[HalfLaurent]]) -> HalfLaurent:
    """Laplace expansion memoised over column subsets (fine for small n)."""
    size = len(m)
    if size == 0:
        return HalfLaurent.one()
    full = (1 << size) - 1
    memo: dict[int, HalfLaurent] = {0: HalfLaurent.one()}

    def minor(cols: int) -> HalfLaurent:
        hit = memo.get(cols)
        if hit is not None:
            return hit
        row = size - bin(cols).count("1")
        acc = HalfLaurent.zero()
        pos = 0
        for c in range(size):
            bit = 1 << c
            if not cols & bit:
                continue
            if m[row][c]:
                term = m[row][c] * minor(cols & ~bit)
                acc = acc + (term if pos % 2 == 0 else -term)
            pos += 1
        memo[cols] = acc
        return acc

    return minor(full)


def _cyclotomic_like(n: int) -> HalfLaurent:
    """``1 + t + ... + t^(n-1)`` with doubled exponents."""
    return HalfLaurent({2 * k: 1 for k in range(n)})


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
    """
    n = w.strands
    if n == 1:
        return HalfLaurent.one()
    mat = [[HalfLaurent.one() if r == c else HalfLaurent.zero() for c in range(n - 1)]
           for r in range(n - 1)]
    for i in w.letters:
        mat = _mat_mul(mat, _burau_matrix(n, i))
    for r in range(n - 1):
        mat[r][r] = mat[r][r] - HalfLaurent.one()
    quotient = _det(mat).exact_div(_cyclotomic_like(n))
    if not quotient:
        return HalfLaurent.zero()
    bridged = _euler_bridge(quotient, closure_components(w))
    return _normalize_symmetric(bridged)
