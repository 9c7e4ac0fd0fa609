"""Bigraded rank algebra and the top two knot Floer homology groups of
positive braid links.

Ranks are dimensions over the two-element field, recorded as a finitely
supported map ``(maslov, alexander) -> rank``; with the integral Maslov
convention used throughout, positive braid links live in non-positive
Maslov gradings.  Two constants recur: ``J``, the rank pattern of the
positive Hopf link, which enters the skein sequence whenever the
resolved diagram has fewer components, and ``V``, the pattern tensored
on by a disjoint union.

The next-to-top Alexander grading is computed two independent ways:

* ``predicted_next_to_top`` is the closed formula
  ``F^(p+|L|-s)[-1] (x) (F[0] + F[-1])^(x)(s-1)`` placed at
  ``A = g - 1``, driven by the split/prime decomposition;
* ``next_to_top_via_skein`` never decomposes: it resolves a doubled
  crossing ``s_i s_i b`` into ``l_minus = b`` and ``l_zero = s_i b``
  along the chain of ``l_zero`` resolutions, and counts the split steps,
  whose generator occurs exactly twice (``l_minus`` is a two-piece union).

The count is the skein exact triangle summed along the chain.  The map
out of the top group of the resolved-to-negative term vanishes and the
map into the oriented resolution's contribution is injective, so a step
moves the rank at ``(M, A) = (-1, g-1)`` by +2 when it splits, +1 when
``l_zero`` has fewer components and -1 when it has more; Maslov 0 stays
empty.  ``reference_chain`` in ``tests/test_hfk.py`` folds that step,
``h - 1 + splits`` from the rank ``h`` of the oriented resolution plus 2
when it has fewer components.  A connected closure with ``mu`` components
on ``n`` strands and ``len`` letters has genus ``g = (mu - n + len) / 2``.
Its chain ends at the only base case, an unknot of ``n - 1`` letters and
rank 0, in ``N = len - n + 1`` steps, ``g`` of which drop the genus.  With
``S`` split steps (each drops the genus) the rank is
``2S + (g - S) - (N - g) = mu - 1 + S``, and a split closure sums its
pieces' ranks and tensors with ``V^(x)(s-1)``.  The closed formula puts
``p + mu - 1`` there, so the two routes agree when the chain meets
exactly ``p`` split steps.

So the chain carries no rank, genus or permutation, and the checks of
the fold it replaces cannot fire.  ``l_zero`` is connected (``b`` lacks
at most ``s_i``, which ``l_zero`` puts back), and a connected word, with
every generator and at least one component, has genus 0 exactly when it
has ``n - 1`` letters.  ``l_minus`` has the square's permutation and two
letters fewer, so genus ``g - 1``, as long as the square search keeps the
closure (the tests check each square against the move orbit).  And when
``l_zero`` has more components it has at least two, so its rank
``mu - 1 + S`` meets the injectivity bound ``h >= 1`` that
``reference_chain`` asserts.  The tests also pin ``S = p`` on the
connected words of positive genus in ``corpus(4, 8)``.

``rn_next_to_top`` sums the same step over the rings of ``n`` linked
unknots, whose clasp resolutions are a smaller ring and a connected sum
of Hopf links: each unknot past the (2,4) torus link adds 1.
"""

from __future__ import annotations

from math import comb
from operator import index
from typing import Mapping

from .braidword import (
    BraidWord,
    BudgetError,
    DEFAULT_BUDGET,
    MAX_STRANDS,
    RangeError,
    _square_letters,
    closure_components,
    closure_genus,
    require_budget,
    split_pieces,
)
from .polynomials import HalfLaurent


class NegativeRankError(ArithmeticError):
    """A rank passed to ``BigradedRank`` is negative."""


class BigradedRank:
    """Finitely supported map ``(maslov, alexander) -> positive rank``.

    No public method changes a value once built, so the tables below hand
    one object to every caller.  Gradings and ranks are read with
    ``operator.index``: a bool becomes an int, and any other non-integer
    raises ``TypeError``.
    """

    __slots__ = ("_r",)

    def __init__(self, ranks: Mapping[tuple[int, int], int] | None = None):
        self._r: dict[tuple[int, int], int] = {}
        if ranks:
            for (m, a), v in ranks.items():
                m, a, v = index(m), index(a), index(v)
                if v < 0:
                    raise NegativeRankError(f"rank {v} at ({m},{a})")
                if v:
                    self._r[(m, a)] = v

    @classmethod
    def zero(cls) -> "BigradedRank":
        return cls()

    @classmethod
    def unit(cls) -> "BigradedRank":
        return cls({(0, 0): 1})

    def __bool__(self) -> bool:
        return bool(self._r)

    def __eq__(self, other) -> bool:
        return isinstance(other, BigradedRank) and self._r == other._r

    def __hash__(self):
        return hash(frozenset(self._r.items()))

    def rank_at(self, m: int, a: int) -> int:
        return self._r.get((m, a), 0)

    def __add__(self, other: "BigradedRank") -> "BigradedRank":
        out = dict(self._r)
        for k, v in other._r.items():
            out[k] = out.get(k, 0) + v
        return BigradedRank(out)

    def tensor(self, other: "BigradedRank") -> "BigradedRank":
        out: dict[tuple[int, int], int] = {}
        for (m1, a1), v1 in self._r.items():
            for (m2, a2), v2 in other._r.items():
                k = (m1 + m2, a1 + a2)
                out[k] = out.get(k, 0) + v1 * v2
        return BigradedRank(out)

    def tensor_power(self, n: int) -> "BigradedRank":
        acc = BigradedRank.unit()
        for _ in range(n):
            acc = acc.tensor(self)
        return acc

    def signed_euler(self) -> HalfLaurent:
        """``sum (-1)^m rank t^a`` as a Laurent polynomial."""
        return HalfLaurent.from_pairs(
            (2 * a, v if m % 2 == 0 else -v) for (m, a), v in self._r.items()
        )

    def to_triples(self) -> list[list[int]]:
        """JSON form: ``[maslov, alexander, rank]`` sorted by (A desc, M desc)."""
        keys = sorted(self._r, key=lambda k: (-k[1], -k[0]))
        return [[m, a, self._r[(m, a)]] for m, a in keys]

    def __str__(self) -> str:
        if not self._r:
            return "0"
        parts = []
        for m, a, r in self.to_triples():
            head = "F" if r == 1 else f"F^{r}"
            parts.append(f"{head}[{m},{a}]")
        return " ⊕ ".join(parts)

    def __repr__(self) -> str:
        return f"BigradedRank({self._r!r})"


#: Rank pattern of the positive Hopf link.
J = BigradedRank({(0, 1): 1, (-1, 0): 2, (-2, -1): 1})
#: Pattern tensored on by a disjoint union.
V = BigradedRank({(0, 0): 1, (-1, 0): 1})


# --------------------------------------------------------------------------
# Closed formulas
# --------------------------------------------------------------------------
#
# The formulas read only the decomposition counts, and a corpus of
# thousands of words has a few dozen distinct counts, so each group is
# built once per distinct input and kept in a table beside its function.
# The entry of ``(p, s, components, g)`` also holds the coefficients of
# ``t^g`` and ``t^(g-1)`` in the signed Euler characteristic of the top
# and next-to-top groups, which ``verify``'s ``euler_top_slice`` check
# compares with the polynomial.  They are read off the groups the
# formulas build, not from a closed form of their own, so a wrong group
# still moves them.  These two tables serve the formula route only; the
# recursion keeps its own (``_skein_group_cache``), so no cross-check
# reads the other route's values.

#: ``predicted_top`` of each ``(s, g)``.
_top_cache: dict[tuple[int, int], BigradedRank] = {}


def predicted_top(s: int, g: int) -> BigradedRank:
    """Top group: ``F[0]`` at ``A = g`` for non-split closures, and the
    tensor of the pieces' tops with ``V^(x)(s-1)`` otherwise.  Kept in
    ``_top_cache``."""
    key = (s, g)
    if key not in _top_cache:
        _top_cache[key] = BigradedRank({(0, g): 1}).tensor(V.tensor_power(s - 1))
    return _top_cache[key]


#: ``closed_form`` of each ``(p, s, components, g)``.
_next_to_top_cache: dict[tuple[int, int, int, int], tuple[BigradedRank, int, int]] = {}


def _next_to_top_formula(p: int, s: int, components: int, g: int) -> BigradedRank:
    """Rank ``(p + components - s) * C(s-1, k)`` at ``(-1 - k, g - 1)``."""
    base = p + components - s
    out: dict[tuple[int, int], int] = {}
    for k in range(s):
        r = base * comb(s - 1, k)
        if r:
            out[(-1 - k, g - 1)] = r
    return BigradedRank(out)


def closed_form(p: int, s: int, components: int, g: int) -> tuple[BigradedRank, int, int]:
    """The next-to-top group of the closed formula, and the coefficients of
    ``t^g`` and ``t^(g-1)`` in the signed Euler characteristic of
    ``predicted_top(s, g)`` plus that group.

    Built once per distinct input and kept in ``_next_to_top_cache``.
    """
    key = (p, s, components, g)
    if key not in _next_to_top_cache:
        group = _next_to_top_formula(p, s, components, g)
        euler = (predicted_top(s, g) + group).signed_euler()
        _next_to_top_cache[key] = (group, euler.coefficient(g), euler.coefficient(g - 1))
    return _next_to_top_cache[key]


def predicted_next_to_top(p: int, s: int, components: int, g: int) -> BigradedRank:
    """Closed-form next-to-top group from the decomposition counts.

    Supported at ``A = g - 1`` with rank ``(p + components - s) * C(s-1, k)``
    at Maslov ``-1 - k``: the group of ``closed_form``'s entry.
    """
    return closed_form(p, s, components, g)[0]


# --------------------------------------------------------------------------
# The inductive computation
# --------------------------------------------------------------------------

#: Split steps from each chain word down, by ``(budget, strands, letters)``.
_profile_cache: dict[tuple[int, int, tuple[int, ...]], int] = {}

#: The recursion's group for each ``(rank, g, pieces)``.
_skein_group_cache: dict[tuple[int, int, int], BigradedRank] = {}


def clear_caches() -> None:
    _next_to_top_cache.clear()
    _top_cache.clear()
    _profile_cache.clear()
    _skein_group_cache.clear()


def _split_steps(u: BraidWord, budget: int) -> int:
    """Number of split steps on the ``l_zero`` chain of a connected word.

    Walks the chain until a word has ``n - 1`` letters (genus 0) or is
    tabled, and then tables, for each word walked, the split steps from it
    down.  The table key holds the budget, so that no count found under
    one budget answers another.  Raises ``BudgetError`` when the square
    search of a word finds no doubled crossing within the budget.
    """
    n, letters = u.strands, u.letters
    walked: list[tuple[tuple[int, int, tuple[int, ...]], bool]] = []
    count = 0
    while len(letters) >= n:
        key = (budget, n, letters)
        if key in _profile_cache:
            count = _profile_cache[key]
            break
        sq = _square_letters(n, letters, budget)
        if sq is None:
            raise BudgetError(
                f"no doubled crossing found within budget for {BraidWord(n, letters)}"
            )
        walked.append((key, sq[0] not in sq[2:]))
        letters = sq[1:]
    for key, splits in reversed(walked):
        count += splits
        _profile_cache[key] = count
    return count


def next_to_top_via_skein(w: BraidWord, budget: int = DEFAULT_BUDGET) -> BigradedRank:
    """Next-to-top group computed inductively from the skein triangle.

    Independent of the split/prime decomposition machinery: splitness is
    read off the word, everything else resolves doubled crossings.  This
    is deliberate, and the reason it never takes the destabilisations and
    cuts of ``immediate_reduction`` the way ``alexander.conway`` does:
    the closed formula it is checked against counts primes with those
    same cut rules, so a recursion that also split at them would share
    any wrong cut with the formula, and ``formula_matches_recursion``
    would still agree.  Each piece contributes ``mu - 1 + S``.

    The group is built once per ``(rank, g, pieces)`` and kept in
    ``_skein_group_cache``; a chain that raises ``BudgetError`` leaves no
    entry.
    """
    require_budget(budget)
    g = closure_genus(w)
    pieces = split_pieces(w)
    splits = sum(_split_steps(piece, budget) for piece in pieces)
    rank = closure_components(w) - len(pieces) + splits
    key = (rank, g, len(pieces))
    if key not in _skein_group_cache:
        _skein_group_cache[key] = BigradedRank({(-1, g - 1): rank}).tensor(V.tensor_power(len(pieces) - 1))
    return _skein_group_cache[key]


# --------------------------------------------------------------------------
# Rings of linked unknots
# --------------------------------------------------------------------------

def rn_next_to_top(n: int) -> BigradedRank:
    """Next-to-top group of the ring of ``n`` unknots, each clasped to the next.

    Resolving one clasp of the ring of ``m`` unknots gives the ring of
    ``m-1`` unknots, which has fewer components, and the chain of ``m-1``
    Hopf links, whose top group is ``F[0]`` (the top slice of a tensor
    power of ``J``).  So each extra unknot is one triangle step that adds
    1 to the rank, and the sum over the ``n - 2`` unknots past the (2,4)
    torus link, the ring of two, puts ``rank(T(2,4)) + n - 2`` at
    ``(-1, n-1)``.  Rings on more than ``MAX_STRANDS`` unknots raise
    ``RangeError``.  The base case runs the chain on ``s_1^4``, where
    ``_exchange`` finds every square at the second letter, so the chain
    visits no simple conjugate and never spends its default budget.
    """
    if n < 3:
        raise ValueError(f"ring computation needs n >= 3, got {n}")
    if n > MAX_STRANDS:
        raise RangeError(f"rings of at most {MAX_STRANDS} unknots are accepted, got {n}")
    # two unknots clasped twice close to the (2,4) torus link, of genus 1
    rank = next_to_top_via_skein(BraidWord(2, (1, 1, 1, 1))).rank_at(-1, 1)
    return BigradedRank({(-1, n - 1): rank + n - 2})
