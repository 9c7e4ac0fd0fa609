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
* ``next_to_top_via_skein`` never decomposes: it resolves doubled
  crossings and walks the skein exact triangle, in which the map out of
  the top group of the resolved-to-negative term vanishes and the map
  into the oriented resolution's contribution is injective.  Each
  resolution strictly drops the crossing count.  For a connected
  closure the walk carries one integer, the rank at
  ``(M, A) = (-1, g-1)``: 0, 2 and 1 at the unknot, the Hopf link and
  the trefoil, and each step adds 2 (the resolved generator occurs
  exactly twice), 1 (the oriented resolution has fewer components) or
  -1 (it has more).  Maslov 0 stays empty (see ``triangle_solve``).  A
  split closure sums its pieces' ranks and tensors with
  ``V^(x)(s-1)``.

``rn_next_to_top`` runs the same triangle step for the rings of ``n``
linked unknots, whose clasp resolutions are a smaller ring and a
connected sum of Hopf links.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from .braidword import (
    BraidWord,
    DEFAULT_BUDGET,
    MAX_STRANDS,
    RangeError,
    SkeinTriple,
    closure_genus,
    find_adjacent_square,
    require_budget,
    resolve_square,
    split_pieces,
)
from .polynomials import HalfLaurent


class NegativeRankError(ArithmeticError):
    """Exact-triangle bookkeeping produced an impossible rank."""


class UnverifiableError(RuntimeError):
    """The skein recursion could not expose a doubled crossing within budget."""


class BigradedRank:
    """Finitely supported map ``(maslov, alexander) -> positive rank``."""

    __slots__ = ("_r",)

    def __init__(self, ranks: Mapping[tuple[int, int], int] | None = None):
        self._r: dict[tuple[int, int], int] = {}
        if ranks:
            for (m, a), v in ranks.items():
                if v < 0:
                    raise NegativeRankError(f"rank {v} at ({m},{a})")
                if v:
                    self._r[(int(m), int(a))] = int(v)

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

def predicted_next_to_top(p: int, s: int, components: int, g: int) -> BigradedRank:
    """Closed-form next-to-top group from the decomposition counts.

    Supported at ``A = g - 1`` with rank ``(p + components - s) * C(s-1, k)``
    at Maslov ``-1 - k``.
    """
    base = p + components - s
    out: dict[tuple[int, int], int] = {}
    for k in range(s):
        r = base * comb(s - 1, k)
        if r:
            out[(-1 - k, g - 1)] = r
    return BigradedRank(out)


def predicted_top(s: int, g: int) -> BigradedRank:
    """Top group: ``F[0]`` at ``A = g`` for non-split closures, and the
    tensor of the pieces' tops with ``V^(x)(s-1)`` otherwise."""
    return BigradedRank({(0, g): 1}).tensor(V.tensor_power(s - 1))


# --------------------------------------------------------------------------
# The skein exact triangle
# --------------------------------------------------------------------------

def triangle_solve(h_rank: int, minus_rank_neg1: int = 0) -> int:
    """Rank of the unresolved closure at ``(M, A) = (-1, g-1)``.

    ``h_rank`` is the rank of the oriented resolution's contribution at
    that slot: its own next-to-top rank at Maslov -1, plus 2 when the
    resolution has fewer components (the Hopf pattern supplies an extra
    ``F^2`` there).  The resolved-to-negative term's top Alexander grading
    has rank 1 at Maslov 0 and ``minus_rank_neg1`` at Maslov -1: 0 for a
    non-split word, 1 for a two-piece disjoint union.

    The map into the resolved-to-negative top group vanishes and the map
    out of it is injective, so the sequence pins the rank at
    ``h_rank - 1 + minus_rank_neg1``.  The rank at ``(0, g-1)``
    would be inherited unchanged from the oriented resolution's own
    ``(0, g-1)``; no base case (unknot, Hopf link, trefoil) has one, so
    it is zero for every connected closure and is not carried.
    """
    if h_rank < 1:
        raise NegativeRankError(f"injectivity violated: h={h_rank} < 1")
    return h_rank - 1 + minus_rank_neg1


# --------------------------------------------------------------------------
# The inductive computation
# --------------------------------------------------------------------------

_profile_cache: dict[tuple[int, tuple[int, ...]], int] = {}


def clear_caches() -> None:
    _profile_cache.clear()


def _connected_rank(u: BraidWord, budget: int) -> int:
    """Rank of the next-to-top group of a connected closure at Maslov -1.

    Each triangle step needs the rank of its oriented resolution
    ``l_zero``, so the loop first walks down the chain of resolutions to
    a word whose rank is known, then folds the steps back up.  The chain
    is as long as the crossing count, which is why this is a loop and not
    a recursion.
    """
    chain: list[tuple[tuple[int, tuple[int, ...]], SkeinTriple]] = []
    key = (u.strands, u.letters)
    while key not in _profile_cache:
        g = closure_genus(u)
        if g == 0:
            _profile_cache[key] = 0
        elif u.strands == 2 and u.letters == (1, 1):
            _profile_cache[key] = 2  # positive Hopf link
        elif u.strands == 2 and u.letters == (1, 1, 1):
            _profile_cache[key] = 1  # right-handed trefoil
        else:
            sq = find_adjacent_square(u, budget)
            if sq is None:
                raise UnverifiableError(f"no doubled crossing found within budget for {u}")
            triple = resolve_square(sq)
            g_minus = closure_genus(triple.l_minus)
            g_zero = closure_genus(triple.l_zero)
            if not (g == g_minus + 1 == g_zero + triple.delta):
                raise NegativeRankError(f"genus bookkeeping violated at {sq}")
            chain.append((key, triple))
            u = triple.l_zero
            key = (u.strands, u.letters)
    rank = _profile_cache[key]
    for key, triple in reversed(chain):
        i = triple.l_plus.letters[0]
        if triple.l_plus.letters.count(i) == 2:
            # the resolved-to-negative word loses the generator entirely,
            # splitting into two pieces whose top contributes F[0] + F[-1]
            rank = triangle_solve(rank + 2, minus_rank_neg1=1)
        else:
            rank = triangle_solve(rank + (2 if triple.delta == 1 else 0))
        _profile_cache[key] = rank
    return rank


def next_to_top_via_skein(w: BraidWord, budget: int = DEFAULT_BUDGET) -> BigradedRank:
    """Next-to-top group computed inductively from the skein triangle.

    Independent of the split/prime decomposition machinery: splitness is
    read off the word, everything else resolves doubled crossings.  This
    is deliberate, and the reason it never takes the destabilisations and
    cuts of ``immediate_reduction`` the way ``alexander.conway`` does:
    the closed formula it is checked against counts primes with those
    same cut rules, so a recursion that also split at them would share
    any wrong cut with the formula, and ``formula_matches_recursion``
    would still agree.
    """
    require_budget(budget)
    g = closure_genus(w)
    pieces = split_pieces(w)
    rank = sum(_connected_rank(piece, budget) for piece in pieces)
    return BigradedRank({(-1, g - 1): rank}).tensor(V.tensor_power(len(pieces) - 1))


# --------------------------------------------------------------------------
# Rings of linked unknots
# --------------------------------------------------------------------------

def rn_next_to_top(n: int, budget: int = DEFAULT_BUDGET) -> BigradedRank:
    """Next-to-top group of the ring of ``n`` unknots, each clasped to the next.

    Resolving one clasp of the ring of ``m`` unknots gives the ring of
    ``m-1`` unknots, which has fewer components, and the chain of ``m-1``
    Hopf links, whose top group is ``F[0]`` (the top slice of a tensor
    power of ``J``).  So each extra unknot is one triangle step that adds
    1 to the rank, starting from the (2,4) torus link, which is the ring
    of two.  Rings on more than ``MAX_STRANDS`` unknots raise
    ``RangeError``.
    """
    if n < 3:
        raise ValueError(f"ring computation needs n >= 3, got {n}")
    if n > MAX_STRANDS:
        raise RangeError(f"rings of at most {MAX_STRANDS} unknots are accepted, got {n}")
    # two unknots clasped twice close to the (2,4) torus link, of genus 1
    rank = next_to_top_via_skein(BraidWord(2, (1, 1, 1, 1)), budget).rank_at(-1, 1)
    for _ in range(3, n + 1):
        rank = triangle_solve(rank + 2)
    return BigradedRank({(-1, n - 1): rank})
