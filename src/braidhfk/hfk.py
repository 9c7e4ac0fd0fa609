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
  resolution strictly drops the crossing count.

``rn_next_to_top`` runs the same triangle bookkeeping for the rings of
``n`` linked unknots, whose clasp resolutions are a smaller ring and a
connected sum of Hopf links.
"""

from __future__ import annotations

import dataclasses
from math import comb
from typing import Mapping

from .braidword import (
    BraidWord,
    DEFAULT_BUDGET,
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

    @property
    def total_rank(self) -> int:
        return sum(self._r.values())

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

    def alexander_slice(self, a: int) -> dict[int, int]:
        """Maslov profile at a fixed Alexander grading."""
        return {m: v for (m, aa), v in self._r.items() if aa == a}

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


def tensor(a: BigradedRank, b: BigradedRank) -> BigradedRank:
    return a.tensor(b)


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

@dataclasses.dataclass(frozen=True)
class TriangleInstance:
    """One application of the skein sequence at the top two gradings.

    ``h_rank`` is the rank of the oriented resolution's contribution at
    the relevant slot: its next-to-top rank at Maslov -1, plus 2 when the
    resolution has fewer components (the Hopf pattern supplies an extra
    ``F^2`` there).  ``zero_rank0`` is the resolution's next-to-top rank
    at Maslov 0.  The ``minus_*`` fields are the resolved-to-negative
    term's ranks at Maslov 0 and -1 in its top Alexander grading: (1, 0)
    for a non-split word, (1, 1) for a two-piece disjoint union.
    """

    zero_has_more_components: bool
    h_rank: int
    zero_rank0: int
    minus_rank0: int = 1
    minus_rank_neg1: int = 0


def triangle_solve(inst: TriangleInstance) -> tuple[int, int]:
    """Ranks of the unresolved closure at ``(M, A) = (-1, g-1)`` and ``(0, g-1)``.

    The map into the resolved-to-negative top group vanishes and the map
    out of it is injective, so the sequence pins the ranks: Maslov -1
    gets ``h_rank - minus_rank0 + minus_rank_neg1`` and Maslov 0 is
    inherited from the resolution's own next-to-top grading.
    """
    if inst.h_rank < inst.minus_rank0:
        raise NegativeRankError(
            f"injectivity violated: h={inst.h_rank} < {inst.minus_rank0}"
        )
    rank_neg1 = inst.h_rank - inst.minus_rank0 + inst.minus_rank_neg1
    return rank_neg1, inst.zero_rank0


# --------------------------------------------------------------------------
# The inductive computation
# --------------------------------------------------------------------------

_V_PROFILE = {0: 1, -1: 1}

_profile_cache: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}


def clear_caches() -> None:
    _profile_cache.clear()


def _convolve(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for m1, v1 in p.items():
        for m2, v2 in q.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + v1 * v2
    return out


def _split_profile(w: BraidWord, budget: int) -> dict[int, int]:
    pieces = split_pieces(w)
    total: dict[int, int] = {}
    for piece in pieces:
        for m, v in _connected_profile(piece, budget).items():
            total[m] = total.get(m, 0) + v
    for _ in range(len(pieces) - 1):
        total = _convolve(total, _V_PROFILE)
    return total


def _connected_profile(u: BraidWord, budget: int) -> dict[int, int]:
    """Maslov profile of the next-to-top grading of a connected closure.

    Each triangle step needs the profile of its oriented resolution
    ``l_zero``, so the loop first walks down the chain of resolutions to
    a word whose profile is known, then folds the steps back up.  The
    chain is as long as the crossing count, which is why this is a loop
    and not a recursion.
    """
    chain: list[tuple[tuple[int, tuple[int, ...]], SkeinTriple]] = []
    key = (u.strands, u.letters)
    while key not in _profile_cache:
        g = closure_genus(u)
        if g == 0:
            _profile_cache[key] = {}
        elif u.strands == 2 and u.letters == (1, 1):
            _profile_cache[key] = {-1: 2}  # positive Hopf link
        elif u.strands == 2 and u.letters == (1, 1, 1):
            _profile_cache[key] = {-1: 1}  # right-handed trefoil
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
    result = _profile_cache[key]
    for key, triple in reversed(chain):
        r0_neg1 = result.get(-1, 0)
        r0_zero = result.get(0, 0)
        i = triple.l_plus.letters[0]
        count = triple.l_plus.letters.count(i)
        fewer = triple.delta == 1
        if count == 2:
            # the resolved-to-negative word loses the generator entirely,
            # splitting into two pieces whose top contributes F[0] + F[-1]
            inst = TriangleInstance(
                zero_has_more_components=False,
                h_rank=r0_neg1 + 2,
                zero_rank0=r0_zero,
                minus_rank0=1,
                minus_rank_neg1=1,
            )
        else:
            inst = TriangleInstance(
                zero_has_more_components=not fewer,
                h_rank=r0_neg1 + (2 if fewer else 0),
                zero_rank0=r0_zero,
            )
        rank_neg1, rank_zero = triangle_solve(inst)
        result = {}
        if rank_neg1:
            result[-1] = rank_neg1
        if rank_zero:
            result[0] = rank_zero
        _profile_cache[key] = result
    return result


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
    profile = _split_profile(w, budget)
    return BigradedRank({(m, g - 1): v for m, v in profile.items()})


# --------------------------------------------------------------------------
# Rings of linked unknots
# --------------------------------------------------------------------------

def rn_next_to_top(n: int, budget: int = DEFAULT_BUDGET) -> BigradedRank:
    """Next-to-top group of the ring of ``n`` unknots, each clasped to the next.

    Resolving one clasp gives the ring of ``n-1`` unknots and the chain of
    ``n-1`` Hopf links; the chain's ranks are tensor powers of the Hopf
    pattern, and the two-ring base case is the (2,4) torus link.
    """
    if n < 3:
        raise ValueError(f"ring computation needs n >= 3, got {n}")
    profile = dict(
        next_to_top_via_skein(BraidWord(2, (1, 1, 1, 1)), budget).alexander_slice(1)
    )
    genus = 2  # two unknots clasped twice close to the (2,4) torus link
    for m in range(3, n + 1):
        hopf_chain = J.tensor_power(m - 1)
        top_a = m - 1
        top_slice = hopf_chain.alexander_slice(top_a)
        if top_slice != {0: 1}:
            raise NegativeRankError("Hopf chain top group is not F[0]")
        genus += 1
        if genus != m:  # one clasp resolution raises the genus by one
            raise NegativeRankError("ring genus bookkeeping violated")
        inst = TriangleInstance(
            zero_has_more_components=False,  # the smaller ring has m-1 < m circles
            h_rank=profile.get(-1, 0) + 2,
            zero_rank0=profile.get(0, 0),
            minus_rank0=top_slice[0],
            minus_rank_neg1=top_slice.get(-1, 0),
        )
        rank_neg1, rank_zero = triangle_solve(inst)
        profile = {}
        if rank_neg1:
            profile[-1] = rank_neg1
        if rank_zero:
            profile[0] = rank_zero
    return BigradedRank({(m, n - 1): v for m, v in profile.items()})
