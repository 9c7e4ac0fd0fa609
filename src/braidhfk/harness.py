"""Word families, corpus enumeration, and the cross-engine verification
pipeline.

``verify`` runs every computation the package offers on one word and
compares everything against everything: the two polynomial engines (plus
the Kauffman state sum on knots), the closed-form next-to-top group
against the skein recursion, the second Alexander coefficient against
the decomposition counts.  Check failures are recorded, never raised;
the report is the falsification instrument.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Iterable, Iterator, Optional, Sequence

from .alexander import alexander_burau, hfk_euler
from .braidword import (
    BraidWord,
    BudgetError,
    DEFAULT_BUDGET,
    MAX_CORPUS_WORDS,
    RangeError,
    closure_genus,
    decompose,
    parse_serialized,
    require_size,
)
from .hfk import (
    BigradedRank,
    closed_form,
    next_to_top_via_skein,
    predicted_top,
)
# bigraded_counts and enumerate_states, and the Seifert functions from_braid,
# euler_and_genus and fibered_positive, are unused here, but perfbench's
# tracer wraps them on this module
from .kauffman import (
    M_WEIGHTS,
    bigraded_counts,
    build_diagram,
    enumerate_states,
    euler_and_top_slice,
)
from .polynomials import HalfLaurent
from .seifert import euler_and_genus, fibered_positive, from_braid


class UnknownFamilyError(ValueError):
    """No word family of that name."""


class BadParamsError(ValueError):
    """Family parameters of the wrong shape."""


# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------

def torus(p: int, q: int) -> BraidWord:
    """The (p, q) torus word ``(s_1 ... s_{p-1})^q`` on ``p`` strands."""
    if p < 1 or q < 0:
        raise BadParamsError(f"torus needs p >= 1 and q >= 0, got ({p}, {q})")
    require_size(p, (p - 1) * q)
    return BraidWord(p, tuple(range(1, p)) * q)


def t2(k: int) -> BraidWord:
    """``s_1^k`` on two strands."""
    if k < 0:
        raise BadParamsError(f"t2 needs k >= 0, got {k}")
    require_size(2, k)
    return BraidWord(2, (1,) * k)


def figure3() -> BraidWord:
    """The 10-crossing example knot (10_139), ``s1^2 s2^3 s1 s2^4``."""
    return BraidWord(3, (1, 1, 2, 2, 2, 1, 2, 2, 2, 2))


def connected_sum(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """Stack ``w2`` on top of ``w1`` sharing one strand."""
    shift = w1.strands - 1
    require_size(shift + w2.strands, len(w1) + len(w2))
    letters = w1.letters + tuple(x + shift for x in w2.letters)
    return BraidWord(w1.strands + w2.strands - 1, letters)


def disjoint_union(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """Place ``w2`` on fresh strands above ``w1``."""
    shift = w1.strands
    require_size(shift + w2.strands, len(w1) + len(w2))
    letters = w1.letters + tuple(x + shift for x in w2.letters)
    return BraidWord(w1.strands + w2.strands, letters)


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise BadParamsError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise BadParamsError(f"{what} must be an integer, got {value!r}") from None


def _as_word(value, what: str) -> BraidWord:
    if isinstance(value, BraidWord):
        return value
    if isinstance(value, str):
        return parse_serialized(value)
    raise BadParamsError(f"{what} must be a braid word, got {value!r}")


def family(name: str, *params) -> BraidWord:
    """Construct a named word: torus, t2, figure3, connected_sum, disjoint_union."""
    if name == "torus":
        if len(params) != 2:
            raise BadParamsError("torus takes parameters p q")
        return torus(_as_int(params[0], "p"), _as_int(params[1], "q"))
    if name == "t2":
        if len(params) != 1:
            raise BadParamsError("t2 takes one parameter k")
        return t2(_as_int(params[0], "k"))
    if name == "figure3":
        if params:
            raise BadParamsError("figure3 takes no parameters")
        return figure3()
    if name == "connected_sum":
        if len(params) != 2:
            raise BadParamsError("connected_sum takes two words")
        return connected_sum(_as_word(params[0], "w1"), _as_word(params[1], "w2"))
    if name == "disjoint_union":
        if len(params) != 2:
            raise BadParamsError("disjoint_union takes two words")
        return disjoint_union(_as_word(params[0], "w1"), _as_word(params[1], "w2"))
    raise UnknownFamilyError(f"unknown family {name!r}")


# --------------------------------------------------------------------------
# Corpus
# --------------------------------------------------------------------------

def necklaces(k: int, length: int) -> Iterator[tuple[int, ...]]:
    """The words of ``length`` letters over ``1..k`` that are least among
    their rotations, in lex order, by the Fredricksen-Kessler-Maiorana
    algorithm (Ruskey, Savage and Wang, *J. Algorithms* 13, 1992).

    It walks the prenecklaces (prefixes of necklaces) in lex order: the
    next one raises the last letter below ``k`` at some position ``i`` and
    repeats ``a[1..i]`` after it, and it is a necklace when ``i`` divides
    ``length``.  The walk does constant work per necklace on average.
    """
    if length == 0:
        yield ()
        return
    a = [0] + [1] * length  # a[0] is a sentinel below every letter
    p = 1
    while True:
        if length % p == 0:
            yield tuple(a[1:])
        i = length
        while a[i] == k:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, length + 1):
            a[j] = a[j - i]
        p = i


def corpus(max_strands: int, max_len: int) -> list[BraidWord]:
    """All words on ``max_strands`` strands of length <= ``max_len``, one per
    rotation/commutation class: the lex-least member.  Shorter words come
    first, and words of one length in lex order.

    The least member of a class is no greater than any of its rotations,
    so it is a necklace.  A class is a union of necklaces, closed under
    swapping two cyclically adjacent letters that differ by at least 2
    (a distant commutation of some rotation) and taking the least
    rotation of the result.  So the walk runs over the necklaces of each
    length in lex order (``necklaces``); each one not yet seen is the
    least member of a new class, whose necklaces are then flooded by
    those swaps and marked seen.  On two letters every such swap is a
    rotation, so each necklace is a class of its own.

    ``RangeError`` when the classes would cover more than
    ``MAX_CORPUS_WORDS`` words."""
    if max_strands < 2:
        raise ValueError("corpus needs at least 2 strands")
    if max_len < 0:
        raise ValueError(f"corpus needs a length >= 0, got {max_len}")
    require_size(max_strands, max_len)
    covered, count = 0, 1
    for _ in range(max_len + 1):
        covered += count
        if covered > MAX_CORPUS_WORDS:
            raise RangeError(
                f"corpus({max_strands}, {max_len}) would cover more than {MAX_CORPUS_WORDS} words"
            )
        count *= max_strands - 1
    words: list[BraidWord] = []
    for length in range(max_len + 1):
        seen: set[tuple[int, ...]] = set()
        rotations = [slice(i, i + length) for i in range(length)]
        for least in necklaces(max_strands - 1, length):
            if least in seen:
                continue
            words.append(BraidWord(max_strands, least))
            if length <= 2:
                continue
            seen.add(least)
            stack = [least]
            while stack:
                v = stack.pop()
                d = v + v
                for j in range(length):
                    a, b = d[j], d[j + 1]
                    if a - b >= 2 or b - a >= 2:
                        # v rotated to start at j, its first two letters swapped
                        u = (b, a) + d[j + 2:j + length]
                        u += u
                        nb = min(map(u.__getitem__, rotations))
                        if nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
    return words


def read_corpus_lines(lines: Iterable[str]) -> list[BraidWord]:
    """Words from corpus-file lines: one word per line, ``#`` comments,
    optional ``strands=N:`` prefix.  A word that does not parse raises its
    own error class, its message prefixed with ``line N: ``."""
    words = []
    for number, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if body:
            try:
                words.append(parse_serialized(body))
            except ValueError as exc:
                raise type(exc)(f"line {number}: {exc}") from exc
    return words


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

@dataclasses.dataclass
class VerificationReport:
    """Everything computed for one word, plus per-check outcomes.

    ``elapsed`` is wall-clock seconds and is excluded from the canonical
    serialized form so that re-runs are byte-identical.
    """

    word: BraidWord
    components: int
    split_count: int
    prime_count: int
    verified: bool
    chi: int
    genus: int
    fibered: bool
    skein_euler: Optional[HalfLaurent]
    burau_euler: Optional[HalfLaurent]
    kauffman_euler: Optional[HalfLaurent]
    predicted_top: BigradedRank
    predicted_next_to_top: BigradedRank
    skein_next_to_top: Optional[BigradedRank]
    second_coefficient: Optional[int]
    expected_second: Optional[int]
    checks: dict[str, bool]
    notes: tuple[str, ...]
    elapsed: float

    @property
    def overall_pass(self) -> bool:
        return all(self.checks.values())

    def to_json(self, include_timing: bool = False) -> dict:
        def poly(p: Optional[HalfLaurent]):
            return None if p is None else p.to_pairs()

        def rank(r: Optional[BigradedRank]):
            return None if r is None else r.to_triples()

        out = {
            "word": self.word.to_json(),
            "components": self.components,
            "split_count": self.split_count,
            "prime_count": self.prime_count,
            "verified": self.verified,
            "chi": self.chi,
            "genus": self.genus,
            "fibered": self.fibered,
            "alexander": {
                "skein": poly(self.skein_euler),
                "burau": poly(self.burau_euler),
                "kauffman": poly(self.kauffman_euler),
            },
            "hfk": {
                "predicted_top": rank(self.predicted_top),
                "predicted_next_to_top": rank(self.predicted_next_to_top),
                "skein_next_to_top": rank(self.skein_next_to_top),
                "second_coefficient": self.second_coefficient,
                "expected_second": self.expected_second,
            },
            "checks": dict(self.checks),
            "notes": list(self.notes),
            "pass": self.overall_pass,
        }
        if include_timing:
            out["elapsed"] = self.elapsed
        return out

    def render_text(self) -> str:
        lines = [
            str(self.word),
            f"  |L|={self.components}  s={self.split_count}  p={self.prime_count}"
            f"  chi={self.chi}  g={self.genus}  fibered={self.fibered}"
            f"  verified={self.verified}",
        ]
        if self.skein_euler is not None:
            lines.append(f"  euler (skein): {self.skein_euler}")
        if self.burau_euler is not None:
            lines.append(f"  euler (burau): {self.burau_euler}")
        if self.kauffman_euler is not None:
            lines.append(f"  euler (kauffman): {self.kauffman_euler}")
        lines.append(f"  top: {self.predicted_top}")
        lines.append(f"  next-to-top (formula):   {self.predicted_next_to_top}")
        if self.skein_next_to_top is not None:
            lines.append(f"  next-to-top (recursion): {self.skein_next_to_top}")
        if self.second_coefficient is not None:
            lines.append(
                f"  second coefficient: {self.second_coefficient}"
                f" (expected {self.expected_second})"
            )
        for name, ok in self.checks.items():
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  => {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def verify(w: BraidWord, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run every engine on one word and cross-check the results.

    Checks of the Euler characteristic read ``euler_poly``: skein's, or Burau's when skein
    failed.  Only ``skein_equals_burau`` and ``split_vanishing`` compare the engines, so a
    failing engine fails only its own checks.  The skein sweep, the Kauffman sweep and the
    next-to-top chain fail only by ``BudgetError``, recorded as a note.  The chain divides
    nothing, and its rank ``closure_components(w) - len(pieces) + S`` is never negative:
    each split piece closes to at least one component, and ``S >= 0``.  Only Burau's
    exactness checks raise ``ArithmeticError``.

    ``euler_top_slice`` compares the coefficients of ``t^g`` and ``t^(g-1)`` in
    ``euler_poly`` with those of the signed Euler characteristic of the predicted top and
    next-to-top groups.  ``closed_form`` reads that pair off the two groups once per
    ``(p, s, |L|, g)``, so a group that moves the Euler characteristic fails the check.
    A group that gains equal ranks at Maslov 0 and -1 of ``A = g - 1`` keeps it, and
    only ``formula_matches_recursion`` sees that.

    The Seifert surface of a braid closure has one disc per strand and one band per
    letter, so chi is ``n - len`` and the genus ``(mu - chi) / 2`` with mu from
    ``decompose``.  Five checks cannot fail:

    * ``decompose_verified``: the reductions of ``decompose`` are complete.
    * ``reduced_graph_forest``: a braid word's Seifert edges join neighbouring strands,
      so the reduced graph is a sub-path and the closure is fibered; the check and the
      ``fibered`` key are True without building the graph.
    * ``component_parity``: a word's permutation has sign (-1)^len = (-1)^(n-mu).  A
      component count that breaks it fails this check, with a ``seifert:`` note and
      the genus read from the word by ``closure_genus``.
    * ``genus_nonnegative``: each letter moves the cycle count by one, so mu >= n - len.
    * ``kauffman_maslov_band``: Maslov weights are 0 and -1, so every state has M <= 0.
      The check reads the weights, since the sweep keeps no Maslov grading outside the
      top slice (False only past the budget).
    """
    t0 = time.perf_counter()
    checks: dict[str, bool] = {}
    notes: list[str] = []

    lc = decompose(w)
    components, s, p = lc.components, lc.split_count, lc.prime_count
    chi = w.strands - len(w.letters)
    parity = (components - chi) % 2 == 0
    if parity:
        g = (components - chi) // 2
    else:
        notes.append(f"seifert: {components} components incompatible with chi={chi}")
        g = closure_genus(w)

    checks["decompose_verified"] = lc.verified
    checks["component_parity"] = parity
    checks["genus_nonnegative"] = g >= 0
    checks["reduced_graph_forest"] = True

    skein_poly: Optional[HalfLaurent] = None
    burau_poly: Optional[HalfLaurent] = None
    kauffman_poly: Optional[HalfLaurent] = None
    try:
        skein_poly = hfk_euler(w, budget)
    except BudgetError as exc:
        notes.append(f"skein engine: {exc}")
    try:
        burau_poly = alexander_burau(w)
    except ArithmeticError as exc:
        notes.append(f"burau engine: {exc}")
    checks["skein_equals_burau"] = skein_poly is not None and skein_poly == burau_poly
    euler_poly = skein_poly if skein_poly is not None else burau_poly

    if components == 1:
        try:
            kauffman_poly, top_slice = euler_and_top_slice(build_diagram(w), budget)
        except BudgetError as exc:
            notes.append(f"kauffman engine: {exc}")
            for name in ("kauffman_matches", "kauffman_top_state_unique", "kauffman_maslov_band"):
                checks[name] = False
        else:
            checks["kauffman_matches"] = kauffman_poly == euler_poly
            checks["kauffman_top_state_unique"] = top_slice == {(0, g): 1}
            checks["kauffman_maslov_band"] = max(M_WEIGHTS.values()) <= 0

    if euler_poly is not None:
        checks["palindromic"] = euler_poly.is_symmetric()
        if s == 1:
            checks["top_coefficient"] = euler_poly.coefficient(g) == 1
        else:
            checks["top_coefficient"] = not euler_poly

    pred_top = predicted_top(s, g)
    pred_ntt, euler_at_g, euler_below_g = closed_form(p, s, components, g)
    skein_ntt: Optional[BigradedRank] = None
    try:
        skein_ntt = next_to_top_via_skein(w, budget)
    except BudgetError as exc:
        notes.append(f"skein recursion: {exc}")
    checks["formula_matches_recursion"] = skein_ntt is not None and skein_ntt == pred_ntt

    second: Optional[int] = None
    expected_second: Optional[int] = None
    if s == 1 and euler_poly is not None:
        second = euler_poly.coefficient(g - 1)
        expected_second = -(p + components - s)
        checks["second_coefficient"] = second == expected_second
        if g >= 1:
            checks["next_to_top_nonzero"] = pred_ntt.rank_at(-1, g - 1) >= 1

    if euler_poly is not None:
        checks["euler_top_slice"] = (
            euler_at_g == euler_poly.coefficient(g) and euler_below_g == euler_poly.coefficient(g - 1)
        )

    if s == 1 and p >= 2 and burau_poly is not None:
        prod = HalfLaurent.one()
        try:
            for factor in lc.prime_words:
                prod = prod * alexander_burau(factor)
        except ArithmeticError as exc:
            notes.append(f"burau engine: {exc} in {factor}, a factor of {w}")
            checks["factor_product"] = False
        else:
            checks["factor_product"] = prod == burau_poly
    if s >= 2:
        checks["split_vanishing"] = skein_poly == burau_poly == HalfLaurent.zero()

    return VerificationReport(
        word=w,
        components=components,
        split_count=s,
        prime_count=p,
        verified=lc.verified,
        chi=chi,
        genus=g,
        fibered=True,
        skein_euler=skein_poly,
        burau_euler=burau_poly,
        kauffman_euler=kauffman_poly,
        predicted_top=pred_top,
        predicted_next_to_top=pred_ntt,
        skein_next_to_top=skein_ntt,
        second_coefficient=second,
        expected_second=expected_second,
        checks=checks,
        notes=tuple(notes),
        elapsed=time.perf_counter() - t0,
    )


def verify_all(words: Sequence[BraidWord], budget: int = DEFAULT_BUDGET) -> list[VerificationReport]:
    return [verify(w, budget) for w in words]


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    """Canonical serialization of a corpus run (stable across re-runs)."""
    return json.dumps([r.to_json() for r in reports], sort_keys=True)
