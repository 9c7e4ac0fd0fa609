"""Positive braid words: parsing, closure invariants, rewriting, and
split/connected-sum decomposition.

A braid word on ``n`` strands is a sequence of generator indices
``1..n-1``; every generator is positive, so a word *is* its crossing
list.  Closures are taken strand-to-strand, which makes three
length-preserving rewrites invisible to the closure: cyclic rotation,
the distant commutation ``s_i s_j = s_j s_i`` for ``|i-j| >= 2``, and
the braid relation ``s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}``.  These
are the only moves used anywhere in this package; stabilisation is
never applied.

Decomposition into split pieces and prime connected-sum factors applies
three word-level reductions to a fixpoint:

* a boundary generator occurring exactly once is a Markov
  destabilisation: delete the letter together with its strand;
* an interior generator occurring exactly once is a cut point: the
  word falls apart into the sub-words left and right of that strand
  (rule A);
* at level ``k``, when the cyclic subsequence of the letters ``k-1`` and
  ``k`` changes letter exactly twice, the closure is a connected sum
  along strand ``k`` (rule B): rotated to the first ``k-1`` that follows
  a ``k``, the word commutes into a block of its letters ``< k`` followed
  by a block of its letters ``>= k``.

Every rule reads only what rotations and distant commutations leave
unchanged: generator counts, and for rule B the cyclic order of the two
letters that do not commute across the cut.  By the projection lemma of
trace monoids (Cartier-Foata 1969; Diekert-Rozenberg, *The Book of
Traces*, 1995) a word commutes into a low block and a high block exactly
when that order is ``(k-1)^a k^b``, so rule B fires at ``k`` iff some
rotation and commutation of the word splits there.

The reductions are also complete.  Read the closed word as a plane
diagram: a generator occurring once is exactly a nugatory crossing, and
once there are none, two faces of the diagram share two edges (a circle
meets the diagram in two points with crossings on both sides) exactly
when rule B fires at some level.  Cromwell, "Positive braids are visually
prime" (Proc. London Math. Soc. 67, 1993), shows that a closed positive
braid diagram of a composite link is visually composite in this sense.
So a connected word on which nothing fires closes to a prime link, and
no braid relation or orbit search is needed to find the factors.
"""

from __future__ import annotations

import dataclasses
import re
from collections import deque
from operator import index
from typing import Optional

#: Default cap on any single search: the simple conjugates visited by
#: ``find_adjacent_square``, the entries of each table of the skein Conway
#: sweep, the live masks of the Kauffman sweep and the search nodes of
#: ``enumerate_states``.  Past it every stage raises ``BudgetError``, except
#: ``find_adjacent_square``, which returns None for the next-to-top chain
#: to raise.
DEFAULT_BUDGET = 200_000

#: Largest strand count and word length ``parse_braid`` accepts.  They stop
#: text such as ``"1^100000000"`` from allocating before anything runs;
#: they do not promise that every stage finishes quickly below them.
MAX_STRANDS = 1_000
MAX_LETTERS = 10_000

#: Largest count of words, ``sum_L (strands-1)^L``, whose classes
#: ``harness.corpus`` lists.  It walks only the necklaces among them, about
#: one word in ``L``, but the classes and the necklaces it keeps grow with
#: this count; past it the enumeration would not finish.
MAX_CORPUS_WORDS = 1_000_000


class ParseError(ValueError):
    """Malformed braid word text."""


class RangeError(ValueError):
    """Generator index out of range for the declared strand count."""


@dataclasses.dataclass(frozen=True, slots=True)
class BraidWord:
    """A positive braid word: ``strands >= 1`` and letters in ``1..strands-1``.

    The strand count and letters are read with ``operator.index``, so a
    bool becomes an int; any other non-integer raises ``ParseError``.

    The last three slots keep facts of the closure once computed, by
    ``closure_components``, ``split_pieces`` and ``prime_factors``, so that
    every route that reads them on one word shares one computation.  Each is
    a function of ``(strands, letters)`` alone, so they take no part in
    equality, hashing, ``repr`` or ``to_json``, and ``dataclasses.replace``
    starts the new word without them.
    """

    strands: int
    letters: tuple[int, ...]
    _components: Optional[int] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )
    _pieces: Optional[tuple["BraidWord", ...]] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )
    _factors: Optional[tuple["BraidWord", ...]] = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        try:
            strands = index(self.strands)
        except TypeError:
            raise ParseError(f"strand count must be an integer, got {self.strands!r}") from None
        if strands < 1:
            raise RangeError(f"strand count must be >= 1, got {strands}")
        letters = []
        for x in self.letters:
            try:
                i = index(x)
            except TypeError:
                i = 0
            if i < 1:
                raise ParseError(f"generator index must be a positive integer, got {x!r}")
            if i >= strands:
                raise RangeError(f"generator {i} needs at least {i + 1} strands, word has {strands}")
            letters.append(i)
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        body = " ".join(str(x) for x in self.letters)
        return f"strands={self.strands}:" + (" " + body if body else "")

    def generator_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for x in self.letters:
            counts[x] = counts.get(x, 0) + 1
        return counts

    @property
    def is_connected(self) -> bool:
        """True when the closure diagram is connected (every generator occurs)."""
        return len(set(self.letters)) == self.strands - 1

    def rotated(self, k: int) -> "BraidWord":
        """The word started at position ``k``; closes to the same link."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return BraidWord(self.strands, self.letters[k:] + self.letters[:k])

    def to_json(self) -> dict:
        return {"strands": self.strands, "letters": list(self.letters)}


def require_size(strands: int = 0, letters: int = 0) -> None:
    """Reject a word on more than ``MAX_STRANDS`` strands or with more than
    ``MAX_LETTERS`` letters; callers check before they build it."""
    if strands > MAX_STRANDS:
        raise RangeError(f"at most {MAX_STRANDS} strands are accepted, got {strands}")
    if letters > MAX_LETTERS:
        raise RangeError(f"words of more than {MAX_LETTERS} letters are not accepted")


_TOKEN = re.compile(r"^(\d+)(?:\^(-?\d+))?$")


def parse_braid(text: str, strands: Optional[int] = None) -> BraidWord:
    """Parse whitespace/comma separated generators, e.g. ``"1 1 2"`` or ``"1^2 2^3 1 2^4"``.

    A token ``i^k`` repeats generator ``i`` exactly ``k`` times (``k >= 1``).
    Without an explicit ``strands``, the strand count is the largest index
    plus one; an empty word then has no well-defined strand count and is
    rejected.  Words longer than ``MAX_LETTERS`` or needing more than
    ``MAX_STRANDS`` strands raise ``RangeError`` before they are built.
    """
    if strands is not None:
        require_size(strands=strands)
    tokens = [tok for tok in text.replace(",", " ").split() if tok]
    letters: list[int] = []
    for tok in tokens:
        m = _TOKEN.match(tok)
        if m is None:
            raise ParseError(f"bad token {tok!r}")
        idx = int(m.group(1))
        power = int(m.group(2)) if m.group(2) is not None else 1
        if idx < 1:
            raise ParseError(f"generator index must be >= 1, got {idx}")
        if power < 1:
            raise ParseError(f"power must be >= 1, got {tok!r}")
        if idx >= MAX_STRANDS:
            raise RangeError(f"generator {idx} needs more than {MAX_STRANDS} strands")
        require_size(letters=len(letters) + power)
        letters.extend([idx] * power)
    if strands is None:
        if not letters:
            raise ParseError("empty word needs an explicit strand count")
        strands = max(letters) + 1
    else:
        for idx in letters:
            if idx >= strands:
                raise RangeError(f"generator {idx} out of range for {strands} strands")
    return BraidWord(strands, tuple(letters))


_PREFIX = re.compile(r"^strands\s*=\s*(\d+)\s*:\s*")


def parse_serialized(text: str) -> BraidWord:
    """Parse the serialized form ``"strands=N: 1 1 2"`` (prefix optional)."""
    text = text.split("#", 1)[0].strip()
    m = _PREFIX.match(text)
    if m is not None:
        return parse_braid(text[m.end():], strands=int(m.group(1)))
    return parse_braid(text)


def permutation_of(strands: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """The strand permutation of a word: the strand at each position
    (0-based) after its letters, read in one pass."""
    perm = list(range(strands))
    for i in letters:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def cycle_count(perm: tuple[int, ...]) -> int:
    """Number of cycles of a permutation given as its list of images."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def closure_components(w: BraidWord) -> int:
    """Number of components of the closure: cycle count of the strand
    permutation, kept on ``w``."""
    if w._components is None:
        object.__setattr__(w, "_components", cycle_count(permutation_of(w.strands, w.letters)))
    return w._components


def closure_genus(w: BraidWord) -> int:
    """Genus of the closure, (components - chi)/2 with chi = strands - length."""
    chi = w.strands - len(w.letters)
    return (closure_components(w) - chi) // 2


class BudgetError(RuntimeError):
    """A stage of exponential cost ran past its budget: a table of the
    skein Conway sweep, the next-to-top chain's square search, or a
    Kauffman sweep or listing.

    Each budgeted count depends only on the stage's input, so whether a
    call raises never depends on what ran before it.  The tables that could
    answer a later call, ``alexander._conway_cache`` and
    ``hfk._profile_cache``, keep that so: they hold only successes, so a
    failing input is searched, and its failure raised, every time; and the
    budget is in their key, so a result found under a larger budget does
    not answer for a smaller one.
    """


def require_budget(budget: int) -> None:
    """Reject a non-positive search budget.

    Entry points whose results are memoised call this before any table
    lookup, so that a bad budget fails the same way with a warm cache.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")


def _reduced_word(at: list[int]) -> tuple[int, ...]:
    """A reduced word whose letters take the strands from positions
    ``0, 1, ..., n-1`` to the arrangement ``at`` (the strand at each
    position).

    Bubble sort takes ``at`` back to the identity by swaps of adjacent
    positions, one per inverted pair; replayed backwards, those swaps are
    the word.  Each pass stops at the last swap of the pass before, and
    the passes start past the strands already in place, which never move.
    Which reduced word comes back shapes only the words of the
    next-to-top chain, and so the keys ``hfk._profile_cache`` holds.
    """
    a = list(at)
    swaps = []
    lo = next((p for p, x in enumerate(a) if x != p), len(a))
    hi = len(a) - 1
    while hi > lo:
        last = lo
        for j in range(lo + 1, hi + 1):
            if a[j - 1] > a[j]:
                a[j - 1], a[j] = a[j], a[j - 1]
                swaps.append(j)
                last = j
        hi = last - 1
    return tuple(reversed(swaps))


def _exchange(strands: int, u: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """If some pair of strands crosses twice in ``u``, return ``u``
    rewritten as ``(i, i, ...)``; None when ``u`` is a simple braid.

    Let ``u[k] = i`` be the first letter that crosses a pair a second time.
    The prefix ``u[:k]`` crosses no pair twice, so it is a reduced word of
    its permutation ``pi``, and by the exchange property ``pi`` also has a
    reduced word ``v s_i``: ``v`` is ``_reduced_word`` of the arrangement
    after ``u[k]``.  Two reduced words of one permutation are related by
    braid relations and distant commutations (Tits-Matsumoto), so ``u`` is
    ``v s_i s_i u[k+1:]`` up to those moves, and the result is its rotation
    ``s_i s_i u[k+1:] v``.  Cost O(len + strands**2).
    """
    at = list(range(strands))
    for k, i in enumerate(u):
        crossed = at[i - 1] > at[i]
        at[i - 1], at[i] = at[i], at[i - 1]
        if crossed:
            return (i, i) + u[k + 1:] + _reduced_word(at)
    return None


def _simple_conjugate_square(strands: int, u: tuple[int, ...], budget: int) -> Optional[tuple[int, ...]]:
    """A doubled crossing in a rotation of the simple braid ``u``, found by
    a breadth-first walk over its simple conjugates; None when the first
    ``budget`` conjugates hold none, or when every conjugate is simple.

    A simple braid is its permutation (all its positive words are the
    reduced words of that permutation), so the walk's nodes are strand
    arrangements.  The rotations of ``pi`` are ``x' s_j`` for each ``j``
    that some reduced word ``s_j x'`` of ``pi`` starts with: the strands
    ``j-1`` and ``j`` have crossed.  Relabelling them drops the leading
    ``s_j``, and swapping positions ``j-1, j`` appends it.  When that last
    letter crosses a pair a second time, the rotation is not simple and
    ``_exchange`` on it returns ``(j, j) + _reduced_word(..)``; otherwise
    the rotation is the next simple conjugate.  Words first reached by
    moves inside the orbit are reduced words of these nodes until a
    rotation leaves the simple braids, so the walk misses no square that
    the word orbit holds.
    """
    seen = {permutation_of(strands, u)}
    queue = deque(seen)
    for _ in range(budget):
        if not queue:
            break
        at = queue.popleft()
        place = [0] * strands
        for p, s in enumerate(at):
            place[s] = p
        for j in range(1, strands):
            if place[j - 1] < place[j]:
                continue
            nb = list(at)
            nb[place[j - 1]], nb[place[j]] = j, j - 1
            crossed = nb[j - 1] > nb[j]
            nb[j - 1], nb[j] = nb[j], nb[j - 1]
            if crossed:
                return (j, j) + _reduced_word(nb)
            nb = tuple(nb)
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return None


def _square_letters(strands: int, u: tuple[int, ...], budget: int) -> Optional[tuple[int, ...]]:
    """The search of ``find_adjacent_square``, after its guards, on a
    connected word of positive genus given by its letters: ``u``
    rewritten as ``(i, i, ...)``, or None.  The next-to-top chain calls it
    directly, so that a step builds no ``BraidWord``.
    """
    return _exchange(strands, u) or _simple_conjugate_square(strands, u, budget)


def find_adjacent_square(w: BraidWord, budget: int = DEFAULT_BUDGET) -> Optional[BraidWord]:
    """Rewrite ``w`` into the form ``s_i s_i b`` without changing the closure.

    The result is a word of the same length in ``w``'s orbit under
    rotations, distant commutations and braid relations.  Two steps run in
    turn, the second only when the first missed:

    1. ``_exchange``: some strand pair crosses twice; the exchange property
       writes the first such crossing next to the one before it, in
       O(len + strands**2).
    2. ``_simple_conjugate_square``: ``w`` is a simple braid; walk its
       simple conjugates breadth first, counting each visited one against
       ``budget``.

    Returns ``None`` when the closure is an unlink (genus 0, where no such
    doubled crossing can exist), when the first ``budget`` simple
    conjugates hold none, or when every conjugate of ``w`` is simple.  A
    non-positive ``budget`` raises ``ValueError`` once the word is known
    to have positive genus.  Nothing is memoised: the exchange costs
    O(len + strands**2), so each call searches afresh, and the result
    depends only on ``w`` and ``budget``.
    """
    if not w.is_connected:
        raise ValueError("find_adjacent_square expects a connected word")
    if closure_genus(w) == 0:
        return None
    require_budget(budget)
    hit = _square_letters(w.strands, w.letters, budget)
    return None if hit is None else BraidWord(w.strands, hit)


# --------------------------------------------------------------------------
# Split pieces and prime factors
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LinkClass:
    """Normalised decomposition of a closure.

    ``prime_words`` lists the prime connected-sum factors of the split
    pieces in strand order, each piece's factors sorted by
    ``(strands, letters)``; an unknot piece contributes none.
    ``split_count`` counts the split pieces, unknots included.

    ``decompose`` always sets ``verified`` True, since its reductions are
    complete.  The field stays only for the report's ``verified`` key and
    the ``decompose_verified`` check, which keep the canonical reports
    byte-identical; only the bounded search of
    ``tests/decompose_oracle.py`` sets it False.
    """

    prime_words: tuple[BraidWord, ...]
    split_count: int
    components: int
    verified: bool

    @property
    def prime_count(self) -> int:
        return len(self.prime_words)


def split_pieces(w: BraidWord) -> list[BraidWord]:
    """Split a word into connected sub-words along unused generators.

    Strands with no incident crossing come back as empty one-strand words
    (unknots).  Each returned word is connected and renumbered to start at
    generator 1; a connected word is its own one piece, so the facts kept
    on it serve its piece too.  The pieces are kept on ``w``.
    """
    if w._pieces is None:
        used = set(w.letters)
        pieces: list[BraidWord] = []
        start = 1
        for boundary in range(1, w.strands + 1):
            if boundary == w.strands or boundary not in used:
                strands = boundary - start + 1
                if strands == w.strands:
                    pieces.append(w)
                else:
                    letters = tuple(x - (start - 1) for x in w.letters if start <= x < boundary)
                    pieces.append(BraidWord(strands, letters))
                start = boundary + 1
        object.__setattr__(w, "_pieces", tuple(pieces))
    return list(w._pieces)


def immediate_reduction(strands: int, u: tuple[int, ...]):
    """First reduction that fires on the word, or None.

    The word must be connected (all generators ``1..strands-1`` occur).
    Priority: destabilise at the low boundary, at the high boundary,
    rule A at the smallest interior generator, rule B at the smallest
    splitting level.  Whether a rule fires is the same for every word
    related to ``u`` by rotations and distant commutations.  The result
    is a tuple of one piece (a destabilisation) or two (a cut); each piece
    is a connected ``(strands, letters)`` pair, and the closure is the
    connected sum of the pieces' closures.
    """
    counts = [0] * (strands + 1)
    for x in u:
        counts[x] += 1
    if strands >= 2 and counts[1] == 1:
        rest = tuple(x - 1 for x in u if x != 1)
        return ((strands - 1, rest),)
    if strands >= 2 and counts[strands - 1] == 1:
        rest = tuple(x for x in u if x != strands - 1)
        return ((strands - 1, rest),)
    for i in range(2, strands - 1):
        if counts[i] == 1:
            left = tuple(x for x in u if x < i)
            right = tuple(x - i for x in u if x > i)
            return ((i, left), (strands - i, right))
    for k in range(2, strands):
        pos = [j for j, x in enumerate(u) if x == k - 1 or x == k]
        if sum(u[a] != u[b] for a, b in zip(pos, pos[1:] + pos[:1])) == 2:
            start = next(j for i, j in enumerate(pos) if u[j] == k - 1 and u[pos[i - 1]] == k)
            rot = u[start:] + u[:start]
            low = tuple(x for x in rot if x < k)
            high = tuple(x - (k - 1) for x in rot if x >= k)
            return ((k, low), (strands - k + 1, high))
    return None


def prime_factors(w: BraidWord) -> list[BraidWord]:
    """Prime connected-sum factors of a connected word's closure, in no
    fixed order; an unknot has none.

    The word is reduced by ``immediate_reduction`` until nothing fires,
    and the surviving words are the factors.  Each step costs
    ``O(strands * len)``.  The factors are kept on ``w``.
    """
    if w._factors is None:
        factors: list[BraidWord] = []
        work = [(w.strands, w.letters)]
        while work:
            strands, letters = work.pop()
            if strands == 1:
                continue  # fully destabilised: an unknot summand is trivial
            r = immediate_reduction(strands, letters)
            if r is None:
                factors.append(BraidWord(strands, letters))
            else:
                work.extend(r)
        object.__setattr__(w, "_factors", tuple(factors))
    return list(w._factors)


def decompose(w: BraidWord) -> LinkClass:
    """Decompose a closure into split pieces and prime connected-sum factors.

    Unused strands become unknot pieces, which count in ``split_count``
    but add no prime word.  Each connected piece contributes its
    ``prime_factors``, sorted.  ``verified`` is always True: by Cromwell's
    theorem (see the module docstring) a word on which no reduction fires
    closes to a prime link.
    """
    pieces = split_pieces(w)
    primes: list[BraidWord] = []
    for piece in pieces:
        primes += sorted(prime_factors(piece), key=lambda f: (f.strands, f.letters))
    return LinkClass(tuple(primes), len(pieces), closure_components(w), True)
