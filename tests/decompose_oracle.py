"""Reference decomposition by breadth-first search over the whole move orbit.

This is the search ``braidword.decompose`` ran before it read primality
off the word: each connected factor walks its rotation, commutation and
braid-relation orbit until a reduction fires on some word *as written*.
It carries its own copy of the reductions, with rule B in its strict
form (the word is cyclically one block of letters ``< k`` and one of
letters ``>= k``), so it shares no rule with the code it checks, and it
walks the reference orbit of ``square_oracle``, not ``braidword``'s.  The
search is sound but bounded: ``verified`` is False when the budget ran
out before some factor's orbit was exhausted.
"""

from itertools import islice

from braidhfk.braidword import BraidWord, LinkClass, closure_components, split_pieces
from square_oracle import ALL_MOVES, reference_orbit


def reduction_as_written(strands, u):
    """Destabilisation, rule A or strict rule B on ``u`` as written, or None."""
    counts = [0] * (strands + 1)
    for x in u:
        counts[x] += 1
    if counts[1] == 1:
        return [(strands - 1, tuple(x - 1 for x in u if x != 1))]
    if counts[strands - 1] == 1:
        return [(strands - 1, tuple(x for x in u if x != strands - 1))]
    for i in range(2, strands - 1):
        if counts[i] == 1:
            return [(i, tuple(x for x in u if x < i)), (strands - i, tuple(x - i for x in u if x > i))]
    n = len(u)
    for k in range(2, strands):
        if sum((u[j] < k) != (u[(j + 1) % n] < k) for j in range(n)) == 2:
            start = next(j for j in range(n) if u[j] < k and u[(j - 1) % n] >= k)
            rot = u[start:] + u[:start]
            return [(k, tuple(x for x in rot if x < k)),
                    (strands - k + 1, tuple(x - (k - 1) for x in rot if x >= k))]
    return None


def decompose_by_search(w, budget):
    """``LinkClass`` of ``w`` found by the orbit search; one budget of
    visited words is shared by every factor's search.  A factor whose
    search is cut short is recorded as prime, and ``verified`` is False
    when a word was still waiting at the cut."""
    left = budget
    exhausted = False
    pieces = split_pieces(w)
    primes = []
    for piece in pieces:
        factors = []
        work = [(piece.strands, piece.letters)]
        while work:
            strands, letters = work.pop()
            if strands == 1:
                continue
            walk = reference_orbit(letters, ALL_MOVES)
            for v, _ in islice(walk, left):
                left -= 1
                r = reduction_as_written(strands, v)
                if r is not None:
                    work.extend(r)
                    break
            else:
                if left == 0 and next(walk, None) is not None:
                    exhausted = True
                factors.append(BraidWord(strands, letters))
        primes += sorted(factors, key=lambda f: (f.strands, f.letters))
    return LinkClass(tuple(primes), len(pieces), closure_components(w), not exhausted)
