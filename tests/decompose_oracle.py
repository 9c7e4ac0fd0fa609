"""Reference decomposition by breadth-first search over the whole move orbit.

This is the search ``braidword.decompose`` ran before it read primality
off the word: each connected factor walks its rotation, commutation and
braid-relation orbit until a reduction fires on some word *as written*.
It carries its own copy of the reductions, with rule B in its strict
form (the word is cyclically one block of letters ``< k`` and one of
letters ``>= k``), so it shares no rule with the code it checks.  The
search is sound but bounded: ``verified`` is False when the budget ran
out before some factor's orbit was exhausted.
"""

from braidhfk.braidword import (
    _ALL_MOVES,
    BraidWord,
    LinkClass,
    SplitPiece,
    _Budget,
    _orbit,
    closure_components,
    split_pieces,
)


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
    visited words is shared by every factor's search."""
    b = _Budget(budget)
    pieces = []
    for piece in split_pieces(w):
        factors = []
        work = [(piece.strands, piece.letters)]
        while work:
            strands, letters = work.pop()
            if strands == 1:
                continue
            for v, _ in _orbit(letters, _ALL_MOVES, b):
                r = reduction_as_written(strands, v)
                if r is not None:
                    work.extend(r)
                    break
            else:
                factors.append(BraidWord(strands, letters))
        factors.sort(key=lambda f: (f.strands, f.letters))
        pieces.append(SplitPiece(tuple(factors), unknot=not factors))
    return LinkClass(tuple(pieces), closure_components(w), not b.exhausted)
