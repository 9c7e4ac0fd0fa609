"""Reference doubled-crossing search that checks every visited word.

This is the loop ``braidword.find_adjacent_square`` ran before it
skipped the words first reached by a rotation or distant commutation.
It carries its own copy of the doubled-crossing check, in the form that
builds the gap between each pair of consecutive occurrences, so it
shares only the orbit walk with the code it checks.
"""

from itertools import islice

from braidhfk.braidword import _ALL_MOVES, BraidWord, _orbit, closure_genus


def adjacent_pair_by_gaps(u):
    """``(i, i, ...)`` for the smallest ``i`` with two cyclically
    consecutive occurrences whose gap avoids ``i-1, i, i+1``, or None."""
    n = len(u)
    positions = {}
    for p, x in enumerate(u):
        positions.setdefault(x, []).append(p)
    for i in sorted(positions):
        occ = positions[i]
        if len(occ) < 2:
            continue
        for j, p in enumerate(occ):
            q = occ[(j + 1) % len(occ)]
            gap = tuple(u[(p + 1 + t) % n] for t in range((q - p - 1) % n))
            if any(abs(x - i) <= 1 for x in gap):
                continue
            rest = tuple(u[(q + 1 + t) % n] for t in range((p - q - 1) % n))
            return (i, i) + gap + rest
    return None


def square_by_checking_every_word(w, budget):
    """The first word of ``w``'s move orbit, breadth first, on which
    ``adjacent_pair_by_gaps`` hits, rewritten; None for genus 0 or when
    ``budget`` visited words run out first."""
    if closure_genus(w) == 0:
        return None
    for u, _ in islice(_orbit(w.letters, _ALL_MOVES), budget):
        hit = adjacent_pair_by_gaps(u)
        if hit is not None:
            return BraidWord(w.strands, hit)
    return None
