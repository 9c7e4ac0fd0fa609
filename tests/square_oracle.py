"""Reference doubled-crossing search that checks every visited word.

This is the loop ``braidword.find_adjacent_square`` ran before it
skipped the words first reached by a rotation or distant commutation,
cached its results and built each word's neighbours inside the walk.  It
carries its own copy of the orbit walk, one generator per move family,
and its own copy of the doubled-crossing check, in the form that builds
the gap between each pair of consecutive occurrences, so it shares
nothing but ``BraidWord`` and ``closure_genus`` with the code it checks.
"""

from collections import deque
from itertools import islice

from braidhfk.braidword import BraidWord, closure_genus


def _shuffles(u):
    """One-step rotation and distant commutations."""
    n = len(u)
    if n > 1:
        yield u[1:] + u[:1]
    for j in range(n - 1):
        a, b = u[j], u[j + 1]
        if abs(a - b) >= 2:
            yield u[:j] + (b, a) + u[j + 2:]


def _braid_moves(u):
    """One-step braid relations ``s_i s_j s_i -> s_j s_i s_j``, ``|i-j| = 1``."""
    for j in range(len(u) - 2):
        a, b = u[j], u[j + 1]
        if u[j + 2] == a and abs(a - b) == 1:
            yield u[:j] + (b, a, b) + u[j + 3:]


ALL_MOVES = (_shuffles, _braid_moves)


def reference_orbit(u, moves):
    """The words reachable from ``u`` by ``moves``, breadth first, ``u``
    first, each paired with the move family that first reached it (None
    for ``u``)."""
    seen = {u}
    queue = deque([(u, None)])
    while queue:
        v, via = queue.popleft()
        yield v, via
        for move in moves:
            for nb in move(v):
                if nb not in seen:
                    seen.add(nb)
                    queue.append((nb, move))


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
    for u, _ in islice(reference_orbit(w.letters, ALL_MOVES), budget):
        hit = adjacent_pair_by_gaps(u)
        if hit is not None:
            return BraidWord(w.strands, hit)
    return None
