"""Reference skein Conway engine that walks the skein tree.

This is the engine ``alexander.conway`` ran before it swept the word
through the Hecke algebra: split closures give 0 and unknots (genus 0)
give 1; wherever a destabilisation or a cut of ``immediate_reduction``
fires, the value is the product over the pieces; everything else
resolves at a doubled crossing found by ``find_adjacent_square`` with
``nabla(L+) = nabla(L-) + z * nabla(L0)``.  Its memo table lives for one
call, so no result depends on an earlier one.  It shares nothing with
the code it checks but ``BraidWord``, ``ConwayPoly`` and the word
routines of ``braidword``.
"""

from math import prod
from typing import Optional

from braidhfk.braidword import (
    DEFAULT_BUDGET,
    BraidWord,
    closure_genus,
    find_adjacent_square,
    immediate_reduction,
)
from braidhfk.polynomials import ConwayPoly


def conway_by_skein_tree(w: BraidWord, budget: int = DEFAULT_BUDGET) -> ConwayPoly:
    """Fold the skein tree of ``w`` over a memo table in post-order.

    The tree is as deep as the crossing count, so it is walked with an
    explicit stack rather than by recursion: a word is expanded when it
    is first popped, and combined from its sub-words when popped again.
    ``budget`` caps each doubled-crossing search and the memo entries;
    ``RuntimeError`` when either runs out.
    """
    memo: dict[tuple[int, tuple[int, ...]], ConwayPoly] = {}
    stack: list[tuple[BraidWord, Optional[tuple]]] = [(w, None)]
    while stack:
        u, expansion = stack.pop()
        key = (u.strands, u.letters)
        if key in memo:
            continue
        if expansion is not None:
            skein, subs = expansion
            values = [memo[(sub.strands, sub.letters)] for sub in subs]
            if skein:
                result = values[0] + values[1].times_z()
            else:
                result = prod(values, start=ConwayPoly.one())
        elif not u.is_connected:
            result = ConwayPoly.zero()
        elif closure_genus(u) == 0:
            result = ConwayPoly.one()
        else:
            if (r := immediate_reduction(u.strands, u.letters)) is not None:
                expansion = (False, tuple(BraidWord(strands, letters) for strands, letters in r))
            else:
                sq = find_adjacent_square(u, budget)
                if sq is None:
                    raise RuntimeError(f"no doubled crossing found within budget for {u}")
                # the square s_i s_i b resolves into l_minus = b and l_zero = s_i b
                l_minus = BraidWord(u.strands, sq.letters[2:])
                l_zero = BraidWord(u.strands, sq.letters[1:])
                expansion = (True, (l_minus, l_zero))
            stack.append((u, expansion))
            stack.extend((sub, None) for sub in expansion[1])
            continue
        memo[key] = result
        if len(memo) > budget:
            raise RuntimeError(f"skein tree of {w} passed the budget of {budget} memo entries")
    return memo[(w.strands, w.letters)]
