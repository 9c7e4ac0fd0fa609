"""Kauffman states of closed positive braid diagrams that are knots.

Draw the closure of a braid on ``n`` strands as ``n`` concentric
circles, crossings ordered around the axis by word position.  The
planar regions then organise by column: column 0 is the innermost
disk, column ``n`` the outer region, and column ``i`` (the annulus
between strands ``i`` and ``i+1``) is cut into one region per cyclic
gap between consecutive occurrences of generator ``i``.  That gives
``crossings + 2`` regions in total.

Each crossing touches four regions, named by orientation: OUT between
its two outgoing arcs (the column-``i`` gap starting at the crossing),
IN between the two incoming arcs (the gap ending there), and LEFT /
RIGHT in columns ``i-1`` / ``i+1`` at the crossing's position.  A
marked point on the outermost strand's closure arc forbids its two
neighbouring regions: the outer region and the column-``(n-1)`` gap
that spans the closure arc.  A Kauffman state is a bijection from
crossings onto the remaining regions using only touching quadrants;
its Maslov and Alexander gradings are sums of per-quadrant weights.

Weights of a positive crossing (Alexander stored doubled): OUT +1/2,
IN -1/2, LEFT = RIGHT = 0; Maslov -1 on IN, 0 elsewhere.  The signed
count ``sum (-1)^M t^A`` over all states recovers the graded Euler
characteristic, making this the third, combinatorial, engine.

``bigraded_counts`` builds the (Maslov, Alexander) histogram without
listing a single state, by a sweep over the crossings in word order
(the bordered picture of Ozsvath-Szabo, "Kauffman states, bordered
algebras, and a bigraded knot invariant", Adv. Math. 2018).  A partial
state is summarised by the set of still-open regions it has used; the
table maps that bitmask to a histogram of partial bigradings.  After the
last crossing that touches a region, entries that left it unused are
dropped and its bit is cleared, so only the inner disk, the open gap of
each column and the gaps wrapping past the end of the word are ever
live: at most about ``2^(2n)`` masks on ``n`` strands.  The table's
entry count is capped by a budget, past which ``KauffmanBudgetError``
is raised.  ``enumerate_states`` lists the states themselves, by
backtracking; it serves the ``states`` text listing and the tests.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left

from .braidword import BraidWord, DEFAULT_BUDGET, closure_components

OUT = "OUT"
IN = "IN"
LEFT = "LEFT"
RIGHT = "RIGHT"

#: Alexander weight (doubled) of a quadrant at a positive crossing.
A_WEIGHTS_DOUBLED = {OUT: 1, IN: -1, LEFT: 0, RIGHT: 0}
#: Maslov weight of a quadrant at a positive crossing.
M_WEIGHTS = {OUT: 0, IN: -1, LEFT: 0, RIGHT: 0}


class MultiComponentError(ValueError):
    """The closure is a link; the state model here is for knots."""


class SplitDiagramError(ValueError):
    """The closed diagram is disconnected (some generator never occurs)."""


class KauffmanBudgetError(RuntimeError):
    """The sweep's live table outgrew its budget."""


@dataclasses.dataclass(frozen=True)
class ClosedBraidDiagram:
    """A closed braid diagram with regions enumerated and the marked edge fixed.

    ``slots[c]`` lists the (quadrant, region) incidences of crossing ``c``
    in the order OUT, IN, LEFT, RIGHT; forbidden regions are kept in the
    slot lists (states simply may not use them).
    """

    word: BraidWord
    region_names: tuple[str, ...]
    forbidden: frozenset[int]
    slots: tuple[tuple[tuple[str, int], ...], ...]

    @property
    def region_count(self) -> int:
        return len(self.region_names)

    @property
    def crossing_count(self) -> int:
        return len(self.word.letters)


@dataclasses.dataclass(frozen=True)
class KauffmanState:
    """A crossing -> (region, quadrant) bijection with its bigrading."""

    assignment: tuple[tuple[int, str], ...]
    maslov: int
    alexander: int


def build_diagram(w: BraidWord) -> ClosedBraidDiagram:
    """Region bookkeeping for the closure of a connected knot word."""
    if not w.is_connected:
        raise SplitDiagramError(f"unused generator in {w}")
    if closure_components(w) != 1:
        raise MultiComponentError(f"closure of {w} is not a knot")
    n = w.strands
    letters = w.letters

    if n == 1:
        # crossingless unknot: both regions touch the marked point, and the
        # empty assignment is the unique state, at bigrading (0, 0)
        return ClosedBraidDiagram(w, ("inner", "outer"), frozenset({0, 1}), ())

    occurrences: dict[int, list[int]] = {i: [] for i in range(1, n)}
    for p, x in enumerate(letters):
        occurrences[x].append(p)

    # region ids: 0 = inner disk, then column gaps, last = outer region
    names = ["inner"]
    gap_region: dict[int, list[int]] = {}
    for i in range(1, n):
        ids = []
        for j in range(len(occurrences[i])):
            ids.append(len(names))
            names.append(f"c{i}.{j}")
        gap_region[i] = ids
    outer = len(names)
    names.append("outer")

    def containing_gap(column: int, p: int) -> int:
        occ = occurrences[column]
        return gap_region[column][(bisect_left(occ, p) - 1) % len(occ)]

    slots = []
    for p, i in enumerate(letters):
        occ = occurrences[i]
        j = occ.index(p)
        out_region = gap_region[i][j]
        in_region = gap_region[i][(j - 1) % len(occ)]
        left_region = 0 if i == 1 else containing_gap(i - 1, p)
        right_region = outer if i == n - 1 else containing_gap(i + 1, p)
        slots.append(
            ((OUT, out_region), (IN, in_region), (LEFT, left_region), (RIGHT, right_region))
        )

    # marked point on the closure arc of the outermost strand: its inner
    # neighbour is the column-(n-1) gap that wraps past the end of the word.
    wrap_gap = gap_region[n - 1][-1]
    forbidden = frozenset({outer, wrap_gap})

    assert len(names) == len(letters) + 2
    return ClosedBraidDiagram(w, tuple(names), forbidden, tuple(slots))


def enumerate_states(d: ClosedBraidDiagram) -> list[KauffmanState]:
    """All Kauffman states, by backtracking; sorted for reproducible output."""
    c = d.crossing_count
    allowed = []
    for s in d.slots:
        allowed.append(tuple((r, q) for q, r in s if r not in d.forbidden))
    order = sorted(range(c), key=lambda k: (len(allowed[k]), k))

    states: list[KauffmanState] = []
    chosen: dict[int, tuple[int, str]] = {}
    used = 0

    def backtrack(depth: int) -> None:
        nonlocal used
        if depth == c:
            assignment = tuple(chosen[k] for k in range(c))
            m = sum(M_WEIGHTS[q] for _, q in assignment)
            a2 = sum(A_WEIGHTS_DOUBLED[q] for _, q in assignment)
            assert a2 % 2 == 0, "knot states have integral Alexander grading"
            states.append(KauffmanState(assignment, m, a2 // 2))
            return
        k = order[depth]
        for region, quadrant in allowed[k]:
            bit = 1 << region
            if used & bit:
                continue
            used |= bit
            chosen[k] = (region, quadrant)
            backtrack(depth + 1)
            del chosen[k]
            used &= ~bit

    backtrack(0)
    states.sort(key=lambda s: s.assignment)
    return states


def bigraded_counts(
    d: ClosedBraidDiagram, budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, int], int]:
    """Histogram of state bigradings (Maslov, Alexander) -> count, by the
    frontier sweep of the module docstring.

    Raises ``KauffmanBudgetError`` once the live table holds more than
    ``budget`` (mask, bigrading) entries.
    """
    allowed = [[(r, q) for q, r in s if r not in d.forbidden] for s in d.slots]
    last_touch: dict[int, int] = {}
    for p, slots in enumerate(allowed):
        for r, _ in slots:
            last_touch[r] = p
    if len(last_touch) < d.region_count - len(d.forbidden):
        return {}  # some usable region touches no allowed slot
    retiring = [0] * d.crossing_count
    for r, p in last_touch.items():
        retiring[p] |= 1 << r

    table: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 1}}
    for p, slots in enumerate(allowed):
        done = retiring[p]
        moves = [(1 << r, M_WEIGHTS[q], A_WEIGHTS_DOUBLED[q]) for r, q in slots]
        nxt: dict[int, dict[tuple[int, int], int]] = {}
        for mask, hist in table.items():
            for bit, dm, da in moves:
                if mask & bit:
                    continue
                after = mask | bit
                if after & done != done:
                    continue
                out = nxt.setdefault(after ^ done, {})
                for (m, a2), n in hist.items():
                    key = (m + dm, a2 + da)
                    out[key] = out.get(key, 0) + n
        table = nxt
        live = sum(map(len, table.values()))
        if live > budget:
            raise KauffmanBudgetError(
                f"state table reached {live} entries at crossing {p + 1}"
                f" of {d.crossing_count} (budget {budget})"
            )

    counts: dict[tuple[int, int], int] = {}
    for (m, a2), n in table.get(0, {}).items():
        assert a2 % 2 == 0, "knot states have integral Alexander grading"
        counts[(m, a2 // 2)] = n
    return counts


def state_line(d: ClosedBraidDiagram, s: KauffmanState) -> str:
    """One-line dump: ``c1:(region,quadrant) ... | M=..., A=...``."""
    parts = [
        f"c{k + 1}:({d.region_names[region]},{quadrant})"
        for k, (region, quadrant) in enumerate(s.assignment)
    ]
    return " ".join(parts) + f" | M={s.maslov}, A={s.alexander}"


def counts_to_json(counts: dict[tuple[int, int], int]) -> dict[str, int]:
    """Histogram JSON form: key ``"M,A"`` -> count."""
    return {f"{m},{a}": counts[(m, a)] for m, a in sorted(counts)}
