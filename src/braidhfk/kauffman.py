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

``build_diagram`` numbers the gaps of each column from its generator
count, then finds every crossing's four regions in one walk over the
word, counting the crossings met so far on each column.  The gap of a
column at the current position is the one that started at its last
crossing; before the first, it is the gap that wraps past the end of
the word, index -1 of the column's list.

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
backtracking under a budget of search nodes; it serves the ``states``
text listing and the tests.
"""

from __future__ import annotations

import dataclasses

from .braidword import BraidWord, DEFAULT_BUDGET, closure_components, require_budget

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

    counts = w.generator_counts()

    # region ids: 0 = inner disk, then column gaps, last = outer region;
    # gap_region[c][j] is the gap of column c starting at its j-th crossing,
    # and the inner disk and outer region are the one gap of columns 0 and n
    names = ["inner"]
    gap_region = [[0]]
    for i in range(1, n):
        gap_region.append(list(range(len(names), len(names) + counts[i])))
        names += (f"c{i}.{j}" for j in range(counts[i]))
    outer = len(names)
    names.append("outer")
    gap_region.append([outer])

    # seen[c] counts the crossings on c so far, so the gap of column c
    # holding the current position is gap_region[c][seen[c] - 1], where
    # index -1 is the gap that wraps past the end of the word
    seen = [0] * (n + 1)
    slots = []
    for i in letters:
        j = seen[i]
        slots.append((
            (OUT, gap_region[i][j]),
            (IN, gap_region[i][j - 1]),
            (LEFT, gap_region[i - 1][seen[i - 1] - 1]),
            (RIGHT, gap_region[i + 1][seen[i + 1] - 1]),
        ))
        seen[i] = j + 1

    # marked point on the closure arc of the outermost strand: its inner
    # neighbour is the column-(n-1) gap that wraps past the end of the word.
    wrap_gap = gap_region[n - 1][-1]
    forbidden = frozenset({outer, wrap_gap})

    assert len(names) == len(letters) + 2
    return ClosedBraidDiagram(w, tuple(names), forbidden, tuple(slots))


def enumerate_states(
    d: ClosedBraidDiagram, budget: int = DEFAULT_BUDGET
) -> list[KauffmanState]:
    """All Kauffman states, by backtracking; sorted for reproducible output.

    Raises ``KauffmanBudgetError`` once the search has entered more than
    ``budget`` backtracking nodes.  The search keeps its own stack, so a
    word with more crossings than the interpreter's recursion limit still
    reaches the budget.
    """
    require_budget(budget)
    c = d.crossing_count
    allowed = []
    for s in d.slots:
        allowed.append(tuple((r, q) for q, r in s if r not in d.forbidden))
    order = sorted(range(c), key=lambda k: (len(allowed[k]), k))

    states: list[KauffmanState] = []
    chosen: list[tuple[int, str] | None] = [None] * c  # by crossing
    tries = [0]  # next option to try at each open depth; the root is entered
    used = 0
    nodes = 1
    while tries:
        depth = len(tries) - 1
        if depth == c:
            assignment = tuple(chosen)
            m = sum(M_WEIGHTS[q] for _, q in assignment)
            a2 = sum(A_WEIGHTS_DOUBLED[q] for _, q in assignment)
            assert a2 % 2 == 0, "knot states have integral Alexander grading"
            states.append(KauffmanState(assignment, m, a2 // 2))
        else:
            options = allowed[order[depth]]
            j = tries[depth]
            while j < len(options) and used >> options[j][0] & 1:
                j += 1
            if j < len(options):
                tries[depth] = j + 1
                chosen[order[depth]] = options[j]
                used |= 1 << options[j][0]
                nodes += 1
                if nodes > budget:
                    raise KauffmanBudgetError(
                        f"state listing reached {nodes} backtracking nodes (budget {budget})"
                    )
                tries.append(0)
                continue
        tries.pop()
        if depth:
            used &= ~(1 << chosen[order[depth - 1]][0])
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
    require_budget(budget)
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
