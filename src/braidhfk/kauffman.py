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

One sweep over the crossings counts states without listing one (the
bordered picture of Ozsvath-Szabo, "Kauffman states, bordered algebras,
and a bigraded knot invariant", Adv. Math. 2018).  A partial state is
summarised by the set of still-open regions it has used, and the table
is keyed by that bitmask.  After the last crossing that touches a region,
entries that left it unused are dropped and its bit is cleared.  So
every live bit is a region touched both at or before the current step
and at or after it.  The most such regions at any one step is the
order's frontier, and the table never holds more than ``2^frontier``
masks.

The order of the steps is free, since the sweep sums over all states.
In word order every column's gap that wraps past the end of the word
stays live from the first letter to the last, so the frontier is about
``2n`` on ``n`` strands however few letters each column has.  In column
order (every ``s_1`` in word order, then every ``s_2``, and so on) a gap
of column ``i`` stays live only while columns ``i - 1`` to ``i + 1`` are
swept.  ``_sweep_plan`` takes column order when its frontier is strictly
narrower and word order otherwise, ties included: T(7,2) peaks at 4
masks in column order against 301 in word order, while T(p,p+1) keeps
word order.  A budget message's "crossing k of c" counts the crossings
swept, in the order taken.

A state's cost ``2 #IN + #LR`` is ``crossings - 2A``.  ``_sweep`` keeps
the signed sum (Kauffman, *Formal Knot Theory*, 1983) and the counts of
the states of cost at most a cap, packed into integers per mask; its
budget counts live masks.  ``euler_and_top_slice`` caps the cost at
``strands - 1``, the cost at ``A = g``, and returns what ``verify``
reads: the signed sum and the slice at ``A = g``.  ``bigraded_counts``
caps it at ``2 * crossings``, which no state exceeds, and returns the
whole (Maslov, Alexander) histogram for ``states --json``.
``enumerate_states`` lists the states themselves, by backtracking under a
budget of search nodes; it serves the ``states`` text listing and the
tests.  Past its budget each raises ``BudgetError``.
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate

from .braidword import BraidWord, BudgetError, DEFAULT_BUDGET, closure_components, require_budget
from .polynomials import HalfLaurent, _pack, _unpack

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
    # neighbour is the column-(n-1) gap that wraps past the end of the word
    # (the inner disk on one strand, where the empty state is the only one).
    wrap_gap = gap_region[n - 1][-1]
    forbidden = frozenset({outer, wrap_gap})

    assert len(names) == len(letters) + 2
    return ClosedBraidDiagram(w, tuple(names), forbidden, tuple(slots))


def enumerate_states(
    d: ClosedBraidDiagram, budget: int = DEFAULT_BUDGET
) -> list[KauffmanState]:
    """All Kauffman states, by backtracking; sorted for reproducible output.

    Raises ``BudgetError`` once the search has entered more than
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
                    raise BudgetError(
                        f"state listing reached {nodes} backtracking nodes (budget {budget})"
                    )
                tries.append(0)
                continue
        tries.pop()
        if depth:
            used &= ~(1 << chosen[order[depth - 1]][0])
    states.sort(key=lambda s: s.assignment)
    return states


def _frontier(first: list[int], last: list[int], steps: int) -> int:
    """The most regions touched both at or before one step and at or after
    it, from each region's first and last step (last -1: never touched)."""
    change = [0] * (steps + 1)
    for f, l in zip(first, last):
        if l >= 0:
            change[f] += 1
            change[l + 1] -= 1
    return max(accumulate(change))


def _sweep_plan(d: ClosedBraidDiagram) -> tuple[list[list[tuple[int, str]]], list[int]]:
    """Each crossing's (region, quadrant) slots off the forbidden regions, in
    the order the sweep visits them, and the bits of the regions each
    touches last, which retire after it.

    The sweep takes column order, every ``s_1`` in word order, then every
    ``s_2`` and so on, when its frontier (``_frontier``) is strictly
    narrower than word order's, and word order otherwise, ties included.
    Only the regions of the frontier can be live between two steps, so
    the table holds at most ``2^frontier`` masks.  One loop over the
    slots finds each region's first and last step in both orders.  When
    the letters never decrease the two orders are one, and nothing is
    compared.

    Every region off the forbidden two touches some slot, so every bit
    retires: the gap ``c{i}.{j}`` is the OUT region of the crossing that
    opens it, and the inner disk is LEFT of every ``s_1`` crossing.  (A
    diagram cut by hand to leave a region unreached has more crossings
    than reachable regions, so the sweep finds no state in it.)
    """
    allowed = [[(r, q) for q, r in s if r not in d.forbidden] for s in d.slots]
    letters = d.word.letters
    c, regions = len(letters), d.region_count
    by_column = sorted(range(c), key=letters.__getitem__)
    column_step = [0] * c
    for j, k in enumerate(by_column):
        column_step[k] = j
    first, last = [c] * regions, [-1] * regions
    column_first, column_last = [c] * regions, [-1] * regions
    for k, slots in enumerate(allowed):
        j = column_step[k]
        for r, _ in slots:
            if last[r] < 0:
                first[r] = k
            last[r] = k
            if j < column_first[r]:
                column_first[r] = j
            if j > column_last[r]:
                column_last[r] = j
    decreasing = any(a > b for a, b in zip(letters, letters[1:]))
    if decreasing and _frontier(column_first, column_last, c) < _frontier(first, last, c):
        allowed = [allowed[k] for k in by_column]
        last = column_last
    retiring = [0] * c
    for r, p in enumerate(last):
        if p >= 0:
            retiring[p] |= 1 << r
    return allowed, retiring


def _sweep(
    d: ClosedBraidDiagram, cap: int, budget: int
) -> tuple[HalfLaurent, dict[tuple[int, int], int]]:
    """The signed state sum ``sum (-1)^M t^A`` and the (Maslov, Alexander)
    histogram of the states of cost ``2 #IN + #LR`` at most ``cap``, by the
    frontier sweep of the module docstring.

    Each mask keeps three numbers.  Its partial states' signed sum is a
    polynomial in ``u = t^(1/2)`` by cost, where ``2A = crossings - cost``,
    packed at ``u = 2**bits``.  Their unsigned counts of cost at most
    ``cap`` are packed in rows by ``#IN = -M``, with digit ``#LR`` in the
    row; costs only grow, so every digit past the cap is masked off.  And
    the exact number of its partial states bounds every digit of both.  A
    mask whose packed values are both 0 is dropped.  The digit width
    starts at 16 bits and doubles, and the table is repacked, once the
    live state count times a crossing's slot count could outgrow it.  The
    crossings are visited in the order of ``_sweep_plan``, column or word
    order, whichever has the strictly narrower frontier (word order on a
    tie), so at most ``2^frontier`` masks are ever live.

    Raises ``BudgetError`` once the live table holds more than
    ``budget`` masks.
    """
    require_budget(budget)
    allowed, retiring = _sweep_plan(d)
    c = d.crossing_count
    # #LR is at most c, and at most 1 on two strands, where LEFT is the
    # inner disk and RIGHT the forbidden outer region.  A row is two digits
    # wider than the most #LR it keeps, so a move from a kept cell lands
    # at most one digit past it, below the next row
    lr_max = min(cap, 1 if d.word.strands == 2 else c)
    width = lr_max + 2
    kept = [min(cap - 2 * i, lr_max) + 1 for i in range(cap // 2 + 1)]

    def ones(bits: int) -> int:
        """All-ones digits on the kept cells: the mask of the kept counts."""
        one, zero = b"\xff" * (bits // 8), bytes(bits // 8)
        return int.from_bytes(b"".join(one * k + zero * (width - k) for k in kept), "little")

    # 16 bits hold every digit of the top slices of the knots of
    # corpus(4, 10), so their sweeps never pay for a repack, a pass that
    # rebuilds the whole table
    bits, total = 16, 1
    keep = ones(bits)
    table: dict[int, tuple[int, int, int]] = {0: (1, 1, 1)}
    for p, slots in enumerate(allowed):
        if (total * len(slots)).bit_length() + 2 > bits:
            old = bits
            while (total * len(slots)).bit_length() + 2 > bits:
                bits *= 2
            table = {
                mask: (_pack(_unpack(signed, old), bits), _pack(_unpack(sliced, old), bits), k)
                for mask, (signed, sliced, k) in table.items()
            }
            keep = ones(bits)
        done = retiring[p]
        moves = []
        for r, q in slots:
            cost, in_count = 1 - A_WEIGHTS_DOUBLED[q], -M_WEIGHTS[q]
            moves.append((1 << r, cost * bits, in_count % 2, (cost + lr_max * in_count) * bits))
        nxt: dict[int, list[int]] = {}
        for mask, (signed, sliced, k) in table.items():
            for bit, shift, negate, slice_shift in moves:
                if mask & bit:
                    continue
                after = mask | bit
                if after & done != done:
                    continue
                step = -(signed << shift) if negate else signed << shift
                out = nxt.get(after ^ done)
                if out is None:
                    nxt[after ^ done] = [step, sliced << slice_shift, k]
                else:
                    out[0] += step
                    out[1] += sliced << slice_shift
                    out[2] += k
        table = {}
        total = 0
        for mask, (signed, sliced, k) in nxt.items():
            sliced &= keep
            if signed or sliced:
                table[mask] = (signed, sliced, k)
                total += k
        if len(table) > budget:
            raise BudgetError(
                f"state table reached {len(table)} masks at crossing {p + 1}"
                f" of {c} (budget {budget})"
            )

    signed, sliced, _ = table.get(0, (0, 0, 0))
    euler = {}
    for cost, v in enumerate(_unpack(signed, bits)):
        if v:
            assert (c - cost) % 2 == 0, "knot states have integral Alexander grading"
            euler[c - cost] = v
    counts = {}
    for j, v in enumerate(_unpack(sliced, bits)):
        if v:
            in_count, lr = divmod(j, width)
            cost = 2 * in_count + lr
            assert (c - cost) % 2 == 0, "knot states have integral Alexander grading"
            counts[(-in_count, (c - cost) // 2)] = v
    return HalfLaurent(euler), counts


def bigraded_counts(
    d: ClosedBraidDiagram, budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, int], int]:
    """Histogram of state bigradings (Maslov, Alexander) -> count: ``_sweep``
    with its cap at ``2 * crossings``, a cost no state exceeds, so nothing
    is masked off.

    Raises ``BudgetError`` once the live table holds more than
    ``budget`` masks.
    """
    return _sweep(d, 2 * d.crossing_count, budget)[1]


def euler_and_top_slice(
    d: ClosedBraidDiagram, budget: int = DEFAULT_BUDGET
) -> tuple[HalfLaurent, dict[tuple[int, int], int]]:
    """The signed state sum ``sum (-1)^M t^A`` and the histogram of the slice
    at ``A = g``: all that ``verify`` reads.  ``_sweep`` keeps the states of
    cost at most ``strands - 1``, the cost at ``A = g``, and the slice is
    those of that cost.

    Raises ``BudgetError`` once the live table holds more than
    ``budget`` masks.
    """
    top = d.word.strands - 1
    euler, counts = _sweep(d, top, budget)
    g = (d.crossing_count - top) // 2
    return euler, {(m, a): k for (m, a), k in counts.items() if a == g}


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
