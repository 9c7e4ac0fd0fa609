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

Two sweeps over the crossings in word order count states without
listing one (the bordered picture of Ozsvath-Szabo, "Kauffman states,
bordered algebras, and a bigraded knot invariant", Adv. Math. 2018).  A
partial state is summarised by the set of still-open regions it has
used, and the table is keyed by that bitmask.  After the last crossing
that touches a region, entries that left it unused are dropped and its
bit is cleared, so only the inner disk, the open gap of each column and
the gaps wrapping past the end of the word are ever live: at most about
``2^(2n)`` masks on ``n`` strands.

``euler_and_top_slice`` keeps only what ``verify`` reads: the signed sum
(Kauffman, *Formal Knot Theory*, 1983) and the slice at ``A = g``.  A
state's cost ``2 #IN + #LR`` is ``crossings - 2A``, and the slice holds
the states of cost ``n - 1``.  Per mask it keeps the signed sum as one
integer packed by cost, the counts of cost at most ``n - 1`` as a second,
and the number of partial states, which sets the digit width.  Masks
whose signed states cancel and that hold no state of the slice are
dropped; its budget counts live masks.  ``bigraded_counts`` builds the
whole (Maslov, Alexander) histogram, one histogram per mask under a
budget of (mask, bigrading) entries; it serves ``states --json`` and is
the top-slice sweep's oracle.  Past its budget either sweep raises
``KauffmanBudgetError``.  ``enumerate_states`` lists the states
themselves, by backtracking under a budget of search nodes; it serves the
``states`` text listing and the tests.
"""

from __future__ import annotations

import dataclasses

from .braidword import BraidWord, DEFAULT_BUDGET, closure_components, require_budget
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


def _sweep_plan(d: ClosedBraidDiagram) -> tuple[list[list[tuple[int, str]]], list[int] | None]:
    """Each crossing's (region, quadrant) slots off the forbidden regions, and
    the bits of the regions it touches last, which retire after it; ``None``
    in place of the bits when some usable region touches no slot, so that
    the diagram has no states.
    """
    allowed = [[(r, q) for q, r in s if r not in d.forbidden] for s in d.slots]
    last_touch: dict[int, int] = {}
    for p, slots in enumerate(allowed):
        for r, _ in slots:
            last_touch[r] = p
    if len(last_touch) < d.region_count - len(d.forbidden):
        return allowed, None
    retiring = [0] * d.crossing_count
    for r, p in last_touch.items():
        retiring[p] |= 1 << r
    return allowed, retiring


def bigraded_counts(
    d: ClosedBraidDiagram, budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, int], int]:
    """Histogram of state bigradings (Maslov, Alexander) -> count, by the
    frontier sweep of the module docstring.

    Raises ``KauffmanBudgetError`` once the live table holds more than
    ``budget`` (mask, bigrading) entries.
    """
    require_budget(budget)
    allowed, retiring = _sweep_plan(d)
    if retiring is None:
        return {}
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


def euler_and_top_slice(
    d: ClosedBraidDiagram, budget: int = DEFAULT_BUDGET
) -> tuple[HalfLaurent, dict[tuple[int, int], int]]:
    """The signed state sum ``sum (-1)^M t^A`` and the histogram of the slice
    at ``A = g``: all that ``verify`` reads, by the frontier sweep of the
    module docstring with packed values in place of histograms.

    Each mask keeps three numbers.  Its partial states' signed sum is a
    polynomial in ``u = t^(1/2)`` by cost ``2 #IN + #LR``, where ``2A =
    crossings - cost``, packed at ``u = 2**bits``.  The unsigned counts of
    those of cost at most ``top = strands - 1``, the cost at ``A = g``, are
    packed at digit ``cost - top * M``; costs only grow, so every other
    digit is masked off.  And the exact number of its partial states bounds
    every digit of both.  A mask whose packed values are both 0 is dropped.
    The digit width doubles, and the table is repacked, once the live
    state count times a crossing's slot count could outgrow it.

    Raises ``KauffmanBudgetError`` once the live table holds more than
    ``budget`` masks.
    """
    require_budget(budget)
    allowed, retiring = _sweep_plan(d)
    if retiring is None:
        return HalfLaurent.zero(), {}
    c, top = d.crossing_count, d.word.strands - 1
    # the slice's cells: cost 2i..top at -M = i.  Only IN raises -M, so a
    # move from a kept cell lands at most at cost top + 1 in its own row,
    # digit top * i + top + 1, below row i + 1's first, (top + 2)(i + 1)
    cells = [cost + top * i for i in range(top // 2 + 1) for cost in range(2 * i, top + 1)]

    def ones(bits: int) -> int:
        """All-ones digits on the slice's cells: the mask of the kept counts."""
        return sum((1 << bits) - 1 << bits * j for j in cells)

    bits, total = 4, 1
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
            moves.append((1 << r, cost * bits, in_count % 2, (cost + top * in_count) * bits))
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
            raise KauffmanBudgetError(
                f"state table reached {len(table)} masks at crossing {p + 1}"
                f" of {c} (budget {budget})"
            )

    signed, sliced, _ = table.get(0, (0, 0, 0))
    euler = {}
    for cost, v in enumerate(_unpack(signed, bits)):
        if v:
            assert (c - cost) % 2 == 0, "knot states have integral Alexander grading"
            euler[c - cost] = v
    digits = _unpack(sliced, bits)
    top_slice = {}
    for i in range(top // 2 + 1):
        j = top + top * i
        if j < len(digits) and digits[j]:
            top_slice[(-i, (c - top) // 2)] = digits[j]
    return HalfLaurent(euler), top_slice


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
