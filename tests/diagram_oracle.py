"""Reference region bookkeeping for ``kauffman.build_diagram``.

This is the builder ``kauffman.build_diagram`` used before it numbered
the regions in one walk with running counts: it lists the positions of
each generator first, finds a crossing's own gap with ``list.index`` and
the gaps beside it by bisection, so it shares nothing but the diagram
types with the code it checks.
"""

from bisect import bisect_left

from braidhfk.braidword import closure_components
from braidhfk.kauffman import (
    IN,
    LEFT,
    OUT,
    RIGHT,
    ClosedBraidDiagram,
    MultiComponentError,
    SplitDiagramError,
)


def reference_diagram(w):
    """Region names, forbidden regions and slots of the closure of ``w``."""
    if not w.is_connected:
        raise SplitDiagramError(f"unused generator in {w}")
    if closure_components(w) != 1:
        raise MultiComponentError(f"closure of {w} is not a knot")
    n = w.strands
    letters = w.letters

    if n == 1:
        return ClosedBraidDiagram(w, ("inner", "outer"), frozenset({0, 1}), ())

    occurrences = {i: [] for i in range(1, n)}
    for p, x in enumerate(letters):
        occurrences[x].append(p)

    names = ["inner"]
    gap_region = {}
    for i in range(1, n):
        ids = []
        for j in range(len(occurrences[i])):
            ids.append(len(names))
            names.append(f"c{i}.{j}")
        gap_region[i] = ids
    outer = len(names)
    names.append("outer")

    def containing_gap(column, p):
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

    wrap_gap = gap_region[n - 1][-1]
    forbidden = frozenset({outer, wrap_gap})
    return ClosedBraidDiagram(w, tuple(names), forbidden, tuple(slots))
