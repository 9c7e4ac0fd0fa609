"""Reference Kauffman state histogram, one histogram per mask.

This is the sweep ``kauffman.bigraded_counts`` ran before it became the
uncapped run of the packed sweep ``verify`` uses: a partial state's
bitmask of used regions keys a dict of (Maslov, doubled Alexander) ->
count, and a mask that leaves a region unused past the region's last
step is dropped.  It has no digit packing, cost cap or budget.  It takes
one thing from the package: the crossing order and the slots off the
forbidden regions, from ``_sweep_plan``, since word order would make the
tables of T(p,2) too wide to sweep here and the order changes no sum.
The steps at which regions retire it counts itself.
"""

from braidhfk.kauffman import A_WEIGHTS_DOUBLED, M_WEIGHTS, _sweep_plan


def sweep_histogram(d):
    """Histogram of state bigradings (Maslov, Alexander) -> count."""
    allowed, _ = _sweep_plan(d)
    last = {r: p for p, slots in enumerate(allowed) for r, _ in slots}
    retiring = [0] * len(allowed)
    for r, p in last.items():
        retiring[p] |= 1 << r

    table = {0: {(0, 0): 1}}
    for p, slots in enumerate(allowed):
        done = retiring[p]
        nxt = {}
        for mask, hist in table.items():
            for r, q in slots:
                bit = 1 << r
                if mask & bit or (mask | bit) & done != done:
                    continue
                out = nxt.setdefault((mask | bit) ^ done, {})
                for (m, a2), n in hist.items():
                    key = (m + M_WEIGHTS[q], a2 + A_WEIGHTS_DOUBLED[q])
                    out[key] = out.get(key, 0) + n
        table = nxt

    counts = {}
    for (m, a2), n in table.get(0, {}).items():
        assert a2 % 2 == 0, "knot states have integral Alexander grading"
        counts[(m, a2 // 2)] = n
    return counts
