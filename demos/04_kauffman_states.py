"""Kauffman states of a closed braid, crossing by crossing.

Each state assigns every crossing one of its four corners (OUT, IN,
LEFT, RIGHT) so that the used regions form a bijection; the weights of
the corners give the Maslov/Alexander bigrading.  The trefoil has three
states; the 10-crossing example knot has 45, with a unique state in the
top Alexander grading and only Maslov 0 and -1 just below it.  The
histogram comes from a sweep over the crossings that never lists the
states; only the short listing below does.
"""

from braidhfk import build_diagram, enumerate_states, figure3, parse_braid
from braidhfk.kauffman import bigraded_counts, counts_to_json, state_line

for w in [parse_braid("1 1 1"), figure3()]:
    d = build_diagram(w)
    counts = bigraded_counts(d)
    total = sum(counts.values())
    print(f"{w}: {d.region_count} regions, {len(d.forbidden)} forbidden, "
          f"{total} states")
    if total <= 10:
        for s in enumerate_states(d):
            print("  " + state_line(d, s))
    print(f"  histogram: {counts_to_json(counts)}")
    top_a = max(a for _, a in counts)
    print(f"  states at A={top_a}: {[(m, c) for (m, a), c in counts.items() if a == top_a]}")
    print(f"  states at A={top_a - 1}: "
          f"{sorted((m, c) for (m, a), c in counts.items() if a == top_a - 1)}")
    print()
