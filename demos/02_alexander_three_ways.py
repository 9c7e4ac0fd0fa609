"""One polynomial, three engines.

The graded Euler characteristic of knot Floer homology is computed by a
skein recursion on the Conway polynomial, by the reduced Burau
determinant, and (for knots) by the signed count of Kauffman states.
They must agree to the last coefficient.
"""

from braidhfk import (
    alexander_burau,
    bigraded_counts,
    build_diagram,
    closure_components,
    conway,
    figure3,
    hfk_euler,
    HalfLaurent,
    parse_braid,
    torus,
)


def kauffman_poly(w):
    return HalfLaurent.from_pairs(
        (2 * a, n if m % 2 == 0 else -n)
        for (m, a), n in bigraded_counts(build_diagram(w)).items()
    )


for w in [parse_braid("1 1 1"), torus(2, 5), torus(3, 4), figure3(), torus(2, 6)]:
    knot = closure_components(w) == 1
    print(w)
    print(f"  conway:          {conway(w)}")
    print(f"  skein euler:     {hfk_euler(w)}")
    print(f"  burau euler:     {alexander_burau(w)}")
    if knot:
        print(f"  kauffman euler:  {kauffman_poly(w)}")
    engines = [hfk_euler(w), alexander_burau(w)] + ([kauffman_poly(w)] if knot else [])
    print(f"  all equal: {all(p == engines[0] for p in engines)}")
    print()
