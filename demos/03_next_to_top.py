"""The next-to-top knot Floer group of a positive braid link, two ways.

The closed formula F^(p+|L|-s)[-1] (x) (F[0]+F[-1])^(x)(s-1) depends only
on the prime/split counts; the skein recursion walks exact triangles and
never looks at the decomposition.  Watching them coincide across families
is the package's core cross-check.
"""

from braidhfk import (
    closure_components,
    closure_genus,
    connected_sum,
    decompose,
    disjoint_union,
    figure3,
    next_to_top_via_skein,
    parse_braid,
    predicted_next_to_top,
    predicted_top,
    torus,
)

FAMILIES = [
    ("trefoil", torus(2, 3)),
    ("(2,4) torus link", torus(2, 4)),
    ("(3,5) torus knot", torus(3, 5)),
    ("10-crossing example", figure3()),
    ("granny knot", parse_braid("1^3 2^3")),
    ("trefoil # Hopf", connected_sum(torus(2, 3), torus(2, 2))),
    ("trefoil u Hopf (split)", disjoint_union(torus(2, 3), torus(2, 2))),
    ("three split Hopfs", disjoint_union(torus(2, 2), disjoint_union(torus(2, 2), torus(2, 2)))),
]

for name, w in FAMILIES:
    lc = decompose(w)
    g = closure_genus(w)
    formula = predicted_next_to_top(
        lc.prime_count, lc.split_count, closure_components(w), g
    )
    recursion = next_to_top_via_skein(w)
    print(f"{name}:  p={lc.prime_count} s={lc.split_count} |L|={lc.components} g={g}")
    print(f"  top group:   {predicted_top(lc.split_count, g)}")
    print(f"  formula:     {formula}")
    print(f"  recursion:   {recursion}")
    print(f"  agree: {formula == recursion}")
    print()
