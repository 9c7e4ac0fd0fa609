"""Parse positive braid words and read off the closure's basic invariants."""

from braidhfk import (
    closure_components,
    closure_genus,
    decompose,
    fibered_positive,
    from_braid,
    parse_braid,
)

EXAMPLES = [
    ("1 1", "positive Hopf link"),
    ("1 1 1", "right-handed trefoil"),
    ("1 2 1 2", "trefoil again on three strands, its own prime factor"),
    ("1 1 2 3 3", "connected sum of two Hopf links"),
    ("1^3 2^3", "granny knot (trefoil # trefoil)"),
    ("strands=4: 1 1 3 3", "two Hopf links, split"),
    ("1^2 2^3 1 2^4", "a 10-crossing positive braid knot"),
]

for text, name in EXAMPLES:
    w = parse_braid(text.split(":")[-1], strands=4 if "strands=4" in text else None)
    lc = decompose(w)
    graph = from_braid(w)
    print(f"{name}  ({w})")
    print(f"  components |L| = {closure_components(w)}")
    print(f"  split factors s = {lc.split_count}, prime factors p = {lc.prime_count}")
    for f in lc.prime_words:
        print(f"    prime factor: {f}")
    print(f"  genus g = {closure_genus(w)}, fibered = {fibered_positive(graph)}")
    print(f"  Seifert graph: {graph}")
    print()
