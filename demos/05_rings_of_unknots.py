"""Rings of clasped unknots: the next-to-top rank grows with the ring.

Cutting one clasp of the ring of n unknots gives the ring of n-1 and a
chain of n-1 Hopf links, whose top slice has rank 1, so each unknot is a
skein triangle step that adds 1.  Summed from the (2,4) torus link, the
ring of two with rank 2, the rank at Maslov -1 comes out to exactly n.
"""

from braidhfk import J, rn_next_to_top, torus, next_to_top_via_skein

print("base case, the (2,4) torus link:", next_to_top_via_skein(torus(2, 4)))
print()
for n in range(3, 11):
    chain = J.tensor_power(n - 1)
    print(f"ring of {n} unknots: {rn_next_to_top(n)}"
          f"   (Hopf-chain top slice rank = {chain.rank_at(0, n - 1)})")
