"""Reference corpus: the walk over every word that ``harness.corpus`` ran
before it walked necklaces.

The words of each length are walked in lex order, and the first word of
each rotation/commutation class met is kept, so it is the class's least
member; the whole class is then marked.  Classes come from
``square_oracle.reference_orbit`` with rotations and distant
commutations only, so this shares nothing but ``BraidWord`` with the
necklace walk it checks.
"""

from itertools import product

from braidhfk.braidword import BraidWord
from square_oracle import _shuffles, reference_orbit


def word_class(u):
    """Every word related to the letters ``u`` by rotations and distant
    commutations, ``u`` first."""
    return [v for v, _ in reference_orbit(u, (_shuffles,))]


def canonical_key(w):
    """The strand count and the least word of ``w``'s class: equal exactly
    for words related by rotations and distant commutations."""
    return (w.strands, min(word_class(w.letters)))


def corpus_by_words(max_strands, max_len):
    """The least word of every class on ``max_strands`` strands of length
    at most ``max_len``, shorter words first, in lex order."""
    words = []
    for length in range(max_len + 1):
        seen = set()
        for letters in product(range(1, max_strands), repeat=length):
            if letters not in seen:
                seen.update(word_class(letters))
                words.append(BraidWord(max_strands, letters))
    return words
