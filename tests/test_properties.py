"""Property tests: the Burau, skein and Kauffman engines see closures, not
words, the doubled-crossing search returns squares of the move orbit and
misses no pair the gap check sees, the next-to-top chain stays on
connected words and ends on its length, the Kauffman sweep counts what the
enumerator lists and the top-slice sweep reads the same histogram, the
Hecke sweep agrees with the skein tree, Burau decodes every determinant
at the width its norm bound gives, the engines obey the connected-sum
and disjoint-union laws, random words pass ``verify``, and the facts
behind its five structural checks hold.

Rotation, far commutation and the braid relation preserve the closure,
so ``alexander_burau``, ``conway``, ``next_to_top_via_skein`` and the
Euler characteristic of the Kauffman histogram must not change under any
of them.  Nor must all of ``verify``'s report but the word, under chains
of these moves and positive Markov stabilisation.
"""

from collections import Counter
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidhfk import alexander, hfk
from braidhfk.alexander import alexander_burau, conway, hfk_euler
from braidhfk.braidword import (
    DEFAULT_BUDGET,
    BraidWord,
    _exchange,
    _simple_conjugate_square,
    closure_components,
    closure_genus,
    decompose,
    find_adjacent_square,
)
from braidhfk.harness import connected_sum, disjoint_union, verify
from braidhfk.hfk import BigradedRank, V, next_to_top_via_skein
from braidhfk.kauffman import bigraded_counts, build_diagram, enumerate_states, euler_and_top_slice
from braidhfk.polynomials import HalfLaurent, _pack, _unpack
from braidhfk.seifert import fibered_positive, from_braid
from burau_oracle import burau_by_lists
from skein_tree_oracle import conway_by_skein_tree
from square_oracle import (
    ALL_MOVES,
    adjacent_pair_by_gaps,
    reference_orbit,
    square_by_checking_every_word,
)

PROPERTY = settings(max_examples=150)


@st.composite
def words(draw, min_strands=2, max_len=12, max_strands=6):
    n = draw(st.integers(min_strands, max_strands))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len)) if n > 1 else []
    return BraidWord(n, tuple(letters))


@PROPERTY
@given(words(), st.integers(0, 11))
def test_rotation(w, k):
    assert alexander_burau(w.rotated(k)) == alexander_burau(w)


@PROPERTY
@given(words(min_strands=4, max_len=10), st.data())
def test_far_commutation(w, data):
    i = data.draw(st.integers(1, w.strands - 3))
    j = data.draw(st.integers(i + 2, w.strands - 1))
    cut = data.draw(st.integers(0, len(w)))
    head, tail = w.letters[:cut], w.letters[cut:]
    assert alexander_burau(BraidWord(w.strands, head + (i, j) + tail)) == alexander_burau(
        BraidWord(w.strands, head + (j, i) + tail)
    )


@PROPERTY
@given(words(min_strands=3, max_len=9), st.data())
def test_braid_relation(w, data):
    i = data.draw(st.integers(1, w.strands - 2))
    cut = data.draw(st.integers(0, len(w)))
    head, tail = w.letters[:cut], w.letters[cut:]
    assert alexander_burau(BraidWord(w.strands, head + (i, i + 1, i) + tail)) == alexander_burau(
        BraidWord(w.strands, head + (i + 1, i, i + 1) + tail)
    )


@settings(max_examples=300)
@given(words(max_strands=7))
@example(BraidWord(1, ()))  # one strand: the matrix has no columns
@example(BraidWord(5, (1, 4, 1, 4)))  # only the letters beside the zero edge columns
def test_packed_burau_matches_the_list_engine(w):
    assert alexander_burau(w) == burau_by_lists(w)


@st.composite
def digit_lists(draw):
    bits = draw(st.integers(2, 80))
    half = 1 << (bits - 1)
    return bits, draw(st.lists(st.integers(-half, half - 1), max_size=300))


@PROPERTY
@given(digit_lists())
@example((5, [-16] * 300))  # every digit at the minimum
@example((5, [15] * 300))  # every digit at the maximum
@example((80, [-(1 << 79)] * 300))
@example((7, []))  # the zero polynomial
@example((3, [-4] * 33 + [2]))  # 33 digits: unpacked by halves, low digits minimal
@example((3, [0] * 32 + [1]))  # 33 coefficients: packed by halves
def test_pack_round_trip(case):
    bits, coeffs = case
    trimmed = list(coeffs)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert _unpack(_pack(coeffs, bits), bits) == trimmed


def skein_invariants(w):
    """Skein Conway and the skein next-to-top group of ``w``, the latter
    from an empty memo table so that no entry of another word is read."""
    hfk.clear_caches()
    return conway(w), next_to_top_via_skein(w)


@settings(max_examples=300)
@given(words(min_strands=1, max_len=14, max_strands=7))
def test_hecke_sweep_matches_the_skein_tree(w):
    assert conway(w) == conway_by_skein_tree(w)


@PROPERTY
@given(words(max_strands=5, max_len=10), st.integers(0, 9))
def test_skein_rotation(w, k):
    assert skein_invariants(w.rotated(k)) == skein_invariants(w)


@PROPERTY
@given(words(min_strands=4, max_len=8, max_strands=5), st.data())
def test_skein_far_commutation(w, data):
    i = data.draw(st.integers(1, w.strands - 3))
    j = data.draw(st.integers(i + 2, w.strands - 1))
    cut = data.draw(st.integers(0, len(w)))
    head, tail = w.letters[:cut], w.letters[cut:]
    assert skein_invariants(BraidWord(w.strands, head + (i, j) + tail)) == skein_invariants(
        BraidWord(w.strands, head + (j, i) + tail)
    )


@PROPERTY
@given(words(min_strands=3, max_len=7, max_strands=5), st.data())
def test_skein_braid_relation(w, data):
    i = data.draw(st.integers(1, w.strands - 2))
    cut = data.draw(st.integers(0, len(w)))
    head, tail = w.letters[:cut], w.letters[cut:]
    assert skein_invariants(BraidWord(w.strands, head + (i, i + 1, i) + tail)) == skein_invariants(
        BraidWord(w.strands, head + (i + 1, i, i + 1) + tail)
    )


@st.composite
def connected_words(draw, max_strands=5, max_len=8):
    """Every generator at least once, in a random order with extra letters:
    the closure diagram is connected, so the closure is not split."""
    n = draw(st.integers(2, max_strands))
    extra = draw(st.lists(st.integers(1, n - 1), max_size=max_len - (n - 1)))
    return BraidWord(n, tuple(draw(st.permutations(list(range(1, n)) + extra))))


@PROPERTY
@given(connected_words(max_strands=6, max_len=30))
def test_the_norm_bound_decodes_every_word_directly(w):
    # the elimination gives det(2**bits) exactly at any width, so decoding
    # at the width of the norms' Hadamard bound is right only if that
    # bound holds for the determinant's coefficients
    with mock.patch.object(alexander, "_DIRECT_BITS", 10**6):
        assert alexander_burau(w) == burau_by_lists(w)


@st.composite
def nearly_simple_words(draw, max_strands=5):
    """A reduced word of a random permutation, read off a bubble sort, with
    at most one extra letter put in: simple braids, which only the walk
    settles, and words in which one pair of strands crosses twice."""
    n = draw(st.integers(3, max_strands))
    at = draw(st.permutations(range(n)))
    swaps = []
    for end in range(n - 1, 0, -1):
        for j in range(1, end + 1):
            if at[j - 1] > at[j]:
                at[j - 1], at[j] = at[j], at[j - 1]
                swaps.append(j)
    letters = swaps[::-1]
    if draw(st.booleans()):
        letters.insert(draw(st.integers(0, len(letters))), draw(st.integers(1, n - 1)))
    w = BraidWord(n, tuple(letters))
    assume(w.is_connected)
    return w


@settings(max_examples=300)
@given(st.one_of(connected_words(), nearly_simple_words()))
@example(BraidWord(3, (1, 2, 1, 2)))  # a pair of strands crosses twice
@example(BraidWord(5, (1, 2, 3, 2, 4)))  # simple: the walk reaches a third conjugate
@example(BraidWord(5, (4, 2, 3, 4, 1, 2, 3, 1)))  # simple and prime
def test_square_lies_in_the_move_orbit(w):
    orbit = {v for v, _ in reference_orbit(w.letters, ALL_MOVES)}
    # the exchange rewrite on its own; the search returns it whenever it hits
    hit = _exchange(w.strands, w.letters)
    sq = find_adjacent_square(w)
    if hit is not None:
        assert len(hit) == len(w) and hit[0] == hit[1] and hit in orbit
        assert sq.letters == hit
    if sq is None:
        assert closure_genus(w) == 0 or square_by_checking_every_word(w, DEFAULT_BUDGET) is None
        return
    assert sq.strands == w.strands and len(sq) == len(w)
    assert sq.letters[0] == sq.letters[1]
    assert sq.letters in orbit


@settings(max_examples=300)
@given(connected_words(max_strands=8, max_len=14))
@example(BraidWord(3, (1, 2, 1)))  # a simple braid whose pair wraps past the end
@example(BraidWord(4, (1, 3, 1, 3, 2, 2)))  # only distant letters between the two s1
def test_two_steps_find_every_pair_the_gap_check_sees(w):
    # two occurrences of i with only distant letters between them cross the
    # same pair of strands, so the exchange hits; the one exception wraps
    # past the end of a simple braid, and the walk's first conjugate has it
    assume(closure_genus(w) > 0 and adjacent_pair_by_gaps(w.letters) is not None)
    assert (_exchange(w.strands, w.letters) is not None
            or _simple_conjugate_square(w.strands, w.letters, 1) is not None)


@settings(max_examples=300)
@given(connected_words(max_strands=8, max_len=14))
@example(BraidWord(3, (1, 2, 2)))  # a split step: the square is 2 2 1, b = 1 lacks s_2
@example(BraidWord(5, (1, 2, 3, 2, 4)))  # simple: the walk finds the square
def test_the_chain_stays_connected_and_ends_on_its_length(w):
    # the next-to-top chain walks l_zero = s_i b, which puts back the one
    # generator b may lack, and stops on the length, since a connected
    # word has genus 0 exactly when it has n - 1 letters
    while True:
        assert w.is_connected
        assert (closure_genus(w) == 0) == (len(w) == w.strands - 1)
        sq = find_adjacent_square(w)
        if sq is None:
            # a search that gave up on a word of positive genus would end
            # the chain early; the property holds only if it reached n - 1
            assert len(w) == w.strands - 1
            break
        w = BraidWord(w.strands, sq.letters[1:])


def joined_up(w):
    """``w`` with ``s_i`` appended for each ``i`` whose strands ``i`` and
    ``i+1`` still close up into different components: each such letter
    merges two components, so the closure ends as one knot that uses every
    generator.  The letters appended depend only on the permutation."""
    for i in range(1, w.strands):
        joined = BraidWord(w.strands, w.letters + (i,))
        if closure_components(joined) < closure_components(w):
            w = joined
    return w


@st.composite
def knot_words(draw, min_strands=2, max_strands=5, max_len=12):
    """Random letters, ``joined_up`` into a knot of at most ``max_len`` letters."""
    n = draw(st.integers(min_strands, max_strands))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len - (n - 1)))
    return joined_up(BraidWord(n, tuple(letters)))


@PROPERTY
@given(knot_words())
def test_kauffman_sweep_counts_the_listed_states(w):
    assert closure_components(w) == 1 and w.is_connected
    d = build_diagram(w)
    listed = Counter((s.maslov, s.alexander) for s in enumerate_states(d))
    assert bigraded_counts(d) == dict(listed)


@PROPERTY
@given(knot_words(max_strands=7, max_len=40))
def test_the_top_slice_sweep_reads_the_histogram(w):
    d = build_diagram(w)
    counts = bigraded_counts(d)
    g = closure_genus(w)
    top = {(m, a): k for (m, a), k in counts.items() if a == g}
    assert euler_and_top_slice(d) == (BigradedRank(counts).signed_euler(), top)


def kauffman_euler(w):
    """Graded Euler characteristic of the Kauffman state histogram of ``w``.
    The histogram itself depends on the diagram; only this is invariant."""
    return BigradedRank(bigraded_counts(build_diagram(w))).signed_euler()


@PROPERTY
@given(knot_words(max_len=10), st.integers(0, 9))
def test_kauffman_rotation(w, k):
    assert kauffman_euler(w.rotated(k)) == kauffman_euler(w)


@PROPERTY
@given(knot_words(min_strands=4, max_len=10), st.data())
def test_kauffman_far_commutation(w, data):
    u = w.letters
    far = [j for j in range(len(u) - 1) if abs(u[j] - u[j + 1]) >= 2]
    assume(far)
    j = data.draw(st.sampled_from(far))
    swapped = BraidWord(w.strands, u[:j] + (u[j + 1], u[j]) + u[j + 2:])
    assert kauffman_euler(swapped) == kauffman_euler(w)


@PROPERTY
@given(st.integers(3, 5), st.data())
def test_kauffman_braid_relation(n, data):
    # the triple is inserted first and the word joined up afterwards: both
    # sides have the same permutation, so the same letters make both knots
    letters = data.draw(st.lists(st.integers(1, n - 1), max_size=10 - 3 - (n - 1)))
    i = data.draw(st.integers(1, n - 2))
    cut = data.draw(st.integers(0, len(letters)))
    head, tail = tuple(letters[:cut]), tuple(letters[cut:])
    a = joined_up(BraidWord(n, head + (i, i + 1, i) + tail))
    b = joined_up(BraidWord(n, head + (i + 1, i, i + 1) + tail))
    assert a.letters[len(letters) + 3:] == b.letters[len(letters) + 3:]
    assert kauffman_euler(a) == kauffman_euler(b)


def next_to_top_rank(w):
    """Rank of the skein next-to-top group of a non-split closure, all at
    ``(M, A) = (-1, g-1)``."""
    return next_to_top_via_skein(w).rank_at(-1, closure_genus(w) - 1)


@PROPERTY
@given(connected_words(max_strands=4), connected_words(max_strands=4))
def test_connected_sum_adds_next_to_top_ranks(a, b):
    w = connected_sum(a, b)
    g = closure_genus(w)
    rank = next_to_top_rank(a) + next_to_top_rank(b)
    assert next_to_top_via_skein(w) == BigradedRank({(-1, g - 1): rank})


@PROPERTY
@given(connected_words(max_strands=4), connected_words(max_strands=4))
def test_disjoint_union_tensors_next_to_top_with_v(a, b):
    w = disjoint_union(a, b)
    g = closure_genus(w)
    rank = next_to_top_rank(a) + next_to_top_rank(b)
    assert next_to_top_via_skein(w) == BigradedRank({(-1, g - 1): rank}).tensor(V)


@PROPERTY
@given(connected_words(max_strands=4), connected_words(max_strands=4))
def test_alexander_multiplies_under_connected_sum(a, b):
    assert alexander_burau(connected_sum(a, b)) == alexander_burau(a) * alexander_burau(b)


@PROPERTY
@given(connected_words(max_strands=4), connected_words(max_strands=4))
def test_euler_vanishes_on_disjoint_union(a, b):
    w = disjoint_union(a, b)
    assert hfk_euler(w) == HalfLaurent.zero()
    assert alexander_burau(w) == HalfLaurent.zero()


@settings(max_examples=300)
@given(words(max_strands=5, max_len=12))
def test_random_words_pass_verify(w):
    # every engine on one word, and every cross-check between them
    report = verify(w)
    assert report.overall_pass, report.render_text()


def report_without_the_word(w):
    """All of ``verify``'s report of ``w`` but the word itself."""
    report = verify(w).to_json()
    del report["word"]
    return report


def moved(w, data):
    """``w`` after one move drawn from those that apply to it: rotation, far
    commutation, the braid relation and positive Markov stabilisation."""
    u, n = w.letters, w.strands
    far = [j for j in range(len(u) - 1) if abs(u[j] - u[j + 1]) >= 2]
    triples = [j for j in range(len(u) - 2) if u[j] == u[j + 2] and abs(u[j] - u[j + 1]) == 1]
    move = data.draw(st.sampled_from(
        ["rotation", "stabilisation"] + ["far commutation"] * bool(far) + ["braid relation"] * bool(triples)
    ))
    if move == "rotation":
        return w.rotated(data.draw(st.integers(1, 11)))
    if move == "stabilisation":
        return BraidWord(n + 1, u + (n,))  # w s_n on n + 1 strands
    if move == "far commutation":
        j = data.draw(st.sampled_from(far))
        return BraidWord(n, u[:j] + (u[j + 1], u[j]) + u[j + 2:])
    j = data.draw(st.sampled_from(triples))
    return BraidWord(n, u[:j] + (u[j + 1], u[j], u[j + 1]) + u[j + 3:])


@PROPERTY
@given(words(min_strands=1, max_len=10), st.data())
def test_whole_reports_are_invariants_of_the_closure(w, data):
    # stabilisation changes the strand count, the Kauffman diagram and the
    # order its sweep takes, and the Burau matrix, while decompose undoes it
    expected = report_without_the_word(w)
    for _ in range(4):
        w = moved(w, data)
        assert report_without_the_word(w) == expected, w


@PROPERTY
@given(words(min_strands=1, max_strands=8, max_len=60), knot_words())
@example(BraidWord(8, (tuple(range(1, 8)) * 9)[:60]), BraidWord(2, (1, 1, 1)))  # drawn lists run short
def test_the_structural_checks_cannot_fail(w, knot):
    # verify's docstring argues why each of these five checks is always true
    n, length, mu = w.strands, len(w), closure_components(w)
    assert (mu - n + length) % 2 == 0  # component_parity
    assert mu >= n - length  # genus_nonnegative
    assert fibered_positive(from_braid(w))  # reduced_graph_forest
    assert decompose(w).verified  # decompose_verified
    assert all(m <= 0 for m, _ in bigraded_counts(build_diagram(knot)))  # kauffman_maslov_band
