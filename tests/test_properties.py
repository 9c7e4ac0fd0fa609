"""Property tests: the Burau engine sees closures, not words, and the
Kauffman sweep counts what the enumerator lists.

Rotation, far commutation and the braid relation preserve the closure,
so ``alexander_burau`` must not change under any of them.  Examples are
drawn deterministically so that the suite gives the same verdict on
every run.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from braidhfk.alexander import alexander_burau
from braidhfk.braidword import BraidWord, closure_components
from braidhfk.kauffman import bigraded_counts, build_diagram, enumerate_states

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def words(draw, min_strands=2, max_len=12):
    n = draw(st.integers(min_strands, 6))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len))
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


@st.composite
def knot_words(draw, max_strands=5, max_len=12):
    """Random letters, then ``s_i`` appended for each ``i`` whose strands
    ``i`` and ``i+1`` still close up into different components: each such
    letter merges two components, so the closure ends as one knot that
    uses every generator."""
    n = draw(st.integers(2, max_strands))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len - (n - 1)))
    w = BraidWord(n, tuple(letters))
    for i in range(1, n):
        joined = BraidWord(n, w.letters + (i,))
        if closure_components(joined) < closure_components(w):
            w = joined
    return w


@PROPERTY
@given(knot_words())
def test_kauffman_sweep_counts_the_listed_states(w):
    assert closure_components(w) == 1 and w.is_connected
    d = build_diagram(w)
    listed = Counter((s.maslov, s.alexander) for s in enumerate_states(d))
    assert bigraded_counts(d) == dict(listed)
