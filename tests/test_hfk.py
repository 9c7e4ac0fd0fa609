import random
import tracemalloc

import pytest

from braidhfk.braidword import (
    DEFAULT_BUDGET,
    MAX_STRANDS,
    BraidWord,
    BudgetError,
    RangeError,
    closure_components,
    closure_genus,
    decompose,
    find_adjacent_square,
)
from braidhfk.harness import connected_sum, corpus, disjoint_union, figure3, t2, torus
from braidhfk.hfk import (
    BigradedRank,
    J,
    NegativeRankError,
    V,
    next_to_top_via_skein,
    predicted_next_to_top,
    predicted_top,
    rn_next_to_top,
)


def triangle_step(h, splits=0):
    """One skein triangle step: the rank at ``(M, A) = (-1, g-1)`` of
    ``s_i s_i b`` from ``h``, the rank there of the oriented resolution
    ``s_i b`` plus 2 when it has fewer components, and ``splits``, the rank
    at Maslov -1 of the top group of ``b`` (1 when ``b`` is a two-piece
    union).  The map out of that top group is injective, so ``h >= 1``."""
    assert h >= 1, f"injectivity violated: h={h} < 1"
    return h - 1 + splits


def reference_chain(w, budget=DEFAULT_BUDGET):
    """The triangle fold of the next-to-top chain of a connected word, built
    step by step from the public pieces: for each chain word of positive
    genus, keyed as the chain keys its table, the folded rank and the
    number of steps from it down whose generator occurs exactly twice."""
    steps = []
    while closure_genus(w):
        sq = find_adjacent_square(w, budget)
        l_zero = BraidWord(w.strands, sq.letters[1:])
        delta = closure_components(l_zero) <= closure_components(sq)
        splits = sq.letters.count(sq.letters[0]) == 2
        steps.append(((budget, w.strands, w.letters), delta, splits))
        w = l_zero
    ranks, split_counts, rank, count = {}, {}, 0, 0
    for key, delta, splits in reversed(steps):
        rank = triangle_step(rank + 2 * delta, splits)
        count += splits
        ranks[key], split_counts[key] = rank, count
    return ranks, split_counts


class TestBigradedRank:
    def test_unit_is_identity(self):
        assert BigradedRank.unit().tensor(J) == J

    def test_shift_example(self):
        a = BigradedRank({(-1, 0): 1})
        b = BigradedRank({(0, 0): 1, (-1, 0): 1})
        assert a.tensor(b) == BigradedRank({(-1, 0): 1, (-2, 0): 1})

    def test_j_squared_at_a1(self):
        jj = J.tensor(J)
        assert jj.rank_at(-1, 1) == 4
        # full convolution, binomial pattern of the Hopf chain with two links
        assert jj == BigradedRank(
            {(0, 2): 1, (-1, 1): 4, (-2, 0): 6, (-3, -1): 4, (-4, -2): 1}
        )

    def test_tensor_commutes_and_associates(self):
        rng = random.Random(2)

        def rand_rank():
            return BigradedRank(
                {
                    (rng.randint(-3, 0), rng.randint(-2, 2)): rng.randint(1, 3)
                    for _ in range(rng.randint(0, 4))
                }
            )

        for _ in range(20):
            a, b, c = rand_rank(), rand_rank(), rand_rank()
            assert a.tensor(b) == b.tensor(a)
            assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))

    def test_negative_rank_rejected(self):
        with pytest.raises(NegativeRankError):
            BigradedRank({(0, 0): -1})

    @pytest.mark.parametrize(
        "ranks, expected",
        [
            ({(True, 1): True, (0, 0): False}, [[1, 1, 1]]),
            ({(0.9, 1): 1.7}, TypeError),
            ({(0, 1): 2.0}, TypeError),
            ({(0, 1.0): 1}, TypeError),
            ({(0, 1): -0.5}, TypeError),
        ],
    )
    def test_integer_input_only(self, ranks, expected):
        # a bool is read as an int; any other non-integer is refused, not truncated
        if expected is TypeError:
            with pytest.raises(TypeError):
                BigradedRank(ranks)
            return
        triples = BigradedRank(ranks).to_triples()
        assert triples == expected and all(type(x) is int for t in triples for x in t)

    def test_str_and_triples(self):
        assert str(J) == "F[0,1] ⊕ F^2[-1,0] ⊕ F[-2,-1]"
        assert J.to_triples() == [[0, 1, 1], [-1, 0, 2], [-2, -1, 1]]
        assert str(BigradedRank.zero()) == "0"

    def test_signed_euler(self):
        assert J.signed_euler().to_pairs() == [[2, 1], [0, -2], [-2, 1]]


class TestPredicted:
    def test_hopf(self):
        assert predicted_next_to_top(1, 1, 2, 1) == BigradedRank({(-1, 0): 2})

    def test_trefoil(self):
        assert predicted_next_to_top(1, 1, 1, 1) == BigradedRank({(-1, 0): 1})

    def test_hopf_sqcup_trefoil(self):
        assert predicted_next_to_top(2, 2, 3, 2) == BigradedRank(
            {(-1, 1): 3, (-2, 1): 3}
        )

    def test_unknot_empty(self):
        assert predicted_next_to_top(0, 1, 1, 0) == BigradedRank.zero()

    def test_top_non_split(self):
        assert predicted_top(1, 3) == BigradedRank({(0, 3): 1})

    def test_top_two_component_unlink(self):
        assert predicted_top(2, 0) == BigradedRank({(0, 0): 1, (-1, 0): 1})

    def test_top_hopf_sqcup_trefoil(self):
        assert predicted_top(2, 2) == BigradedRank({(0, 2): 1, (-1, 2): 1})

    def test_top_with_explicit_piece_tops(self):
        # a split closure's top is the tensor of its pieces' tops with V
        tops = BigradedRank({(0, 1): 1}).tensor(BigradedRank({(0, 1): 1}))
        assert predicted_top(2, 2) == tops.tensor(V)


class TestTriangleSolve:
    def test_t24_from_trefoil(self):
        # resolving s1^4: the oriented resolution is the trefoil, which has
        # fewer components, so its contribution is 1 + 2 and the step gives 2
        assert triangle_step(3) == 2

    def test_trefoil_from_hopf(self):
        assert triangle_step(2) == 1

    def test_maslov_zero_propagates(self):
        # a triangle step would copy the rank at (0, g-1) through from the
        # oriented resolution, and no base case has one, so none appears
        for w in corpus(3, 8):
            if w.is_connected:
                g = closure_genus(w)
                assert next_to_top_via_skein(w).rank_at(0, g - 1) == 0

    def test_injectivity_guard(self):
        with pytest.raises(AssertionError, match="injectivity"):
            triangle_step(0)


class TestSkeinRecursion:
    def test_base_cases(self):
        assert next_to_top_via_skein(BraidWord(1, ())) == BigradedRank.zero()
        assert next_to_top_via_skein(BraidWord(2, (1,))) == BigradedRank.zero()
        assert next_to_top_via_skein(BraidWord(2, (1, 1))) == BigradedRank({(-1, 0): 2})
        assert next_to_top_via_skein(BraidWord(2, (1, 1, 1))) == BigradedRank({(-1, 0): 1})

    def test_hopf_and_trefoil_are_one_step_from_the_unknot(self):
        # genus 0 is the only base case: from empty tables, the Hopf link
        # 1 1 is one split step from the unknot 1 on two strands, which is
        # never tabled, and the trefoil 1 1 1 one step that does not split
        # from the Hopf link; each word tables the split steps from it down
        from braidhfk import hfk

        for letters, chain in [((1,), {}),
                               ((1, 1), {(1, 1): 1}),
                               ((1, 1, 1), {(1, 1, 1): 1, (1, 1): 1})]:
            hfk.clear_caches()
            next_to_top_via_skein(BraidWord(2, letters))
            assert hfk._profile_cache == {(DEFAULT_BUDGET, 2, k): v for k, v in chain.items()}
        hfk.clear_caches()

    def test_t24(self):
        assert next_to_top_via_skein(torus(2, 4)) == BigradedRank({(-1, 1): 2})

    def test_hopf_hopf_chain(self):
        # s1^2 s2 s3^2 is a connected sum of two Hopf links pinched at s2
        w = BraidWord(4, (1, 1, 2, 3, 3))
        assert next_to_top_via_skein(w) == BigradedRank({(-1, 1): 4})

    def test_agrees_with_formula_on_random_words(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(2, 4)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 9)))
            w = BraidWord(n, letters)
            lc = decompose(w)
            expected = predicted_next_to_top(
                lc.prime_count, lc.split_count, lc.components, closure_genus(w)
            )
            assert next_to_top_via_skein(w) == expected

    def test_agrees_on_sums_and_unions(self):
        pairs = [
            (torus(2, 3), torus(2, 2)),
            (torus(2, 4), torus(3, 4)),
            (figure3(), torus(2, 2)),
        ]
        for w1, w2 in pairs:
            for w in (connected_sum(w1, w2), disjoint_union(w1, w2)):
                lc = decompose(w)
                expected = predicted_next_to_top(
                    lc.prime_count, lc.split_count, lc.components, closure_genus(w)
                )
                assert next_to_top_via_skein(w) == expected

    def test_prime_knots_have_rank_one(self):
        for w in [torus(2, 5), torus(2, 7), torus(3, 4), torus(3, 5), figure3()]:
            g = closure_genus(w)
            assert next_to_top_via_skein(w) == BigradedRank({(-1, g - 1): 1})

    def test_chain_longer_than_the_recursion_limit(self):
        # 1101 crossings resolve one at a time along the l_zero chain
        assert next_to_top_via_skein(t2(1101)) == predicted_next_to_top(1, 1, 1, 550)

    def test_a_split_step_has_delta_one(self):
        # the fold's one rule adds 2 * delta on every step: when the
        # generator occurs exactly twice, l_minus lacks it, so the strands
        # 1..i and i+1..n are never exchanged and l_zero joins two cycles
        splits = 0
        for w in corpus(4, 8):
            if not w.is_connected:
                continue
            while closure_genus(w):
                sq = find_adjacent_square(w)
                l_zero = BraidWord(w.strands, sq.letters[1:])
                if sq.letters.count(sq.letters[0]) == 2:
                    assert closure_components(l_zero) <= closure_components(sq), sq
                    splits += 1
                w = l_zero
        assert splits

    def test_the_chain_holds_little_beyond_its_table(self):
        # a step keeps its key and split flag, not its three words
        from braidhfk import hfk

        w = t2(400)
        hfk.clear_caches()
        tracemalloc.start()
        try:
            next_to_top_via_skein(w)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            hfk.clear_caches()
        assert peak <= 1.5 * retained

    def test_the_chain_fills_the_reference_table(self):
        # the chain meets the squares that find_adjacent_square returns and
        # their l_zero slices, and tables the split steps below each
        from braidhfk import hfk

        words = [w for w in corpus(4, 8) if w.is_connected]
        try:
            for w in words + [torus(7, 8), t2(61), figure3()]:
                hfk.clear_caches()
                next_to_top_via_skein(w)
                assert hfk._profile_cache == reference_chain(w)[1], w
        finally:
            hfk.clear_caches()

    def test_a_step_builds_no_word(self, monkeypatch):
        # building l_minus, l_zero and the square as words at every step
        # made the chain quadratic in its length: 1,198 words on T(2,400)
        from braidhfk import hfk

        w = t2(400)
        built = []
        post_init = BraidWord.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BraidWord, "__post_init__", counted)
        hfk.clear_caches()
        try:
            next_to_top_via_skein(w)
        finally:
            hfk.clear_caches()
        assert len(built) <= 5

    def test_rank_counts_components_and_split_steps(self):
        # the triangle fold gives the rank at (-1, g-1) of a connected
        # closure as |L| - 1 + S, where S counts the chain's steps whose
        # generator occurs exactly twice, and S is the number of prime
        # factors; the chain computes the rank as that count
        words = [w for w in corpus(4, 8) if w.is_connected and closure_genus(w)]
        assert len(words) == 347
        for w in words:
            ranks, split_counts = reference_chain(w)
            key = (DEFAULT_BUDGET, w.strands, w.letters)
            s = split_counts[key]
            assert ranks[key] == closure_components(w) - 1 + s, w
            assert s == decompose(w).prime_count, w
            g = closure_genus(w)
            assert next_to_top_via_skein(w) == BigradedRank({(-1, g - 1): ranks[key]}), w

    def test_unverifiable_on_tiny_budget(self):
        from braidhfk import hfk

        hfk.clear_caches()
        with pytest.raises(BudgetError):
            # a simple braid whose walk over simple conjugates needs 3 nodes
            next_to_top_via_skein(BraidWord(5, (1, 2, 3, 2, 4)), budget=1)
        hfk.clear_caches()


class TestDecompositionIndependence:
    @pytest.mark.parametrize(
        "w",
        [
            torus(4, 5),
            connected_sum(torus(2, 3), torus(3, 4)),
            disjoint_union(torus(2, 3), torus(2, 2)),
            figure3(),
        ],
        ids=["T(4,5)", "T(2,3)#T(3,4)", "T(2,3)+T(2,2)", "10_139"],
    )
    def test_recursion_never_takes_a_decompose_cut(self, w, monkeypatch):
        # the formula counts primes with the cut rules; a recursion that
        # split at the same cuts would share a wrong cut with it
        from braidhfk import braidword, hfk

        lc = decompose(w)
        expected = predicted_next_to_top(
            lc.prime_count, lc.split_count, lc.components, closure_genus(w)
        )

        def forbidden(*args):
            raise AssertionError("skein recursion ran a decompose reduction")

        for name in ("decompose", "immediate_reduction"):
            monkeypatch.setattr(braidword, name, forbidden)
            monkeypatch.setattr(hfk, name, forbidden, raising=False)
        hfk.clear_caches()
        assert next_to_top_via_skein(w) == expected


class TestBudgetBeforeMemo:
    def test_warm_memo_still_rejects_a_bad_budget(self):
        from braidhfk.alexander import hfk_euler

        w = torus(3, 4)
        hfk_euler(w)
        rn_next_to_top(5)
        with pytest.raises(ValueError, match="budget"):
            hfk_euler(w, 0)


class TestRingLinks:
    def test_small_rings(self):
        assert rn_next_to_top(3) == BigradedRank({(-1, 2): 3})
        assert rn_next_to_top(4) == BigradedRank({(-1, 3): 4})
        assert rn_next_to_top(5) == BigradedRank({(-1, 4): 5})

    def test_below_range(self):
        with pytest.raises(ValueError):
            rn_next_to_top(2)

    def test_above_range(self):
        with pytest.raises(RangeError):
            rn_next_to_top(MAX_STRANDS + 1)

    def test_range_up_to_ten(self):
        for n in range(3, 11):
            assert rn_next_to_top(n) == BigradedRank({(-1, n - 1): n})

    def test_largest_ring(self):
        assert rn_next_to_top(MAX_STRANDS) == BigradedRank({(-1, MAX_STRANDS - 1): MAX_STRANDS})

    def test_hopf_chain_top_group_is_f0(self):
        # each ring step resolves a clasp into the chain of k Hopf links and
        # reads its top group as F[0]: rank 1 at Maslov 0, none at -1
        for k in range(1, 51):
            top = [(m, r) for m, a, r in J.tensor_power(k).to_triples() if a == k]
            assert top == [(0, 1)]


class TestKunnethConventions:
    def test_hopf_chain_ranks_are_j_powers(self):
        # connected sums of k Hopf links: compare the closed formula against
        # the J tensor power at the top two gradings
        for k in range(1, 5):
            chain = J.tensor_power(k)
            g = k
            assert chain.rank_at(0, g) == 1
            assert chain.rank_at(-1, g) == 0
            assert chain.rank_at(-1, g - 1) == predicted_next_to_top(
                k, 1, k + 1, g
            ).rank_at(-1, g - 1)

    def test_unlink_tops(self):
        # k-component unlink: V^(k-1) at A = 0
        for k in range(2, 5):
            w = BraidWord(k, ())
            assert closure_components(w) == k
            expected = V.tensor_power(k - 1)
            assert predicted_top(k, 0) == expected
