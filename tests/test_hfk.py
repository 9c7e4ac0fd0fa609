import random

import pytest

from braidhfk.braidword import (
    MAX_STRANDS,
    BraidWord,
    RangeError,
    closure_components,
    closure_genus,
    decompose,
)
from braidhfk.harness import connected_sum, corpus, disjoint_union, figure3, t2, torus
from braidhfk.hfk import (
    BigradedRank,
    J,
    NegativeRankError,
    UnverifiableError,
    V,
    next_to_top_via_skein,
    predicted_next_to_top,
    predicted_top,
    rn_next_to_top,
    triangle_solve,
)


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
        # fewer components, so its contribution is 1 + 2 and the solve gives 2
        assert triangle_solve(3) == 2

    def test_trefoil_from_hopf(self):
        assert triangle_solve(2) == 1

    def test_maslov_zero_propagates(self):
        # a triangle step would copy the rank at (0, g-1) through from the
        # oriented resolution, and no base case has one, so none appears
        for w in corpus(3, 8):
            if w.is_connected:
                g = closure_genus(w)
                assert next_to_top_via_skein(w).rank_at(0, g - 1) == 0

    def test_injectivity_guard(self):
        with pytest.raises(NegativeRankError):
            triangle_solve(0)


class TestSkeinRecursion:
    def test_base_cases(self):
        assert next_to_top_via_skein(BraidWord(1, ())) == BigradedRank.zero()
        assert next_to_top_via_skein(BraidWord(2, (1,))) == BigradedRank.zero()
        assert next_to_top_via_skein(BraidWord(2, (1, 1))) == BigradedRank({(-1, 0): 2})
        assert next_to_top_via_skein(BraidWord(2, (1, 1, 1))) == BigradedRank({(-1, 0): 1})

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

    def test_unverifiable_on_tiny_budget(self):
        from braidhfk import hfk

        hfk.clear_caches()
        with pytest.raises(UnverifiableError):
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
        with pytest.raises(ValueError, match="budget"):
            rn_next_to_top(5, 0)


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
