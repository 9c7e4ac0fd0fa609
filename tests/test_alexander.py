import random
import tracemalloc
from collections import Counter

import pytest
import sympy

from braidhfk.alexander import (
    _bareiss_det,
    _pack,
    _unpack,
    alexander_burau,
    conway,
    hfk_euler,
)
from braidhfk.braidword import DEFAULT_BUDGET, BraidWord, BudgetError, closure_components, closure_genus
from braidhfk.harness import connected_sum, corpus, disjoint_union, figure3, torus, verify_all
from braidhfk.polynomials import ConwayPoly, HalfLaurent, InexactDivisionError
from burau_oracle import burau_by_lists, euler_bridge, normalize_symmetric
from skein_tree_oracle import conway_by_skein_tree


def torus_alexander_oracle(p, q):
    """Centered Alexander polynomial of the (p, q) torus knot via the
    classical quotient (t^{pq}-1)(t-1) / ((t^p-1)(t^q-1)), as a HalfLaurent."""
    t = sympy.symbols("t")
    num = (t ** (p * q) - 1) * (t - 1)
    den = (t ** p - 1) * (t ** q - 1)
    poly = sympy.Poly(sympy.cancel(num / den), t)
    coeffs = poly.all_coeffs()[::-1]  # ascending
    degree = len(coeffs) - 1
    return HalfLaurent.from_pairs(
        (2 * k - degree, int(c)) for k, c in enumerate(coeffs)
    )


def random_word(strands, length, seed):
    rng = random.Random(seed)
    return BraidWord(strands, tuple(rng.randint(1, strands - 1) for _ in range(length)))


def short_random_words(seed, count):
    """``count`` words of 2 to 4 strands and at most 8 letters."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        yield BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))


# Conway polynomials of the (2, k) torus links follow the two-step
# recursion nabla_k = nabla_{k-2} + z nabla_{k-1} from nabla_0 = 0,
# nabla_1 = 1; the first few are frozen here after expanding by hand.
T2_CONWAY = {
    0: (),
    1: (1,),
    2: (0, 1),
    3: (1, 0, 1),
    4: (0, 2, 0, 1),
    5: (1, 0, 3, 0, 1),
    6: (0, 3, 0, 4, 0, 1),
    7: (1, 0, 6, 0, 5, 0, 1),
}


class TestConway:
    def test_hopf(self):
        assert conway(BraidWord(2, (1, 1))) == ConwayPoly.z()

    def test_trefoil(self):
        assert conway(BraidWord(2, (1, 1, 1))) == ConwayPoly((1, 0, 1))

    def test_torus_two_strand_table(self):
        for k, coeffs in T2_CONWAY.items():
            assert conway(torus(2, k)).coefficients == coeffs

    def test_recursion_identity(self):
        for k in range(2, 13):
            lhs = conway(torus(2, k))
            rhs = conway(torus(2, k - 2)) + conway(torus(2, k - 1)).times_z()
            assert lhs == rhs

    def test_connected_sum_multiplicativity(self):
        w = BraidWord(3, (1, 1, 1, 2, 2, 2))
        assert conway(w) == conway(torus(2, 3)) * conway(torus(2, 3))

    def test_split_links_vanish(self):
        assert conway(BraidWord(4, (1, 1, 3, 3))) == ConwayPoly.zero()
        assert conway(BraidWord(2, ())) == ConwayPoly.zero()

    def test_unknot(self):
        assert conway(BraidWord(1, ())) == ConwayPoly.one()
        assert conway(BraidWord(2, (1,))) == ConwayPoly.one()

    def test_unknots_on_many_strands(self):
        # the destabilisations of prime_factors take both words apart
        # before any sweep, so neither builds a table of 1000-strand keys
        for letters in (range(1, 1000), range(999, 0, -1)):
            assert conway(BraidWord(1000, tuple(letters))) == ConwayPoly.one()

    def test_connected_sum_of_large_factors(self):
        # each factor's sweep holds at most 6! = 720 arrangements; one
        # sweep of the sum would hold products of the two
        w = connected_sum(torus(6, 7), torus(6, 7))
        assert conway(w) == conway(torus(6, 7)) * conway(torus(6, 7))
        assert hfk_euler(w) == alexander_burau(w)

    def test_budget_failure_names_the_factor_and_the_word(self):
        w = connected_sum(torus(2, 3), torus(6, 7))
        with pytest.raises(BudgetError) as info:
            conway(w, budget=719)
        assert str(info.value) == (
            f"Hecke sweep of {torus(6, 7)}, a factor of {w}, passed the budget of 719 entries after letter 30"
        )

    def test_a_warm_table_answers_no_other_budget(self):
        # the default budget's sweep of T(6,7) is tabled, but a smaller
        # budget sweeps the factor again and fails with the same message
        from braidhfk import alexander

        w = connected_sum(torus(2, 3), torus(6, 7))
        with pytest.raises(BudgetError) as cold:
            hfk_euler(w, budget=719)
        assert hfk_euler(w) == alexander_burau(w)
        assert (DEFAULT_BUDGET, 6, torus(6, 7).letters) in alexander._conway_cache
        with pytest.raises(BudgetError) as warm:
            hfk_euler(w, budget=719)
        assert str(warm.value) == str(cold.value)
        with pytest.raises(ValueError, match="budget must be positive"):
            conway(w, 0)

    def test_many_strands_with_repeated_squares(self):
        # squares s_1^2 s_3^2 ... double the table, and two passes up the
        # strands keep the word prime on 1000 strands.  Each key holds one
        # number per strand, but each packed value is sized by the word's
        # length, not the strand count, so the failing call holds about
        # 2**11 keys of 1000 numbers and small values.
        sq = tuple(x for j in range(11) for x in (2 * j + 1, 2 * j + 1))
        w = BraidWord(1000, sq + tuple(range(1, 1000)) * 2)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="budget of 2000 entries after letter 22$"):
                conway(w, budget=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_many_strands_match_the_skein_tree(self):
        sq = tuple(x for j in range(3) for x in (2 * j + 1, 2 * j + 1))
        w = BraidWord(40, sq + tuple(range(1, 40)) * 2)
        assert conway(w) == conway_by_skein_tree(w)

    def test_budget_caps_the_skein_tree(self):
        # T(5,6)'s sweep reaches all 5! = 120 arrangements; a table's size
        # depends only on the word, so a failed call leaves nothing behind
        w = torus(5, 6)
        for _ in range(2):
            with pytest.raises(BudgetError, match="budget of 119 entries"):
                conway(w, budget=119)
        assert hfk_euler(w, budget=120) == alexander_burau(w)

    def test_budget_failure_names_the_word_and_the_letter(self):
        # T(6,7)'s sweep first holds 6! = 720 arrangements after letter 30
        w = torus(6, 7)
        with pytest.raises(BudgetError) as info:
            conway(w, budget=719)
        assert str(info.value) == f"Hecke sweep of {w} passed the budget of 719 entries after letter 30"

    @pytest.mark.parametrize("p", range(2, 9))
    def test_torus_knots_up_to_t89_at_the_default_budget(self, p):
        w = torus(p, p + 1)
        assert hfk_euler(w) == alexander_burau(w)

    def test_matches_the_skein_tree_on_the_corpus(self):
        for w in corpus(4, 9):
            assert conway(w) == conway_by_skein_tree(w), w


class TestHfkEuler:
    def test_hopf_matches_signed_rank_sum(self):
        # F[0,1] + F^2[-1,0] + F[-2,-1] signed: +t - 2 + t^-1
        assert hfk_euler(BraidWord(2, (1, 1))) == HalfLaurent({2: 1, 0: -2, -2: 1})

    def test_trefoil(self):
        assert hfk_euler(BraidWord(2, (1, 1, 1))) == HalfLaurent({2: 1, 0: -1, -2: 1})

    def test_unknot(self):
        assert hfk_euler(BraidWord(2, (1,))) == HalfLaurent.one()

    def test_t24(self):
        assert hfk_euler(torus(2, 4)) == HalfLaurent(
            {4: 1, 2: -2, 0: 2, -2: -2, -4: 1}
        )

    def test_torus_knots_match_classical_formula(self):
        for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (3, 8)]:
            assert hfk_euler(torus(p, q)) == torus_alexander_oracle(p, q)


class TestBurau:
    def test_trefoil(self):
        assert alexander_burau(BraidWord(2, (1, 1, 1))) == HalfLaurent(
            {2: 1, 0: -1, -2: 1}
        )

    def test_hopf(self):
        assert alexander_burau(BraidWord(2, (1, 1))) == HalfLaurent({2: 1, 0: -2, -2: 1})

    def test_figure3_top_coefficients(self):
        p = alexander_burau(figure3())
        assert p.top_doubled == 8  # t^4
        assert p.coefficient(4) == 1
        assert p.coefficient(3) == -1

    def test_sympy_burau_oracle(self):
        # independent reduced Burau: sympy matrices over the symbol t
        t = sympy.symbols("t")

        def sympy_burau(w: BraidWord):
            n = w.strands
            mats = {}
            for i in range(1, n):
                m = sympy.eye(n - 1)
                m[i - 1, i - 1] = -t
                if i > 1:
                    m[i - 2, i - 1] = t
                if i < n - 1:
                    m[i, i - 1] = 1
                mats[i] = m
            acc = sympy.eye(n - 1)
            for i in w.letters:
                acc = acc * mats[i]
            det = (acc - sympy.eye(n - 1)).det()
            quotient = sympy.cancel(det / sum(t ** k for k in range(n)))
            return sympy.expand(quotient)

        rng = random.Random(12)
        words = []
        for _ in range(30):
            n = rng.randint(2, 7)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 9)))
            words.append(BraidWord(n, letters))
        for _ in range(12):
            # leave one generator out: a split closure, whose elimination
            # meets zero pivots and has to swap rows
            n = rng.randint(3, 7)
            unused = rng.randint(1, n - 1)
            alphabet = [i for i in range(1, n) if i != unused]
            letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
            words.append(BraidWord(n, letters))
        for w in words:
            ours = alexander_burau(w)
            theirs = sympy_burau(w)
            if theirs == 0:
                assert ours == HalfLaurent.zero()
                continue
            # compare up to the unit +-t^(k/2) that the pipeline normalises away
            poly = sympy.Poly(theirs, t)
            coeffs = poly.all_coeffs()[::-1]
            raw = HalfLaurent.from_pairs((2 * k, int(c)) for k, c in enumerate(coeffs))
            assert ours == normalize_symmetric(euler_bridge(raw, closure_components(w)))

    def test_bareiss_matches_sympy_det(self):
        # sparse random matrices over Z[t]: zero pivots, row swaps and
        # all-zero columns all occur.  Entries have l1 norm at most 6, so
        # by Hadamard every coefficient of a 5x5 determinant is below
        # (6 * sqrt(5))**5 < 2**19, inside the digits of base 2**24.
        t = sympy.symbols("t")
        bits = 24
        rng = random.Random(13)
        swaps = zeros = 0
        for _ in range(60):
            size = rng.randint(1, 5)
            rows = [
                [
                    [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
                    if rng.random() < 0.4 else []
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            for row in rows:
                for entry in row:
                    while entry and not entry[-1]:
                        entry.pop()
            swaps += not rows[0][0] and any(row[0] for row in rows)
            expected = sympy.Matrix(
                [[sum(c * t ** k for k, c in enumerate(e)) for e in row] for row in rows]
            ).det()
            det = _unpack(_bareiss_det([[_pack(e, bits) for e in row] for row in rows]), bits)
            zeros += not det
            assert sympy.expand(sum(c * t ** k for k, c in enumerate(det)) - expected) == 0
        assert swaps and zeros

    def test_empty_determinant_is_one(self):
        assert _bareiss_det([]) == 1

    def test_division_by_t_n_minus_1_rejects_a_remainder(self, monkeypatch):
        from braidhfk import alexander

        def det_plus_one(a):
            return _bareiss_det(a) + 1

        monkeypatch.setattr(alexander, "_bareiss_det", det_plus_one)
        with pytest.raises(InexactDivisionError, match="nonzero remainder"):
            alexander_burau(BraidWord(2, (1, 1, 1)))
        # a failure is not tabled, so the next call computes afresh
        assert alexander_burau.cache_info().currsize == 0
        monkeypatch.undo()
        assert alexander_burau(BraidWord(2, (1, 1, 1))) == torus_alexander_oracle(2, 3)

    @pytest.mark.parametrize("p", [*range(5, 17), 20, 24])
    def test_torus_knots_past_the_skein_range(self, p):
        assert alexander_burau(torus(p, p + 1)) == torus_alexander_oracle(p, p + 1)

    @pytest.mark.parametrize(
        "w",
        [
            BraidWord(3, figure3().letters * 20),
            random_word(10, 200, seed=8),
            torus(24, 25),
            BraidWord(2, (1,) * 1101),
        ],
        ids=["10_139^20", "random 10x200", "T(24,25)", "1^1101"],
    )
    def test_matches_the_list_engine(self, w):
        # 42-bit and 38-bit coefficients, a 23x23 elimination, and a
        # degree-1101 determinant on two strands
        assert alexander_burau(w) == burau_by_lists(w)

    def test_split_inputs_vanish(self, monkeypatch):
        # an unused generator leaves a zero column, so no elimination runs
        from braidhfk import alexander

        def forbidden(a):
            raise AssertionError("Bareiss elimination ran")

        monkeypatch.setattr(alexander, "_bareiss_det", forbidden)
        assert alexander_burau(BraidWord(4, (1, 1, 3, 3))) == HalfLaurent.zero()
        assert alexander_burau(BraidWord(3, (1, 1))) == HalfLaurent.zero()
        assert alexander_burau(BraidWord(2, ())) == HalfLaurent.zero()
        assert alexander_burau(BraidWord(200, tuple(range(1, 199)))) == HalfLaurent.zero()
        with pytest.raises(AssertionError, match="Bareiss elimination ran"):
            alexander_burau(BraidWord(3, (1, 2, 2)))

    @pytest.mark.parametrize("direct_bits", [0, 10**6], ids=["repack", "direct"])
    def test_both_decode_widths_match_the_list_engine(self, direct_bits, monkeypatch):
        # 0 repacks every word at its entries' Hadamard width; 10**6
        # decodes every word at the width the norm bound gives
        from braidhfk import alexander

        monkeypatch.setattr(alexander, "_DIRECT_BITS", direct_bits)
        for w in short_random_words(seed=6, count=150):
            assert alexander_burau(w) == burau_by_lists(w)
        for p in range(1, 9):
            assert alexander_burau(torus(p, p + 1)) == burau_by_lists(torus(p, p + 1))

    def test_corpus_words_decode_without_a_repack(self, monkeypatch):
        # the corpus peaks at a 25-bit decode width; the 361-bit ladder
        # and T(12,13) are past _DIRECT_BITS and repack
        from braidhfk import alexander

        calls = Counter()

        def counting(fn):
            def counted(*args):
                calls[fn.__name__] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(alexander, "_pack", counting(_pack))
        monkeypatch.setattr(alexander, "_bareiss_det", counting(_bareiss_det))
        words = corpus(4, 10)
        verify_all(words)
        # each distinct word evaluated is one miss; all but the split corpus
        # words run the elimination (a prime factor is never split)
        split = sum(not w.is_connected for w in set(words))
        assert calls["_pack"] == 0
        assert calls["_bareiss_det"] == alexander_burau.cache_info().misses - split == 2523
        for w in (torus(12, 13), BraidWord(30, tuple(range(1, 30)) + tuple(range(29, 0, -1)))):
            calls.clear()
            alexander_burau(w)
            assert calls["_pack"] == (w.strands - 1) ** 2
            assert calls["_bareiss_det"] == 1

    def test_unknot_cases(self):
        assert alexander_burau(BraidWord(1, ())) == HalfLaurent.one()
        assert alexander_burau(BraidWord(2, (1,))) == HalfLaurent.one()


class TestOracleAgreement:
    def test_random_words(self):
        for w in short_random_words(seed=6, count=150):
            assert hfk_euler(w) == alexander_burau(w)

    def test_palindromic_and_top_one(self):
        for w in short_random_words(seed=8, count=100):
            p = hfk_euler(w)
            assert p.is_symmetric()
            if w.is_connected:
                assert p.coefficient(closure_genus(w)) == 1

    def test_multiplicative_under_connected_sum(self):
        pairs = [
            (torus(2, 3), torus(2, 3)),
            (torus(2, 5), torus(2, 2)),
            (torus(3, 4), torus(2, 3)),
        ]
        for w1, w2 in pairs:
            assert hfk_euler(connected_sum(w1, w2)) == hfk_euler(w1) * hfk_euler(w2)

    def test_disjoint_union_vanishes(self):
        u = disjoint_union(torus(2, 3), torus(2, 2))
        assert hfk_euler(u) == HalfLaurent.zero()
        assert alexander_burau(u) == HalfLaurent.zero()


def second_coefficient(w):
    """Coefficient of ``t^(g-1)`` in the graded Euler characteristic."""
    return hfk_euler(w).coefficient(closure_genus(w) - 1)


class TestSecondCoefficient:
    def test_trefoil(self):
        assert second_coefficient(BraidWord(2, (1, 1, 1))) == -1

    def test_hopf(self):
        assert second_coefficient(BraidWord(2, (1, 1))) == -2

    def test_granny(self):
        # coefficient of t in (t - 1 + t^-1)^2; p + |L| - s = 2
        assert second_coefficient(BraidWord(3, (1, 1, 1, 2, 2, 2))) == -2

    def test_counts_identity_on_random_words(self):
        from braidhfk.braidword import closure_components, decompose

        for w in short_random_words(seed=10, count=80):
            lc = decompose(w)
            if lc.split_count > 1:
                # the Euler characteristic of a split closure vanishes
                assert second_coefficient(w) == 0
                continue
            expected = -(lc.prime_count + closure_components(w) - 1)
            assert second_coefficient(w) == expected

    def test_engine_failure_surfaces(self):
        # a simple braid keeps one arrangement through the sweep, but its
        # trace needs tables of up to 4, past a budget of 1
        with pytest.raises(BudgetError, match="destabilising strand 5"):
            conway(BraidWord(5, (4, 2, 3, 4, 1, 2, 3, 1)), budget=1)


class TestEngineIndependence:
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
    def test_skein_never_runs_the_orbit_search(self, w, monkeypatch):
        # the skein route takes its own cuts by prime_factors and never
        # reads the result of decompose
        from braidhfk import alexander, braidword

        def forbidden(*args):
            raise AssertionError("skein engine called decompose")

        monkeypatch.setattr(braidword, "decompose", forbidden)
        monkeypatch.setattr(alexander, "decompose", forbidden, raising=False)
        assert hfk_euler(w) == alexander_burau(w)

    def test_burau_reads_an_unused_generator_from_the_letters(self, monkeypatch):
        # Burau finds the zero column itself, not through the split pieces
        from braidhfk import alexander, braidword

        def forbidden(*args):
            raise AssertionError("Burau engine called decompose or split_pieces")

        w = disjoint_union(torus(2, 3), torus(2, 2))
        for name in ("decompose", "split_pieces"):
            monkeypatch.setattr(braidword, name, forbidden)
            monkeypatch.setattr(alexander, name, forbidden, raising=False)
        assert alexander_burau(w) == HalfLaurent.zero()
