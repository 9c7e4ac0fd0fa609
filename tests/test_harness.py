import ast
import dataclasses
import hashlib
import importlib.util
import math
import pathlib
import random
import sys
import time
import tracemalloc

import pytest

from braidhfk.braidword import (
    DEFAULT_BUDGET,
    MAX_LETTERS,
    MAX_STRANDS,
    BraidWord,
    RangeError,
    closure_components,
    closure_genus,
    decompose,
    parse_serialized,
)
from braidhfk.alexander import alexander_burau, hfk_euler
from braidhfk.hfk import BigradedRank, next_to_top_via_skein, predicted_next_to_top
from braidhfk.harness import (
    BadParamsError,
    UnknownFamilyError,
    connected_sum,
    corpus,
    disjoint_union,
    family,
    figure3,
    necklaces,
    read_corpus_lines,
    reports_to_json,
    t2,
    torus,
    verify,
    verify_all,
)
from corpus_oracle import canonical_key, corpus_by_words


class TestFamilies:
    def test_torus_23(self):
        assert torus(2, 3) == BraidWord(2, (1, 1, 1))
        assert family("torus", 2, 3) == BraidWord(2, (1, 1, 1))

    def test_t2_alias(self):
        assert t2(5) == torus(2, 5)
        assert family("t2", "5") == torus(2, 5)

    def test_figure3(self):
        assert family("figure3") == BraidWord(3, (1, 1, 2, 2, 2, 1, 2, 2, 2, 2))

    def test_connected_sum_shape(self):
        w = connected_sum(BraidWord(2, (1, 1)), BraidWord(2, (1, 1)))
        assert w == BraidWord(3, (1, 1, 2, 2))
        lc = decompose(w)
        assert lc.split_count == 1 and lc.prime_count == 2

    def test_disjoint_union_shape(self):
        w = disjoint_union(BraidWord(2, (1,)), BraidWord(2, (1,)))
        assert w == BraidWord(4, (1, 3))
        assert decompose(w).split_count == 2

    def test_family_word_params_accept_text(self):
        w = family("connected_sum", "1 1", "1 1 1")
        assert w == BraidWord(3, (1, 1, 2, 2, 2))

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            family("pretzel", 1, 2, 3)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            family("torus", 2)
        with pytest.raises(BadParamsError):
            family("torus", "two", 3)
        with pytest.raises(BadParamsError):
            family("figure3", 1)
        with pytest.raises(BadParamsError):
            torus(0, 4)


class TestCorpus:
    def test_two_strand_corpus(self):
        words = corpus(2, 3)
        assert [w.letters for w in words] == [(), (1,), (1, 1), (1, 1, 1)]

    def test_three_strand_length_two(self):
        words = corpus(3, 2)
        assert len([w for w in words if w.letters in ((1, 2), (2, 1))]) == 1
        assert len(words) == 6

    def test_deduplicated_by_canonical_key(self):
        words = corpus(3, 4)
        keys = [canonical_key(w) for w in words]
        assert len(keys) == len(set(keys))
        assert all(key == (w.strands, w.letters) for key, w in zip(keys, words))

    def test_count_stable(self):
        # frozen size of the working corpus; determinism of the enumeration
        assert len(corpus(4, 6)) == 134
        assert [w.letters for w in corpus(4, 6)] == [w.letters for w in corpus(4, 6)]

    def test_size_bounds(self):
        with pytest.raises(RangeError):
            corpus(MAX_STRANDS + 1, 1)
        with pytest.raises(RangeError):
            corpus(2, MAX_LETTERS + 1)
        with pytest.raises(RangeError, match="more than"):
            corpus(4, 40)
        # their classes cover 97,656 and 87,381 words, under the bound
        assert len(corpus(6, 7)) == 1551
        assert len(corpus(5, 8)) == 1651
        # the bound leaves the acceptance corpus as it was
        assert len(corpus(4, 10)) == 2749

    def test_matches_the_word_walk(self):
        # every length whose words number at most 30,000 in all; on two
        # strands each length has one word, so lengths up to 30 stand in
        for n in range(2, 8):
            max_len, walked = 0, 1
            while max_len < 30 and walked + (n - 1) ** (max_len + 1) <= 30_000:
                max_len += 1
                walked += (n - 1) ** max_len
            reference = [w.letters for w in corpus_by_words(n, max_len)]
            for length in range(max_len + 1):
                expected = [u for u in reference if len(u) <= length]
                assert [w.letters for w in corpus(n, length)] == expected, (n, length)
        for n, length in [(4, 10), (100, 2)]:
            assert corpus(n, length) == corpus_by_words(n, length)

    def test_necklaces_are_the_least_rotations_in_order(self):
        for k in range(1, 5):
            assert list(necklaces(k, 0)) == [()]
            for length in range(1, 9):
                found = list(necklaces(k, length))
                assert all(u < v for u, v in zip(found, found[1:]))
                assert all(
                    len(u) == length and set(u) <= set(range(1, k + 1))
                    and all(u <= u[i:] + u[:i] for i in range(length))
                    for u in found
                )
                # the count of necklaces, by Burnside's lemma over rotations
                count = sum(
                    sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1) * k ** (length // d)
                    for d in range(1, length + 1)
                    if length % d == 0
                ) // length
                assert len(found) == count, (k, length)
        assert sum(1 for length in range(11) for _ in necklaces(3, length)) == 9504

    def test_acceptance_corpus_memory(self):
        # the walk keeps the necklaces of one length, not every word
        tracemalloc.start()
        try:
            corpus(4, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_corpus_file_round_trip(self):
        lines = [
            "# a comment",
            "",
            "1 1 2   # trefoil-ish",
            "strands=4: 1 1",
            "1^3",
        ]
        words = read_corpus_lines(lines)
        assert words == [
            BraidWord(3, (1, 1, 2)),
            BraidWord(4, (1, 1)),
            BraidWord(2, (1, 1, 1)),
        ]


class TestVerify:
    def test_trefoil_report(self):
        r = verify(BraidWord(2, (1, 1, 1)))
        assert r.overall_pass
        assert r.second_coefficient == -1
        assert r.components == 1 and r.genus == 1

    def test_figure3_report(self):
        r = verify(BraidWord(3, (1, 1, 2, 2, 2, 1, 2, 2, 2, 2)))
        assert r.overall_pass
        assert r.kauffman_euler is not None
        assert r.genus == 4

    def test_split_word_report(self):
        r = verify(BraidWord(4, (1, 1, 3, 3)))
        assert r.overall_pass
        assert r.split_count == 2
        assert r.skein_euler is not None and not r.skein_euler
        assert "split_vanishing" in r.checks

    # (4, 5), (4, 6), (5, 4) have large move orbits; (2, 901), (3, 13) and
    # (4, 9) have 901, 271,441 and 632,025 Kauffman states
    @pytest.mark.parametrize("p, q", [(4, 5), (4, 6), (5, 4), (2, 901), (3, 13), (4, 9)])
    def test_torus_words_with_large_orbits_pass(self, p, q):
        r = verify(torus(p, q))
        assert r.overall_pass, [k for k, v in r.checks.items() if not v]
        assert r.prime_count == 1

    # verify failed these in the doubled-crossing search while it walked
    # word orbits; the exchange rewrite finds their squares without a walk
    @pytest.mark.parametrize("p, q", [(7, 3), (8, 2), (8, 3)])
    def test_torus_words_past_the_word_orbit_search_pass(self, p, q):
        r = verify(torus(p, q))
        assert r.overall_pass, [k for k, v in r.checks.items() if not v]

    def test_t78_passes_at_the_default_budget(self):
        r = verify(torus(7, 8))
        assert r.overall_pass, [k for k, v in r.checks.items() if not v]

    def test_t89_passes_at_the_default_budget(self):
        # the Kauffman sweep keeps 927 masks; the skein sweep 8! = 40,320 entries
        r = verify(torus(8, 9))
        assert r.overall_pass, [k for k, v in r.checks.items() if not v]

    def test_t910_fails_only_the_skein_sweep(self):
        # the skein sweep needs 9! = 362,880 entries; Kauffman needs 2,476 masks
        r = verify(torus(9, 10))
        assert [k for k, v in r.checks.items() if not v] == ["skein_equals_burau"]
        assert [n.split(":")[0] for n in r.notes] == ["skein engine"]
        assert r.kauffman_euler == r.burau_euler

    def test_a_wrong_component_count_fails_component_parity(self, monkeypatch):
        from braidhfk import harness

        real = harness.decompose

        def one_too_many(w):
            lc = real(w)
            return dataclasses.replace(lc, components=lc.components + 1)

        monkeypatch.setattr(harness, "decompose", one_too_many)
        r = verify(figure3())
        assert r.checks["component_parity"] is False
        assert not r.overall_pass
        assert r.notes == ("seifert: 2 components incompatible with chi=-7",)
        assert (r.chi, r.genus) == (-7, 4)

    def test_the_genus_reads_the_decompose_count_when_parity_holds(self, monkeypatch):
        # two extra components keep the parity; the genus is then
        # (components - chi) / 2 from decompose's count, not from the word
        from braidhfk import harness

        real = harness.decompose

        def two_too_many(w):
            lc = real(w)
            return dataclasses.replace(lc, components=lc.components + 2)

        monkeypatch.setattr(harness, "decompose", two_too_many)
        r = verify(figure3())
        assert r.checks["component_parity"] is True
        assert r.notes == ()
        assert (r.components, r.chi, r.genus) == (3, -7, 5)

    def test_a_report_does_not_depend_on_the_call_before(self):
        # T(5,6)'s skein sweep needs tables of 120 entries: at 119 it fails
        # after a failed call and after a passing one, and at 120 it passes.
        # The simple braid's next-to-top chain needs a walk of 3 conjugates:
        # at budget 1 it fails even after the default budget tabled its rank
        cases = [
            (torus(5, 6), (119, 119, 120, 120, 119), "skein_equals_burau"),
            (BraidWord(5, (1, 2, 3, 2, 4)), (1, DEFAULT_BUDGET, 1), "formula_matches_recursion"),
        ]
        for w, budgets, check in cases:
            reports = [verify(w, budget=b).to_json() for b in budgets]
            assert [reports[budgets.index(b)] for b in budgets] == reports
            assert [r["checks"][check] for r in reports] == [b == max(budgets) for b in budgets]

    def test_both_skein_routes_reach_t67(self):
        w = torus(6, 7)
        assert hfk_euler(w) == alexander_burau(w)
        lc = decompose(w)
        expected = predicted_next_to_top(
            lc.prime_count, lc.split_count, lc.components, closure_genus(w)
        )
        assert next_to_top_via_skein(w) == expected

    def test_kauffman_never_lists_states(self, monkeypatch):
        from braidhfk import harness, kauffman

        def listing(*args):
            raise AssertionError("verify listed Kauffman states")

        monkeypatch.setattr(kauffman, "enumerate_states", listing)
        monkeypatch.setattr(harness, "enumerate_states", listing)
        r = verify(figure3())
        assert r.overall_pass
        assert r.kauffman_euler == r.skein_euler

    def test_kauffman_budget_fails_its_checks_with_a_note(self):
        r = verify(torus(6, 7), budget=100)
        kauffman_checks = ("kauffman_matches", "kauffman_top_state_unique", "kauffman_maslov_band")
        assert [r.checks[name] for name in kauffman_checks] == [False, False, False]
        assert r.kauffman_euler is None
        assert any(note.startswith("kauffman engine: ") for note in r.notes)

    def test_column_order_keeps_the_kauffman_sweep_under_the_budget(self):
        # in word order the table of T(7,2) reached 301 masks; in column
        # order it peaks at 4
        r = verify(torus(7, 2), budget=100)
        assert all(r.checks[name] for name in KAUFFMAN_CHECKS)
        assert not any(note.startswith("kauffman engine: ") for note in r.notes)

    def test_second_coefficient_reads_burau_without_skein(self, monkeypatch):
        from braidhfk import harness
        from braidhfk.braidword import BudgetError

        def failing(*args):
            raise BudgetError("skein route unavailable")

        monkeypatch.setattr(harness, "hfk_euler", failing)
        r = verify(BraidWord(3, (1, 1, 2, 2, 2, 1, 2, 2, 2, 2)))
        assert r.skein_euler is None
        assert r.second_coefficient == r.expected_second == -1
        assert r.checks["second_coefficient"] is True

    # a knot, a torus knot, a composite word (factor_product runs) and a split word
    @pytest.mark.parametrize("w, compared", [
        (figure3(), {"skein_equals_burau"}),
        (torus(3, 4), {"skein_equals_burau"}),
        (connected_sum(torus(2, 3), torus(2, 3)), {"skein_equals_burau"}),
        (disjoint_union(torus(2, 3), torus(2, 2)), {"skein_equals_burau", "split_vanishing"}),
    ])
    def test_a_failing_skein_engine_fails_only_the_comparisons(self, w, compared, monkeypatch):
        from braidhfk import harness
        from braidhfk.braidword import BudgetError

        def failing(*args):
            raise BudgetError("skein route unavailable")

        monkeypatch.setattr(harness, "hfk_euler", failing)
        r = verify(w)
        assert {name for name, ok in r.checks.items() if not ok} == compared
        assert "euler_top_slice" in r.checks
        assert r.notes == ("skein engine: skein route unavailable",)

    def test_burau_failure_on_a_factor_is_a_note(self, monkeypatch):
        from braidhfk import alexander

        real = alexander._bareiss_det

        def wrong_on_1x1(a):
            return real(a) + (len(a) == 1)

        # the two trefoil factors have 1x1 matrices, the whole word a 2x2 one
        monkeypatch.setattr(alexander, "_bareiss_det", wrong_on_1x1)
        r = verify(parse_serialized("strands=3: 1 1 1 2 2 2"))
        assert r.checks["factor_product"] is False
        assert r.checks["skein_equals_burau"] is True
        assert [n for n in r.notes if n.startswith("burau engine: ")] == [
            "burau engine: nonzero remainder in strands=2: 1 1 1,"
            " a factor of strands=3: 1 1 1 2 2 2"
        ]

    def test_reports_deterministic(self):
        # the second pass runs on the tables the first filled: it finds
        # every factor, word and value there and adds no entry or miss
        from braidhfk import alexander, hfk

        cached = (
            alexander._substitute, alexander.alexander_burau, alexander._burau_tail,
            hfk.predicted_top, hfk.closed_form, hfk._skein_group,
        )
        words = corpus(3, 5)
        first = reports_to_json(verify_all(words))
        conway_table = dict(alexander._conway_cache)
        misses = [f.cache_info().misses for f in cached]
        assert conway_table and all(misses)
        second = reports_to_json(verify_all(words))
        assert alexander._conway_cache == conway_table
        assert [f.cache_info().misses for f in cached] == misses
        assert first == second

    def test_random_sums_and_unions(self):
        words = corpus(4, 10)
        rng = random.Random(42)
        for _ in range(200):
            w1, w2 = rng.choice(words), rng.choice(words)
            combo = connected_sum(w1, w2) if rng.random() < 0.5 else disjoint_union(w1, w2)
            r = verify(combo)
            assert r.overall_pass, (combo, [k for k, v in r.checks.items() if not v])

    def test_factor_reconstruction_preserves_conway(self):
        from functools import reduce

        from braidhfk.alexander import conway

        for letters in [(1, 1, 2, 3, 3), (1, 1, 1, 2, 2, 2), (1, 1, 2, 2, 3, 3)]:
            w = BraidWord(max(letters) + 1, letters)
            lc = decompose(w)
            assert lc.split_count == 1 and lc.prime_count >= 2
            rebuilt = reduce(connected_sum, lc.prime_words)
            assert conway(rebuilt) == conway(w)

    def test_report_json_shape(self):
        payload = verify(BraidWord(2, (1, 1))).to_json()
        assert payload["word"] == {"strands": 2, "letters": [1, 1]}
        assert payload["alexander"]["skein"] == [[2, 1], [0, -2], [-2, 1]]
        assert payload["hfk"]["predicted_next_to_top"] == [[-1, 0, 2]]
        assert payload["pass"] is True
        assert "elapsed" not in payload
        assert "elapsed" in verify(BraidWord(2, (1, 1))).to_json(include_timing=True)


class TestEulerTopSlice:
    # euler_top_slice compares two coefficients that hfk tables beside the
    # next-to-top group: patching the group the formula builds must move them
    KNOTS = [w for w in corpus(4, 8) if closure_components(w) == 1 and closure_genus(w) >= 1]

    @staticmethod
    def add_to_the_formula(monkeypatch, maslov_gradings):
        from braidhfk import hfk

        formula = hfk._next_to_top_formula

        def patched(p, s, components, g):
            extra = BigradedRank({(m, g - 1): 1 for m in maslov_gradings})
            return formula(p, s, components, g) + extra

        monkeypatch.setattr(hfk, "_next_to_top_formula", patched)

    def test_a_rank_at_maslov_minus_1_fails_it_on_every_knot(self, monkeypatch):
        self.add_to_the_formula(monkeypatch, (-1,))
        assert len(self.KNOTS) == 51
        for w in self.KNOTS:
            checks = verify(w).checks
            assert not checks["euler_top_slice"], w
            assert not checks["formula_matches_recursion"], w

    def test_equal_ranks_at_maslov_0_and_minus_1_keep_it(self, monkeypatch):
        # the blind spot a Floer-complex check of the slice would close
        self.add_to_the_formula(monkeypatch, (0, -1))
        for w in self.KNOTS:
            checks = verify(w).checks
            assert checks["euler_top_slice"], w
            assert not checks["formula_matches_recursion"], w


KAUFFMAN_CHECKS = ("kauffman_matches", "kauffman_top_state_unique", "kauffman_maslov_band")
CEILING_WALL_S = 5


def random_knot(rng, strands, length):
    """Every generator once and the rest uniform, shuffled: the first draw
    whose closure is a knot."""
    while True:
        letters = list(range(1, strands)) + [rng.randint(1, strands - 1) for _ in range(length - strands + 1)]
        rng.shuffle(letters)
        w = BraidWord(strands, tuple(letters))
        if closure_components(w) == 1:
            return w


class TestKauffmanCeiling:
    """Words whose Kauffman sweep passed its budget in word order, where
    every column's wrapping gap stays live from the first letter to the
    last; in column order they pass in milliseconds."""

    def timed_verify(self, w):
        start = time.perf_counter()
        r = verify(w)
        assert time.perf_counter() - start < CEILING_WALL_S
        return r

    def test_t31_2_passes_every_check(self):
        r = self.timed_verify(torus(31, 2))
        assert r.overall_pass, r.render_text()
        assert r.notes == ()

    def test_random_twenty_strand_knot_passes_the_kauffman_checks(self):
        # in word order the sweep reached 239,563 masks at crossing 13 of 61
        w = random_knot(random.Random(11), 20, 61)
        assert len(w) == 61 and w.is_connected
        r = self.timed_verify(w)
        assert all(r.checks[name] for name in KAUFFMAN_CHECKS)
        assert r.kauffman_euler == r.burau_euler
        # the chain's square search still runs out on this word: raising
        # that ceiling is ROADMAP item 5
        assert not r.checks["formula_matches_recursion"]
        assert r.notes[0].startswith("skein recursion: no doubled crossing found within budget")


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module, loaded without writing bytecode
    beside it.  ``worker`` imports only the standard library at module
    level; ``run`` imports ``oracle`` and ``worker`` by their bare names."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


class TestTracedBenchmark:
    def test_worker_layers_resolve_on_harness(self):
        # perfbench/worker.py --trace wraps these names on harness with a
        # bare getattr
        from braidhfk import harness

        worker = load_perfbench("worker")
        names = [name for layer in worker.LAYERS.values() for name in layer]
        assert names
        for name in names:
            assert callable(getattr(harness, name, None)), name

    def test_worker_memos_count_the_route_tables(self):
        # the traced counters read each table with getattr and a default,
        # so a table that is gone reads 0 rather than fail; the skein
        # factor table and the next-to-top memo are the route tables
        from braidhfk import alexander, hfk

        memos = load_perfbench("worker").MEMOS
        mod, attr = memos["hfk.profile_memo"]
        assert mod == "hfk" and isinstance(getattr(hfk, attr, None), dict)
        mod, attr = memos["alexander.conway_memo"]
        assert mod == "alexander" and getattr(alexander, attr, None) is alexander._conway_cache


# sha256 of reports_to_json(verify_all(..)) on each benchmark workload at
# seed 7: refactors must leave the canonical reports byte-identical
REPORT_DIGESTS = {
    "corpus": "15c368fb8a178970101705179ef55be4117b00b41402ff23720aefff2ec679a0",
    "ladder": "4bba93f30163cb729be89b90add898f500d5607891b989752954bbcaf680fab4",
    "states": "04cb924bf7ac4069417c413b6df588640a661f6ac2355025a6510a7f695ca490",
}


class TestWorkPerWord:
    # components, split pieces and prime factors are computed once per word
    # object: the decomposition and every engine read the ones kept on it
    @pytest.mark.parametrize(
        "make",
        [lambda: connected_sum(torus(2, 3), torus(3, 4)), lambda: disjoint_union(torus(2, 3), figure3())],
        ids=["T(2,3)#T(3,4)", "T(2,3)+10_139"],
    )
    def test_verify_computes_each_fact_once(self, make, monkeypatch):
        from braidhfk import braidword, hfk

        permuted, reduced = [], []
        permutation_of, immediate_reduction = braidword.permutation_of, braidword.immediate_reduction

        def counted_permutation(strands, letters):
            permuted.append((strands, letters))
            return permutation_of(strands, letters)

        def counted_reduction(strands, letters):
            reduced.append((strands, letters))
            return immediate_reduction(strands, letters)

        monkeypatch.setattr(braidword, "permutation_of", counted_permutation)
        monkeypatch.setattr(braidword, "immediate_reduction", counted_reduction)
        lc = decompose(make())
        alone = len(reduced)
        permuted.clear()
        reduced.clear()
        hfk.clear_caches()
        w = make()
        r = verify(w)
        assert r.overall_pass
        assert len(reduced) == alone
        # Burau evaluates the factors of a composite knot for factor_product
        factors = list(lc.prime_words) if r.split_count == 1 and r.prime_count >= 2 else []
        assert len(factors) == (2 if w.is_connected else 0)
        assert sorted(permuted) == sorted([(w.strands, w.letters)] + [(f.strands, f.letters) for f in factors])


class TestReportDigests:
    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_seed_7_reports_are_unchanged(self, name, monkeypatch):
        # the words are built as the benchmark builds them: run.workload
        # lists the ladder and states words, and the worker turns them (or
        # the acceptance corpus, shuffled by the seed) into BraidWords
        from braidhfk import harness

        before = sorted(PERFBENCH.rglob("*"))
        worker = load_perfbench("worker")
        monkeypatch.setitem(sys.modules, "worker", worker)
        monkeypatch.setitem(sys.modules, "oracle", load_perfbench("oracle"))
        keys, _ = load_perfbench("run").workload(name, 7)
        words = worker._build_words(harness, {"workload": name, "seed": 7, "words": keys})
        digest = hashlib.sha256(reports_to_json(verify_all(words)).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[name]
        assert sorted(PERFBENCH.rglob("*")) == before


def test_exports_are_exactly_the_package_imports():
    # __all__ is kept by hand: a name dropped from the imports but left in
    # the list (or the reverse) is caught here
    import braidhfk

    tree = ast.parse(pathlib.Path(braidhfk.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(braidhfk.__all__) == len(set(braidhfk.__all__))
    for name in braidhfk.__all__:
        getattr(braidhfk, name)
    assert set(braidhfk.__all__) == imported
