import ast
import dataclasses
import importlib.util
import pathlib
import random
import sys
import time
from collections import Counter
from functools import reduce
from itertools import permutations
from math import prod

import pytest

from braidhfk.alexander import hfk_euler
from braidhfk.braidword import BraidWord, BudgetError, closure_components, closure_genus, parse_serialized
from braidhfk.harness import connected_sum, corpus, figure3, t2, torus
from braidhfk.hfk import BigradedRank
from braidhfk.kauffman import (
    A_WEIGHTS_DOUBLED,
    M_WEIGHTS,
    MultiComponentError,
    SplitDiagramError,
    bigraded_counts,
    build_diagram,
    counts_to_json,
    enumerate_states,
    _sweep_plan,
    euler_and_top_slice,
    state_line,
)
from braidhfk.polynomials import HalfLaurent
from diagram_oracle import reference_diagram
from histogram_oracle import sweep_histogram
from test_harness import CEILING_WALL_S, load_perfbench


def brute_force_states(d):
    """Oracle: try every assignment of regions to crossings directly."""
    c = d.crossing_count
    usable = [r for r in range(d.region_count) if r not in d.forbidden]
    slot_lookup = []
    for k in range(c):
        by_region = {}
        for q, r in d.slots[k]:
            by_region.setdefault(r, []).append(q)
        slot_lookup.append(by_region)
    found = []
    for perm in permutations(usable, c):
        choices = [[]]
        for k, r in enumerate(perm):
            if r not in slot_lookup[k]:
                choices = []
                break
            choices = [prev + [(r, q)] for prev in choices for q in slot_lookup[k][r]]
        for assignment in choices:
            m = sum(M_WEIGHTS[q] for _, q in assignment)
            a2 = sum(A_WEIGHTS_DOUBLED[q] for _, q in assignment)
            found.append((tuple(assignment), m, a2 // 2))
    return sorted(found)


def signed_sum(states):
    return HalfLaurent.from_pairs(
        (2 * s.alexander, 1 if s.maslov % 2 == 0 else -1) for s in states
    )


class TestBuildDiagram:
    def test_trefoil_region_counts(self):
        d = build_diagram(BraidWord(2, (1, 1, 1)))
        assert d.region_count == 5
        assert len(d.forbidden) == 2
        assert d.crossing_count == 3

    def test_one_crossing_unknot(self):
        d = build_diagram(BraidWord(2, (1,)))
        assert d.region_count == 3
        assert len(d.forbidden) == 2

    def test_figure3(self):
        d = build_diagram(figure3())
        assert d.region_count == 12
        assert len(d.forbidden) == 2

    def test_rejects_links(self):
        with pytest.raises(MultiComponentError):
            build_diagram(BraidWord(2, (1, 1)))

    def test_rejects_split_diagrams(self):
        with pytest.raises(SplitDiagramError):
            build_diagram(BraidWord(3, (1, 1)))

    def test_same_diagram_as_the_reference_builder(self):
        knots = [
            w for w in corpus(4, 8) + corpus(5, 6)
            if w.is_connected and closure_components(w) == 1
        ]
        knots += [t2(n) for n in range(1, 902, 100)]
        knots += [figure3(), torus(3, 4), torus(4, 9), torus(7, 8)]
        for w in knots:
            d, ref = build_diagram(w), reference_diagram(w)
            assert (d.region_names, d.forbidden, d.slots) == (
                ref.region_names, ref.forbidden, ref.slots), w


class TestEnumerateStates:
    def test_trefoil_bigradings(self):
        states = enumerate_states(build_diagram(BraidWord(2, (1, 1, 1))))
        assert sorted((s.maslov, s.alexander) for s in states) == [
            (-2, -1),
            (-1, 0),
            (0, 1),
        ]

    def test_one_crossing_unknot(self):
        states = enumerate_states(build_diagram(BraidWord(2, (1,))))
        assert [(s.maslov, s.alexander) for s in states] == [(0, 0)]

    def test_crossingless_unknot(self):
        # built by the general path: both regions touch the marked point
        d = build_diagram(BraidWord(1, ()))
        assert (d.region_names, d.forbidden, d.slots) == (("inner", "outer"), {0, 1}, ())
        states = enumerate_states(d)
        assert [(s.maslov, s.alexander) for s in states] == [(0, 0)]
        assert euler_and_top_slice(d) == (HalfLaurent.one(), {(0, 0): 1})

    def test_budget_counts_backtracking_nodes(self):
        # the trefoil's listing enters 9 nodes: 9 finishes and 8 does not
        d = build_diagram(BraidWord(2, (1, 1, 1)))
        assert len(enumerate_states(d, budget=9)) == 3
        with pytest.raises(BudgetError, match="budget 8"):
            enumerate_states(d, budget=8)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_non_positive_budget_rejected(self, budget):
        d = build_diagram(BraidWord(2, (1, 1, 1)))
        for engine in (enumerate_states, bigraded_counts, euler_and_top_slice):
            with pytest.raises(ValueError, match="budget must be positive"):
                engine(d, budget)

    def test_figure3_cited_states(self):
        counts = bigraded_counts(build_diagram(figure3()))
        assert counts[(0, 4)] == 1
        assert counts[(-1, 3)] >= 2
        assert counts[(0, 3)] >= 1

    def test_matches_brute_force(self):
        words = [
            BraidWord(2, (1, 1, 1)),
            BraidWord(2, (1, 1, 1, 1, 1)),
            BraidWord(3, (1, 2, 1, 2)),
            BraidWord(3, (1, 1, 2, 1, 1, 2)),
            BraidWord(3, (1, 1, 1, 2, 2, 2)),
        ]
        for w in words:
            if closure_components(w) != 1:
                continue
            d = build_diagram(w)
            fast = sorted(
                (s.assignment, s.maslov, s.alexander) for s in enumerate_states(d)
            )
            assert fast == brute_force_states(d)


def listed_counts(d):
    """Oracle: the histogram of the enumerated states."""
    return dict(Counter((s.maslov, s.alexander) for s in enumerate_states(d)))


class TestSweep:
    def test_matches_enumeration_on_corpus(self):
        knots = [
            w for w in corpus(4, 8)
            if w.is_connected and closure_components(w) == 1
        ]
        assert len(knots) > 50
        for w in knots:
            d = build_diagram(w)
            assert bigraded_counts(d) == listed_counts(d), w

    @pytest.mark.parametrize("n", [1, 3, 5, 11, 101, 901])
    def test_two_strand_totals(self, n):
        assert sum(bigraded_counts(build_diagram(t2(n))).values()) == n

    @pytest.mark.parametrize("exps", [(3, 3), (3, 5, 7), (7, 3, 5, 3, 5), (11, 9, 7, 5, 3)])
    def test_connected_sum_totals(self, exps):
        w = reduce(connected_sum, [t2(e) for e in exps])
        assert sum(bigraded_counts(build_diagram(w)).values()) == prod(exps)

    def test_unreachable_region_means_no_states(self):
        d = build_diagram(BraidWord(2, (1, 1, 1)))
        gap = d.slots[0][0][1]
        cut = tuple(tuple((q, r) for q, r in s if r != gap) for s in d.slots)
        d = dataclasses.replace(d, slots=cut)
        assert listed_counts(d) == {}
        assert bigraded_counts(d) == {}
        assert euler_and_top_slice(d) == (HalfLaurent.zero(), {})

    def test_allowed_slots_reach_every_region_off_the_forbidden_two(self):
        # why the sweep plan retires every usable region's bit
        knots = [w for w in corpus(4, 10) if closure_components(w) == 1]
        assert len(knots) == 319
        for w in knots + [torus(p, p + 1) for p in range(1, 9)]:
            d = build_diagram(w)
            reached = {r for slots in d.slots for _, r in slots} - d.forbidden
            assert reached == set(range(d.region_count)) - d.forbidden, w

    def test_budget_caps_the_live_table(self):
        d = build_diagram(torus(4, 9))
        assert sum(bigraded_counts(d, budget=20).values()) == 632025
        with pytest.raises(BudgetError, match=r"^state table reached 20 masks at crossing 7 of 27 \(budget 19\)$"):
            bigraded_counts(d, budget=19)

    @staticmethod
    def states_workload_knots(monkeypatch):
        # the knots of perfbench's states workload, listed as its run builds them
        monkeypatch.setitem(sys.modules, "worker", load_perfbench("worker"))
        monkeypatch.setitem(sys.modules, "oracle", load_perfbench("oracle"))
        keys, _ = load_perfbench("run").workload("states", 7)
        return [parse_serialized(key) for key in keys]

    def test_matches_the_histogram_oracle(self, monkeypatch):
        past = [torus(5, 6), torus(6, 7), torus(3, 52), torus(4, 41), t2(901)]
        for w in past:
            with pytest.raises(BudgetError):
                enumerate_states(build_diagram(w))
        knots = past + self.states_workload_knots(monkeypatch)
        assert len(knots) == 17
        for w in knots:
            d = build_diagram(w)
            assert bigraded_counts(d) == sweep_histogram(d), w

    def test_t8_9_passes_the_default_budget(self):
        # a table of one histogram per mask holds 214,157 (mask, bigrading)
        # entries by crossing 50 of 63, past the default budget in that unit
        start = time.perf_counter()
        counts = bigraded_counts(build_diagram(torus(8, 9)))
        assert time.perf_counter() - start < CEILING_WALL_S
        assert sum(counts.values()) == 763_341_471_963_225
        assert BigradedRank(counts).signed_euler() == torus_alexander(8, 9)
        assert {(m, a): k for (m, a), k in counts.items() if a == 28} == {(0, 28): 1}
        # c_(-1) = p - 1 and c_0 = p - 2 at A = g - 1
        assert {(m, a): k for (m, a), k in counts.items() if a == 27} == {(0, 27): 6, (-1, 27): 7}


def fold_and_top_slice(d):
    """Oracle: the signed fold of the histogram and its slice at A = g."""
    counts = sweep_histogram(d)
    g = closure_genus(d.word)
    top = {(m, a): k for (m, a), k in counts.items() if a == g}
    return BigradedRank(counts).signed_euler(), top


def torus_alexander(p, q):
    """Closed form: (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), centred."""
    num = [0] * (p * q + 2)  # (t^pq - 1)(t - 1), lowest degree first
    num[0], num[1], num[p * q], num[p * q + 1] = 1, -1, -1, 1
    for d in (p, q):  # exact division by t^d - 1, from the top down
        quot = [0] * (len(num) - d)
        for k in range(len(quot) - 1, -1, -1):
            quot[k] = num[k + d]
            num[k] += quot[k]
        assert not any(num[:d])
        num = quot
    g = (p - 1) * (q - 1) // 2
    return HalfLaurent({2 * (k - g): v for k, v in enumerate(num) if v})


class TestTopSliceSweep:
    def test_matches_the_histogram_on_corpus(self):
        knots = [
            w for w in corpus(4, 9)
            if w.is_connected and closure_components(w) == 1
        ]
        assert len(knots) == 319
        for w in knots:
            d = build_diagram(w)
            assert euler_and_top_slice(d) == fold_and_top_slice(d), w

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 4), (2, 2101), (3, 301)])
    def test_torus_knots_match_the_closed_form(self, p, q):
        # the partial state counts of T(3,301) outgrow five digit widths
        euler, top = euler_and_top_slice(build_diagram(torus(p, q)))
        g = (p - 1) * (q - 1) // 2
        assert euler == torus_alexander(p, q)
        assert top == {(0, g): 1}

    def test_the_digit_width_repacks_only_past_the_corpus(self, monkeypatch):
        # each decode of a signed or sliced value unpacks it once: a sweep
        # that never repacks unpacks twice, at its final width
        from braidhfk import kauffman

        unpack, widths = kauffman._unpack, []

        def counted(value, bits):
            widths.append(bits)
            return unpack(value, bits)

        monkeypatch.setattr(kauffman, "_unpack", counted)
        for w in CORPUS_KNOTS:
            euler_and_top_slice(build_diagram(w))
        assert widths == [16] * (2 * len(CORPUS_KNOTS))
        widths.clear()
        euler_and_top_slice(build_diagram(torus(3, 301)))
        assert sorted(set(widths)) == [16, 32, 64, 128, 256, 512]

    def test_budget_counts_live_masks(self):
        d = build_diagram(torus(4, 9))
        assert euler_and_top_slice(d, budget=16) == fold_and_top_slice(d)
        with pytest.raises(BudgetError, match=r"reached 16 masks at crossing 15 of 27 \(budget 15\)"):
            euler_and_top_slice(d, budget=15)


def word_order(d):
    return list(range(d.crossing_count))


def column_order(d):
    """Every s_1 in word order, then every s_2, and so on."""
    letters = d.word.letters
    return sorted(range(d.crossing_count), key=lambda k: (letters[k], k))


def frontier_by_steps(d, order):
    """Oracle: the most regions off the forbidden two touched both at or
    before one step of ``order`` and at or after it, counted step by step."""
    touched = [{r for _, r in d.slots[k]} - d.forbidden for k in order]
    return max(
        (len(set().union(*touched[:s + 1]) & set().union(*touched[s:])) for s in range(len(order))),
        default=0,
    )


def planned_order(d):
    """The order ``_sweep_plan`` visits the crossings in, read off its slots."""
    allowed, _ = _sweep_plan(d)
    for order in (word_order(d), column_order(d)):
        if allowed == [[(r, q) for q, r in d.slots[k] if r not in d.forbidden] for k in order]:
            return order
    raise AssertionError(f"{d.word} is swept in neither order")


CORPUS_KNOTS = [w for w in corpus(4, 10) if closure_components(w) == 1]
ORDER_WORDS = (
    CORPUS_KNOTS
    + [torus(p, 2) for p in range(3, 16, 2)]
    + [torus(3, 4), torus(4, 5), torus(5, 6), torus(5, 3)]
)


class TestSweepOrder:
    def test_the_plan_takes_the_strictly_narrower_order(self):
        for w in ORDER_WORDS:
            d = build_diagram(w)
            narrower = frontier_by_steps(d, column_order(d)) < frontier_by_steps(d, word_order(d))
            assert planned_order(d) == (column_order(d) if narrower else word_order(d)), w
        switched = sum(planned_order(d) != word_order(d) for d in map(build_diagram, CORPUS_KNOTS))
        assert len(CORPUS_KNOTS) == 319 and switched == 39

    def test_every_usable_region_retires_once_at_its_last_step(self):
        for w in ORDER_WORDS:
            d = build_diagram(w)
            order = planned_order(d)
            _, retiring = _sweep_plan(d)
            last = {r: step for step, k in enumerate(order) for _, r in d.slots[k]}
            expected = [0] * len(order)
            for r in set(range(d.region_count)) - d.forbidden:
                expected[last[r]] |= 1 << r
            assert retiring == expected, w

    @pytest.mark.parametrize("w, word_frontier, column_frontier", [
        (torus(4, 3), 7, 7),  # a tie keeps word order
        (torus(4, 5), 7, 11),
        (torus(4, 9), 7, 19),
        (torus(7, 2), 12, 5),
        (torus(5, 3), 9, 7),
    ])
    def test_frontiers_of_the_pinned_words(self, w, word_frontier, column_frontier):
        # the budget messages of T(4,3), T(4,5) and T(4,9) pinned in
        # test_budget.py and test_cli.py count crossings in word order
        d = build_diagram(w)
        assert frontier_by_steps(d, word_order(d)) == word_frontier
        assert frontier_by_steps(d, column_order(d)) == column_frontier
        narrower = column_frontier < word_frontier
        assert planned_order(d) == (column_order(d) if narrower else word_order(d))

    def test_the_top_slice_sweep_reads_the_histogram_in_either_order(self):
        for w in ORDER_WORDS:
            d = build_diagram(w)
            assert euler_and_top_slice(d) == fold_and_top_slice(d), w

    def test_the_histogram_counts_the_listed_states_in_either_order(self):
        listed = 0
        for w in ORDER_WORDS:
            d = build_diagram(w)
            try:
                states = listed_counts(d)
            except BudgetError:
                continue
            assert bigraded_counts(d) == states, w
            listed += 1
        assert listed == len(ORDER_WORDS) - 4  # T(11,2), T(13,2), T(15,2), T(5,6)

    # T(p,p+1) keeps word order and its peak live masks with it; T(7,2)
    # and T(5,3) peaked at 301 and 44 masks in word order
    @pytest.mark.parametrize("p, q, peak", [(7, 8, 353), (8, 9, 927), (9, 10, 2476), (7, 2, 4), (5, 3, 15)])
    def test_peak_live_masks(self, p, q, peak):
        d = build_diagram(torus(p, q))
        start = time.perf_counter()
        euler, top = euler_and_top_slice(d, budget=peak)
        with pytest.raises(BudgetError, match=rf"reached {peak} masks at crossing"):
            euler_and_top_slice(d, budget=peak - 1)
        assert time.perf_counter() - start < 5
        assert euler == torus_alexander(p, q) and top == {(0, (p - 1) * (q - 1) // 2): 1}


class TestEngineIndependence:
    @staticmethod
    def imported_modules(name):
        """Last dotted part of every name an import statement of the module reads."""
        tree = ast.parse(pathlib.Path(importlib.util.find_spec(f"braidhfk.{name}").origin).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        return {n.rpartition(".")[2] for n in names}

    def test_kauffman_imports_no_other_engine(self):
        assert not self.imported_modules("kauffman") & {"alexander", "hfk"}

    def test_alexander_imports_no_kauffman(self):
        assert "kauffman" not in self.imported_modules("alexander")


class TestWeightCalibration:
    def test_euler_identity_on_random_knots(self):
        rng = random.Random(13)
        tried = 0
        while tried < 40:
            n = rng.randint(2, 4)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 9)))
            w = BraidWord(n, letters)
            if not w.is_connected or closure_components(w) != 1:
                continue
            tried += 1
            states = enumerate_states(build_diagram(w))
            assert signed_sum(states) == hfk_euler(w)

    def test_unique_top_state_at_maslov_zero(self):
        for w in [torus(2, 3), torus(2, 7), torus(3, 4), figure3()]:
            g = closure_genus(w)
            counts = bigraded_counts(build_diagram(w))
            top = {(m, a): c for (m, a), c in counts.items() if a == g}
            assert top == {(0, g): 1}

    def test_next_to_top_band(self):
        for w in [torus(2, 5), torus(3, 4), torus(3, 5), figure3()]:
            g = closure_genus(w)
            counts = bigraded_counts(build_diagram(w))
            assert all(
                m in (0, -1) for (m, a) in counts if a == g - 1
            )

    def test_no_positive_maslov(self):
        for w in [torus(2, 9), torus(3, 4), figure3()]:
            states = enumerate_states(build_diagram(w))
            assert all(s.maslov <= 0 for s in states)

    def test_signed_counts_symmetric(self):
        for w in [torus(2, 7), torus(3, 5), figure3()]:
            states = enumerate_states(build_diagram(w))
            assert signed_sum(states).is_symmetric()


class TestOutput:
    def test_state_line_format(self):
        d = build_diagram(BraidWord(2, (1,)))
        (state,) = enumerate_states(d)
        assert state_line(d, state) == "c1:(inner,LEFT) | M=0, A=0"

    def test_histogram_json(self):
        counts = bigraded_counts(build_diagram(BraidWord(2, (1, 1, 1))))
        assert counts_to_json(counts) == {"-2,-1": 1, "-1,0": 1, "0,1": 1}

    def test_deterministic_order(self):
        d = build_diagram(figure3())
        a = [state_line(d, s) for s in enumerate_states(d)]
        b = [state_line(d, s) for s in enumerate_states(d)]
        assert a == b
