"""Acceptance suite: each test prints one pass/fail line (run with -s).

The working corpus is every rotation/commutation class on 4 strands up
to 10 crossings, the (2,k) torus words for k <= 12, the (3,k) torus
words for k <= 8, and the 10-crossing example knot.  All comparisons
are exact integer/map equality.
"""

import time

import pytest

from braidhfk.braidword import (
    BraidWord,
    closure_components,
    closure_genus,
    find_adjacent_square,
)
from braidhfk.harness import corpus, figure3, reports_to_json, torus, verify_all
from braidhfk.hfk import BigradedRank, J, rn_next_to_top
from braidhfk.kauffman import bigraded_counts, build_diagram


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def words():
    out = corpus(4, 10)
    out += [torus(2, k) for k in range(1, 13)]
    out += [torus(3, k) for k in range(1, 9)]
    out.append(figure3())
    return out


@pytest.fixture(scope="module")
def timed_reports(words):
    start = time.perf_counter()
    reports = verify_all(words)
    return reports, time.perf_counter() - start


def test_criterion_1_oracle_agreement(timed_reports):
    reports, elapsed = timed_reports
    mismatched = [r for r in reports if not r.checks["skein_equals_burau"]]
    knot_mismatched = [
        r for r in reports if not r.checks.get("kauffman_matches", True)
    ]
    knots = sum(1 for r in reports if r.components == 1)
    ok = not mismatched and not knot_mismatched and elapsed < 300.0
    _announce(
        1,
        ok,
        f"skein/burau agree on {len(reports)} words, kauffman on {knots} knots,"
        f" {elapsed:.1f}s",
    )


def test_criterion_2_next_to_top_formula(timed_reports):
    reports, _ = timed_reports
    bad = [r for r in reports if not r.checks["formula_matches_recursion"]]
    _announce(
        2,
        not bad,
        f"closed formula equals triangle recursion on {len(reports)} words",
    )


def test_criterion_3_second_coefficient(timed_reports):
    reports, _ = timed_reports
    non_split = [r for r in reports if r.split_count == 1]
    bad = [r for r in non_split if not r.checks.get("second_coefficient", False)]
    prime_knots = [
        r for r in non_split if r.components == 1 and r.prime_count == 1
    ]
    bad_knots = [
        r
        for r in prime_knots
        if r.second_coefficient != -1
        or r.predicted_next_to_top != BigradedRank({(-1, r.genus - 1): 1})
    ]
    _announce(
        3,
        not bad and not bad_knots,
        f"second coefficient -(p+|L|-s) on {len(non_split)} non-split words,"
        f" -1 with rank-one group on {len(prime_knots)} prime knots",
    )


def test_criterion_4_state_histogram():
    counts = bigraded_counts(build_diagram(figure3()))
    next_band = {(m, a): c for (m, a), c in counts.items() if a == 3}
    ok = (
        counts.get((0, 4)) == 1
        and all(m in (0, -1) for (m, _) in next_band)
        and counts.get((-1, 3), 0) >= 2
        and counts.get((0, 3), 0) >= 1
    )
    _announce(
        4,
        ok,
        f"unique top state (0,4); gradings at A=3: {sorted(next_band.items())}",
    )


def test_criterion_5_base_values():
    from braidhfk.braidword import BraidWord
    from braidhfk.hfk import next_to_top_via_skein, predicted_top

    hopf = BraidWord(2, (1, 1))
    trefoil = BraidWord(2, (1, 1, 1))
    unknot = BraidWord(2, (1,))
    # the Hopf link's top two slices assembled from top group and recursion
    # must agree with J at A = 1 and A = 0 (J also holds F[-2,-1] below them)
    hopf_groups = predicted_top(1, 1) + next_to_top_via_skein(hopf)
    ok = (
        hopf_groups == BigradedRank({(0, 1): 1, (-1, 0): 2})
        and hopf_groups.rank_at(0, 1) == J.rank_at(0, 1)
        and hopf_groups.rank_at(-1, 0) == J.rank_at(-1, 0)
        and J == BigradedRank({(0, 1): 1, (-1, 0): 2, (-2, -1): 1})
        and next_to_top_via_skein(trefoil) == BigradedRank({(-1, 0): 1})
        and next_to_top_via_skein(unknot) == BigradedRank.zero()
    )
    _announce(5, ok, "Hopf top two slices match J; trefoil F[-1]; unknot empty")


def test_criterion_6_rings():
    ok = all(
        rn_next_to_top(n) == BigradedRank({(-1, n - 1): n}) for n in range(3, 11)
    )
    _announce(6, ok, "ring of n unknots has rank n at Maslov -1 for 3 <= n <= 10")


def test_criterion_7_structural_invariants(timed_reports, words):
    reports, _ = timed_reports
    bad_poly = [
        r
        for r in reports
        if not (r.checks["palindromic"] and r.checks["top_coefficient"])
    ]
    bad_bound = [
        r for r in reports if not r.checks.get("next_to_top_nonzero", True)
    ]
    genus_violations = 0
    squares = 0
    for w in words:
        if not w.is_connected or closure_genus(w) == 0:
            continue
        sq = find_adjacent_square(w)
        l_minus = BraidWord(sq.strands, sq.letters[2:])
        l_zero = BraidWord(sq.strands, sq.letters[1:])
        delta = int(closure_components(l_zero) <= closure_components(sq))
        squares += 1
        g = closure_genus(sq)
        if not (
            g == closure_genus(l_minus) + 1
            and g == closure_genus(l_zero) + delta
        ):
            genus_violations += 1
    ok = not bad_poly and not bad_bound and genus_violations == 0
    _announce(
        7,
        ok,
        f"palindromic with top +1, rank bound holds, {squares} resolutions"
        f" with {genus_violations} genus violations",
    )


def test_criterion_8_determinism(timed_reports, words):
    reports, _ = timed_reports
    first = reports_to_json(reports)
    second = reports_to_json(verify_all(words))
    _announce(8, first == second, f"two corpus runs byte-identical ({len(first)} bytes)")
