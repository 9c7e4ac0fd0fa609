import random

import pytest
import sympy

from braidhfk.alexander import (
    EngineFailure,
    _bareiss_det,
    _exact_div,
    _pack,
    _unpack,
    alexander_burau,
    conway,
    hfk_euler,
)
from braidhfk.braidword import BraidWord, closure_components, closure_genus
from braidhfk.harness import connected_sum, disjoint_union, figure3, torus
from braidhfk.polynomials import ConwayPoly, HalfLaurent, InexactDivisionError
from burau_oracle import burau_by_lists, euler_bridge, normalize_symmetric


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

    def test_exact_division_rejects_a_remainder(self):
        assert _exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
        for num, den in [([1, 0, 1], [1, 1]), ([1], [0, 1]), ([1, 1], [0, 2])]:
            with pytest.raises(InexactDivisionError):
                _exact_div(num, den)

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

    def test_split_inputs_vanish(self):
        assert alexander_burau(BraidWord(4, (1, 1, 3, 3))) == HalfLaurent.zero()
        assert alexander_burau(BraidWord(3, (1, 1))) == HalfLaurent.zero()
        assert alexander_burau(BraidWord(2, ())) == HalfLaurent.zero()

    def test_unknot_cases(self):
        assert alexander_burau(BraidWord(1, ())) == HalfLaurent.one()
        assert alexander_burau(BraidWord(2, (1,))) == HalfLaurent.one()


class TestOracleAgreement:
    def test_random_words(self):
        rng = random.Random(6)
        for _ in range(150):
            n = rng.randint(2, 4)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
            w = BraidWord(n, letters)
            assert hfk_euler(w) == alexander_burau(w)

    def test_palindromic_and_top_one(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(2, 4)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
            w = BraidWord(n, letters)
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

        rng = random.Random(10)
        for _ in range(80):
            n = rng.randint(2, 4)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8)))
            w = BraidWord(n, letters)
            lc = decompose(w)
            if lc.split_count > 1:
                # the Euler characteristic of a split closure vanishes
                assert second_coefficient(w) == 0
                continue
            expected = -(lc.prime_count + closure_components(w) - 1)
            assert second_coefficient(w) == expected

    def test_engine_failure_surfaces(self):
        from braidhfk import alexander

        alexander.clear_caches()
        # a prime simple braid, on which no reduction fires: its walk over
        # simple conjugates needs a second node, past a budget of 1
        with pytest.raises(EngineFailure):
            conway(BraidWord(5, (4, 2, 3, 4, 1, 2, 3, 1)), budget=1)
        alexander.clear_caches()


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
        # the skein route may take immediate_reduction's cuts, which Burau
        # checks through the product, but it must not call decompose
        from braidhfk import alexander, braidword

        def forbidden(*args):
            raise AssertionError("skein engine called decompose")

        alexander.clear_caches()
        monkeypatch.setattr(braidword, "decompose", forbidden)
        monkeypatch.setattr(alexander, "decompose", forbidden, raising=False)
        assert hfk_euler(w) == alexander_burau(w)
