import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhfk.alexander import conway
from braidhfk.harness import t2
from braidhfk.polynomials import ConwayPoly, HalfLaurent


def to_sympy(p: HalfLaurent):
    t = sympy.symbols("t", positive=True)
    return sum(c * t ** sympy.Rational(k, 2) for k, c in p.to_pairs()), t


def substitution_by_powers(c: ConwayPoly) -> HalfLaurent:
    """``z -> t^(1/2) - t^(-1/2)`` as the sum of each coefficient times its
    power of ``t^(1/2) - t^(-1/2)``."""
    out = HalfLaurent.zero()
    power = HalfLaurent.one()
    for coeff in c.coefficients:
        out = out + power * HalfLaurent({0: coeff})
        power = power * HalfLaurent.half_difference()
    return out


class TestHalfLaurent:
    def test_substitution_z2_plus_1(self):
        # (t^(1/2) - t^(-1/2))^2 + 1 expands to t - 1 + 1/t
        p = ConwayPoly((1, 0, 1)).to_half_laurent()
        assert p == HalfLaurent({2: 1, 0: -1, -2: 1})

    def test_multiply_by_one_is_identity(self):
        p = HalfLaurent({3: 2, -1: -5})
        assert p * HalfLaurent.one() == p

    def test_half_difference_square(self):
        sq = HalfLaurent.half_difference() * HalfLaurent.half_difference()
        assert sq == HalfLaurent({2: 1, 0: -2, -2: 1})

    def test_ring_axioms_against_sympy(self):
        rng = random.Random(1)
        t = sympy.symbols("t", positive=True)
        for _ in range(25):
            a = HalfLaurent({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(3)})
            b = HalfLaurent({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(3)})
            sa, _ = to_sympy(a)
            sb, _ = to_sympy(b)
            for ours, theirs in [(a + b, sa + sb), (a * b, sa * sb), (a - b, sa - sb)]:
                got, _ = to_sympy(ours)
                assert sympy.simplify(got - theirs) == 0

    def test_symmetry_predicate(self):
        assert HalfLaurent({2: 1, 0: -2, -2: 1}).is_symmetric()
        assert not HalfLaurent({2: 1, 0: -2, -2: 2}).is_symmetric()
        assert HalfLaurent.zero().is_symmetric()

    def test_no_stored_zeros(self):
        p = HalfLaurent({2: 1, 0: 0})
        assert p.to_pairs() == [[2, 1]]
        assert (p - p).to_pairs() == []

    def test_str(self):
        p = HalfLaurent({8: 1, 6: -1, 2: 1, 0: -1, -2: 1})
        assert str(p) == "t^4 - t^3 + t - 1 + t^-1"
        assert str(HalfLaurent({2: 1, 0: -2, -2: 1})) == "t - 2 + t^-1"
        assert str(HalfLaurent.zero()) == "0"
        assert str(HalfLaurent({1: 1, -1: -1})) == "t^(1/2) - t^(-1/2)"

    def test_coefficient_lookup(self):
        p = HalfLaurent({2: 5, -3: 7})
        assert p.coefficient(1) == 5
        assert p.coefficient_doubled(-3) == 7
        assert p.coefficient(2) == 0

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ({True: True, 2: False}, [[1, 1]]),
            ({1.5: 2.9}, TypeError),
            ({1: 2.0}, TypeError),
            ({1.5: 0}, TypeError),
            ({"1": 1}, TypeError),
        ],
    )
    def test_integer_input_only(self, coeffs, expected):
        # a bool is read as an int; any other non-integer is refused, not truncated
        if expected is TypeError:
            with pytest.raises(TypeError):
                HalfLaurent(coeffs)
            return
        pairs = HalfLaurent(coeffs).to_pairs()
        assert pairs == expected and all(type(x) is int for pair in pairs for x in pair)


class TestConwayPoly:
    def test_normalisation_strips_trailing_zeros(self):
        assert ConwayPoly((1, 2, 0, 0)).coefficients == (1, 2)

    def test_arithmetic(self):
        a = ConwayPoly((1, 0, 1))  # 1 + z^2
        b = ConwayPoly((0, 1))     # z
        assert (a * b).coefficients == (0, 1, 0, 1)
        assert (a + b).coefficients == (1, 1, 1)
        assert a.times_z().coefficients == (0, 1, 0, 1)

    def test_sum_trims_cancelled_top_coefficients(self):
        assert ConwayPoly([1, 2]) + ConwayPoly([0, -2]) == ConwayPoly([1])

    def test_substitution_matches_sympy(self):
        rng = random.Random(3)
        t = sympy.symbols("t", positive=True)
        z = sympy.sqrt(t) - 1 / sympy.sqrt(t)
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
            ours, _ = to_sympy(ConwayPoly(coeffs).to_half_laurent())
            theirs = sum(c * z ** k for k, c in enumerate(coeffs))
            assert sympy.simplify(ours - theirs) == 0

    @settings(max_examples=200)
    @given(st.lists(st.integers(-10**6, 10**6), max_size=16))
    def test_substitution_matches_the_power_sum(self, coeffs):
        c = ConwayPoly(coeffs)
        assert c.to_half_laurent() == substitution_by_powers(c)

    def test_substitution_on_two_strand_torus_links(self):
        for n in range(1, 302, 10):
            c = conway(t2(n))
            assert c.to_half_laurent() == substitution_by_powers(c)

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ([True, False, True], (1, 0, 1)),
            ([1.5, 2.2], TypeError),
            ([1, 2.0], TypeError),
            (["1"], TypeError),
        ],
    )
    def test_integer_input_only(self, coeffs, expected):
        # a bool is read as an int; any other non-integer is refused, not truncated
        if expected is TypeError:
            with pytest.raises(TypeError):
                ConwayPoly(coeffs)
            return
        c = ConwayPoly(coeffs).coefficients
        assert c == expected and all(type(x) is int for x in c)

    def test_str(self):
        assert str(ConwayPoly((0, 2, 0, 1))) == "z^3 + 2 z"
        assert str(ConwayPoly((1,))) == "1"
        assert str(ConwayPoly(())) == "0"
