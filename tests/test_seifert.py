import random

import pytest

from braidhfk.braidword import BraidWord, closure_components, closure_genus
from braidhfk.harness import connected_sum, disjoint_union, figure3
from braidhfk.seifert import (
    ParityError,
    SeifertMultigraph,
    euler_and_genus,
    fibered_positive,
    from_braid,
    reduced,
)


class TestFromBraid:
    def test_counts(self):
        g = from_braid(BraidWord(3, (1, 1, 2, 2, 2)))
        assert g.vertex_count == 3
        assert g.edges == ((1, 2), (1, 2), (2, 3), (2, 3), (2, 3))

    def test_figure3_word(self):
        g = from_braid(figure3())
        assert g.vertex_count == 3
        assert g.edges.count((1, 2)) == 3
        assert g.edges.count((2, 3)) == 7

    def test_empty_word(self):
        g = from_braid(BraidWord(2, ()))
        assert g.vertex_count == 2
        assert g.edges == ()


class TestReduced:
    def test_path(self):
        g = SeifertMultigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3), (2, 3)))
        assert reduced(g).edges == ((1, 2), (2, 3))

    def test_double_edge(self):
        g = SeifertMultigraph(2, ((1, 2), (1, 2)))
        assert reduced(g).edges == ((1, 2),)

    def test_edgeless_identity(self):
        g = SeifertMultigraph(4, ())
        assert reduced(g) == g


class TestFiberedPositive:
    def test_braid_graphs_are_paths(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(2, 5)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 10)))
            assert fibered_positive(from_braid(BraidWord(n, letters)))

    def test_cycle_with_doubled_edges(self):
        edges = []
        for i in range(1, 6):
            j = i % 5 + 1
            edges += [(i, j), (i, j)]
        assert not fibered_positive(SeifertMultigraph(5, tuple(edges)))

    def test_hopf_double_edge(self):
        assert fibered_positive(SeifertMultigraph(2, ((1, 2), (1, 2))))


class TestEulerAndGenus:
    def test_trefoil(self):
        assert euler_and_genus(from_braid(BraidWord(2, (1, 1, 1))), 1) == (-1, 1)

    def test_figure3(self):
        chi, g = euler_and_genus(from_braid(figure3()), 1)
        assert (chi, g) == (-7, 4)

    def test_empty_two_strands(self):
        assert euler_and_genus(from_braid(BraidWord(2, ())), 2) == (2, 0)

    def test_parity_error(self):
        with pytest.raises(ParityError):
            euler_and_genus(from_braid(BraidWord(2, (1,))), 2)

    def test_serialization(self):
        g = SeifertMultigraph(3, ((1, 2), (2, 3)))
        assert str(g) == "V=3; 1-2; 2-3"


class TestAdditivity:
    def words(self):
        rng = random.Random(4)
        out = []
        for _ in range(25):
            n = rng.randint(2, 4)
            letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
            out.append(BraidWord(n, letters))
        return out

    def test_genus_additive_under_connected_sum(self):
        words = self.words()
        for w1, w2 in zip(words, reversed(words)):
            assert closure_genus(connected_sum(w1, w2)) == closure_genus(w1) + closure_genus(w2)

    def test_genus_additive_under_disjoint_union(self):
        words = self.words()
        for w1, w2 in zip(words, reversed(words)):
            u = disjoint_union(w1, w2)
            assert closure_genus(u) == closure_genus(w1) + closure_genus(w2)
            assert closure_components(u) == closure_components(w1) + closure_components(w2)
