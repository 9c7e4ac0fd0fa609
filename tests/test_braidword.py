import dataclasses
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidhfk.braidword import (
    DEFAULT_BUDGET,
    MAX_LETTERS,
    MAX_STRANDS,
    BraidWord,
    ParseError,
    RangeError,
    closure_components,
    closure_genus,
    decompose,
    find_adjacent_square,
    parse_braid,
    parse_serialized,
    prime_factors,
    split_pieces,
)
from braidhfk.alexander import alexander_burau, conway
from braidhfk.harness import connected_sum, corpus, torus
from corpus_oracle import canonical_key
from decompose_oracle import decompose_by_search
from square_oracle import ALL_MOVES, reference_orbit, square_by_checking_every_word


@st.composite
def summands(draw):
    n = draw(st.integers(2, 4))
    return BraidWord(n, tuple(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=7))))


def scrambled(w, rng, moves=80):
    """``w`` after random rotations, far commutations and braid relations,
    six in ten of them braid relations where one applies."""
    u = list(w.letters)
    for _ in range(moves):
        n = len(u)
        if n < 2:
            break
        if rng.random() < 0.6:
            sites = [j for j in range(n - 2) if u[j] == u[j + 2] and abs(u[j] - u[j + 1]) == 1]
            if sites:
                j = rng.choice(sites)
                u[j:j + 3] = [u[j + 1], u[j], u[j + 1]]
                continue
        if rng.random() < 0.5:
            k = rng.randrange(n)
            u = u[k:] + u[:k]
        else:
            sites = [j for j in range(n - 1) if abs(u[j] - u[j + 1]) >= 2]
            if sites:
                j = rng.choice(sites)
                u[j], u[j + 1] = u[j + 1], u[j]
    return BraidWord(w.strands, tuple(u))


def cycle_count_oracle(strands, letters):
    """Independent component count: trace each strand position through every
    crossing in turn and union the endpoints."""
    parent = list(range(strands))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    position = list(range(strands))  # position -> strand currently there
    for i in letters:
        position[i - 1], position[i] = position[i], position[i - 1]
    for pos in range(strands):
        # closing the braid joins the strand ending at pos to the one starting there
        a, b = find(position[pos]), find(pos)
        if a != b:
            parent[a] = b
    return len({find(x) for x in range(strands)})


class TestParse:
    def test_plain(self):
        w = parse_braid("1 1 2 2 2")
        assert w.strands == 3
        assert w.letters == (1, 1, 2, 2, 2)

    def test_caret_powers(self):
        w = parse_braid("1^2 2^3 1 2^4")
        assert w.strands == 3
        assert w.letters == (1, 1, 2, 2, 2, 1, 2, 2, 2, 2)

    def test_commas(self):
        assert parse_braid("1,1,2").letters == (1, 1, 2)

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_braid("0 1")

    def test_index_must_fit_declared_strands(self):
        with pytest.raises(RangeError):
            parse_braid("3", strands=3)

    def test_empty_needs_strands(self):
        with pytest.raises(ParseError):
            parse_braid("")
        w = parse_braid("", strands=3)
        assert w.strands == 3 and w.letters == ()

    def test_bad_power(self):
        with pytest.raises(ParseError):
            parse_braid("1^0")
        with pytest.raises(ParseError):
            parse_braid("1^-2")

    def test_size_guard(self):
        assert len(parse_braid(f"1^{MAX_LETTERS}")) == MAX_LETTERS
        assert parse_braid("1", strands=MAX_STRANDS).strands == MAX_STRANDS
        for text, strands in [
            ("1^100000000", None),
            (f"1^{MAX_LETTERS} 1", None),
            ("1 " * (MAX_LETTERS + 1), None),
            (str(MAX_STRANDS), None),
            ("1", MAX_STRANDS + 1),
        ]:
            with pytest.raises(RangeError):
                parse_braid(text, strands)
        with pytest.raises(RangeError):
            parse_serialized(f"strands={MAX_STRANDS + 1}: 1")

    def test_serialized_round_trip(self):
        for text in ["strands=4: 1 1 2", "strands=2:", "1 2 1"]:
            w = parse_serialized(text)
            assert parse_serialized(str(w)) == w

    def test_serialized_strips_comments(self):
        assert parse_serialized("1 1  # a Hopf link").letters == (1, 1)

    @pytest.mark.parametrize(
        "strands, letters, expected",
        [
            (3, (True, 2, 1, 2), (3, (1, 2, 1, 2))),
            (True, (), (1, ())),
            (3, (1.5, 2), ParseError),
            (3, (2.0,), ParseError),
            (3, ("1",), ParseError),
            (3.0, (1, 2), ParseError),
        ],
    )
    def test_integer_input_only(self, strands, letters, expected):
        # a bool is read as an int; any other non-integer is refused, not truncated
        if expected is ParseError:
            with pytest.raises(ParseError):
                BraidWord(strands, letters)
            return
        w = BraidWord(strands, letters)
        assert (w.strands, w.letters) == expected
        assert all(type(x) is int for x in (w.strands, *w.letters))
        assert w.to_json() == {"strands": expected[0], "letters": list(expected[1])}


class TestClosureComponents:
    def test_empty_word_is_unknot(self):
        assert closure_components(BraidWord(1, ())) == 1

    def test_hopf(self):
        assert closure_components(BraidWord(2, (1, 1))) == 2

    def test_trefoil(self):
        assert closure_components(BraidWord(2, (1, 1, 1))) == 1

    def test_matches_independent_cycle_count(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 5)
            length = rng.randint(0, 8)
            letters = tuple(rng.randint(1, max(1, n - 1)) for _ in range(length)) if n > 1 else ()
            w = BraidWord(n, letters)
            assert closure_components(w) == cycle_count_oracle(n, letters)

    def test_parity_invariant(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 5)
            length = rng.randint(0, 9)
            letters = tuple(rng.randint(1, n - 1) for _ in range(length))
            w = BraidWord(n, letters)
            assert (closure_components(w) - (n - length)) % 2 == 0


class TestCanonicalKey:
    def test_distant_commutation(self):
        a = BraidWord(4, (1, 3))
        b = BraidWord(4, (3, 1))
        assert canonical_key(a) == canonical_key(b)

    def test_rotation(self):
        a = BraidWord(3, (2, 1, 1))
        b = BraidWord(3, (1, 1, 2))
        assert canonical_key(a) == canonical_key(b)

    def test_braid_relation_excluded(self):
        a = BraidWord(3, (1, 2, 1))
        b = BraidWord(3, (2, 1, 2))
        assert canonical_key(a) != canonical_key(b)

    def test_strand_count_in_key(self):
        assert canonical_key(BraidWord(2, (1, 1))) != canonical_key(BraidWord(3, (1, 1)))

    def test_invariant_under_random_scrambles(self):
        rng = random.Random(5)
        for base in [(1, 1, 2, 2, 2, 1, 2, 2, 2, 2), (1, 2, 1, 2), (1, 3, 2, 2, 1, 3)]:
            w = BraidWord(max(base) + 1, base)
            key = canonical_key(w)
            letters = list(base)
            for _ in range(1000):
                move = rng.random()
                if move < 0.5 and letters:
                    k = rng.randrange(len(letters))
                    letters = letters[k:] + letters[:k]
                else:
                    j = rng.randrange(len(letters) - 1)
                    if abs(letters[j] - letters[j + 1]) >= 2:
                        letters[j], letters[j + 1] = letters[j + 1], letters[j]
                assert canonical_key(BraidWord(w.strands, tuple(letters))) == key


class TestDecompose:
    def test_rule_a_two_hopfs(self):
        w = BraidWord(4, (1, 1, 2, 3, 3))
        lc = decompose(w)
        assert lc.split_count == 1
        assert lc.prime_count == 2
        assert lc.components == 3
        assert [f.letters for f in lc.prime_words] == [(1, 1), (1, 1)]
        # independent arithmetic cross-check: nabla(H # H) = z * z
        assert conway(w).coefficients == (0, 0, 1)

    def test_rule_b_two_trefoils(self):
        w = BraidWord(3, (1, 1, 1, 2, 2, 2))
        lc = decompose(w)
        assert lc.split_count == 1
        assert lc.prime_count == 2
        assert [f.letters for f in lc.prime_words] == [(1, 1, 1), (1, 1, 1)]
        # Alexander cross-check: (z^2 + 1)^2
        assert conway(w).coefficients == (1, 0, 2, 0, 1)

    def test_unused_generator_splits(self):
        w = BraidWord(4, (1, 1, 3, 3))
        lc = decompose(w)
        assert lc.split_count == 2
        assert lc.prime_count == 2
        assert lc.components == 4

    def test_unknot_pieces(self):
        lc = decompose(BraidWord(3, ()))
        assert lc.split_count == 3
        assert lc.prime_count == 0

    def test_destabilization_chain(self):
        # s1 s2 s1 s2 closes to the trefoil.  No reduction fires on it, so
        # it is its own prime factor; the orbit search instead finds a
        # braid move exposing the destabilization, down to s1^3
        lc = decompose(BraidWord(3, (1, 2, 1, 2)))
        assert lc.split_count == 1
        assert lc.prime_count == 1
        assert alexander_burau(lc.prime_words[0]) == alexander_burau(BraidWord(2, (1, 1, 1)))
        searched = decompose_by_search(BraidWord(3, (1, 2, 1, 2)), DEFAULT_BUDGET)
        assert [f.letters for f in searched.prime_words] == [(1, 1, 1)]

    def test_idempotent_on_prime_words(self):
        for letters in [(1, 1, 2, 3, 3), (1, 1, 1, 2, 2, 2), (1, 2, 1, 2, 1, 2)]:
            lc = decompose(BraidWord(max(letters) + 1, letters))
            for f in lc.prime_words:
                again = decompose(f)
                assert again.split_count == 1
                assert again.prime_count == 1
                assert again.prime_words == (f,)

    def test_prime_words_use_every_generator_twice(self):
        for letters in [(1, 2, 1, 2), (1, 1, 2, 2), (1, 1, 2, 1, 1, 2)]:
            lc = decompose(BraidWord(3, letters))
            assert lc.verified
            for f in lc.prime_words:
                counts = f.generator_counts()
                assert all(counts.get(i, 0) >= 2 for i in range(1, f.strands))

    def test_verified_flag_drops_on_tiny_budget(self):
        # (s1 s2)^3 is prime; with a one-word budget the orbit search cannot
        # finish, so its result must be flagged rather than trusted
        lc = decompose_by_search(BraidWord(3, (1, 2, 1, 2, 1, 2)), 1)
        assert not lc.verified

    def test_budget_that_covers_the_orbit_exactly_verifies(self):
        # the orbit of (s1 s2)^3 has 8 words: a search runs out only when a
        # word is still waiting, so a budget of 8 finishes and 7 does not
        w = BraidWord(3, (1, 2, 1, 2, 1, 2))
        for budget, verified in [(8, True), (7, False)]:
            assert decompose_by_search(w, budget).verified is verified

    @settings(max_examples=300)
    @given(st.lists(summands(), min_size=2, max_size=3), st.integers(0, 2**32 - 1))
    def test_agrees_with_the_orbit_search(self, parts, seed):
        # a connected sum hidden by rotations, commutations and braid
        # relations: the rules read off the word must find the same
        # split and prime counts as the search over every move
        w = scrambled(reduce(connected_sum, parts), random.Random(seed))
        searched = decompose_by_search(w, 20_000)
        if searched.verified:
            lc = decompose(w)
            assert (lc.split_count, lc.prime_count) == (searched.split_count, searched.prime_count)


class TestSplitPieces:
    def test_isolated_strands(self):
        pieces = split_pieces(BraidWord(4, (2,)))
        assert [(p.strands, p.letters) for p in pieces] == [(1, ()), (2, (1,)), (1, ())]

    def test_connected_word_is_single_piece(self):
        pieces = split_pieces(BraidWord(3, (1, 2)))
        assert len(pieces) == 1
        assert pieces[0].letters == (1, 2)


class TestStoredFacts:
    # closure_components, split_pieces and prime_factors keep their results
    # on the word; a word carrying them must behave as a fresh one does
    @pytest.mark.parametrize(
        "strands, letters",
        [(4, (1, 1, 1, 2, 3, 2, 3, 2, 3, 2, 3)), (5, (1, 1, 1, 3, 4, 3, 4))],
        ids=["T(2,3)#T(3,4)", "T(2,3)+T(3,2)"],
    )
    def test_a_word_with_facts_behaves_like_a_fresh_one(self, strands, letters):
        w = BraidWord(strands, letters)
        lc = decompose(w)
        if w.is_connected:
            prime_factors(w)
        fresh = BraidWord(strands, letters)
        assert w == fresh and hash(w) == hash(fresh)
        assert (repr(w), str(w), w.to_json()) == (repr(fresh), str(fresh), fresh.to_json())
        back = pickle.loads(pickle.dumps(w))
        assert back == w and hash(back) == hash(w) and repr(back) == repr(w)
        assert decompose(back) == lc == decompose(fresh)

        other = dataclasses.replace(w, letters=(1, 3))
        assert closure_components(other) == closure_components(BraidWord(strands, (1, 3)))
        assert closure_components(other) != closure_components(w)
        assert split_pieces(other) == split_pieces(BraidWord(strands, (1, 3)))

        split_pieces(w).clear()
        assert split_pieces(w) == split_pieces(fresh)
        if w.is_connected:
            factors = prime_factors(w)
            factors.append(BraidWord(2, (1, 1, 1)))
            assert prime_factors(w) == prime_factors(fresh) != factors


class TestFindAdjacentSquare:
    def test_immediate(self):
        w = BraidWord(2, (1, 1, 1, 1))
        sq = find_adjacent_square(w)
        assert sq.letters[:2] == (1, 1)
        assert sq.letters == (1, 1, 1, 1)

    def test_needs_one_braid_relation(self):
        w = BraidWord(3, (1, 2, 1, 2, 1, 2))
        sq = find_adjacent_square(w)
        assert sq is not None
        assert sq.letters[0] == sq.letters[1]
        assert sq.strands == 3 and len(sq.letters) == 6
        # the rewrite must not change the closure
        assert conway(sq) == conway(w)
        # frozen output of the deterministic search
        assert sq.letters == (2, 2, 1, 2, 2, 1)

    def test_unknot_has_no_square(self):
        assert find_adjacent_square(BraidWord(2, (1,))) is None

    def test_commutes_distant_letters_out_of_the_gap(self):
        # the gap between the two s1 letters holds only an s3, so the second
        # s1 crosses strands 0 and 1 again: the exchange brings the pair
        # together and rotates the prefix's other letter, s3, to the end
        w = BraidWord(4, (1, 3, 1, 3, 2, 2))
        sq = find_adjacent_square(w)
        assert sq.letters == (1, 1, 3, 2, 2, 3)
        assert conway(sq) == conway(w)

    def test_moves_preserve_conway(self):
        rng = random.Random(3)
        for _ in range(25):
            length = rng.randint(2, 7)
            letters = tuple(rng.randint(1, 2) for _ in range(length))
            w = BraidWord(3, letters)
            if not w.is_connected or closure_genus(w) == 0:
                continue
            sq = find_adjacent_square(w)
            assert sq is not None
            assert conway(sq) == conway(w)

    @pytest.mark.parametrize("budget", [1, 2, 5, 17, DEFAULT_BUDGET])
    def test_same_square_as_checking_every_word(self, budget):
        # the rewrite is a word of the move orbit, and with the default
        # budget a square turns up exactly when checking every word of the
        # orbit finds one; a smaller budget only turns squares into None
        words = [w for w in corpus(4, 7) + corpus(5, 5) if w.is_connected and closure_genus(w) > 0]
        words.append(BraidWord(7, (6, 5, 1, 2, 3, 4, 3)))  # its walk visits 20 conjugates
        full = [find_adjacent_square(w) for w in words]
        assert [sq is None for sq in full] == [
            square_by_checking_every_word(w, DEFAULT_BUDGET) is None for w in words
        ]
        found = [find_adjacent_square(w, budget) for w in words]
        for w, sq, sq_full in zip(words, found, full):
            assert sq is None or sq == sq_full
            if sq is not None:
                assert sq.letters in {v for v, _ in reference_orbit(w.letters, ALL_MOVES)}
        if budget < DEFAULT_BUDGET:
            assert None in found  # some searches run out of budget

    def test_warm_table_keeps_each_budget_apart(self):
        # a simple braid: no square until the walk reaches its third conjugate.
        # Nothing is memoised, so an earlier call at another budget cannot
        # leak into a later one.
        w = BraidWord(5, (1, 2, 3, 2, 4))
        full = find_adjacent_square(w)
        assert full is not None
        for budget, expected in [(1, None), (2, None), (3, full)]:
            assert find_adjacent_square(w, budget) == expected

    def test_warm_table_still_rejects_a_bad_budget(self):
        w = torus(4, 5)
        find_adjacent_square(w)
        with pytest.raises(ValueError, match="budget"):
            find_adjacent_square(w, 0)


class TestResolveSquare:
    # a square s_i s_i b resolves into l_minus = b and l_zero = s_i b;
    # delta is 0 when l_zero has more closure components than the square

    def test_t24(self):
        sq = BraidWord(2, (1, 1, 1, 1))
        l_minus, l_zero = BraidWord(2, sq.letters[2:]), BraidWord(2, sq.letters[1:])
        delta = int(closure_components(l_zero) <= closure_components(sq))
        assert l_minus.letters == (1, 1)
        assert l_zero.letters == (1, 1, 1)
        assert delta == 1
        assert closure_genus(sq) == closure_genus(l_minus) + 1
        assert closure_genus(sq) == closure_genus(l_zero) + delta

    def test_trefoil(self):
        sq = BraidWord(2, (1, 1, 1))
        l_minus, l_zero = BraidWord(2, sq.letters[2:]), BraidWord(2, sq.letters[1:])
        assert l_minus.letters == (1,)
        assert l_zero.letters == (1, 1)
        assert int(closure_components(l_zero) <= closure_components(sq)) == 0

    def test_hopf(self):
        sq = BraidWord(2, (1, 1))
        l_minus, l_zero = BraidWord(2, sq.letters[2:]), BraidWord(2, sq.letters[1:])
        assert l_minus.letters == ()
        assert l_minus.strands == 2
        assert l_zero.letters == (1,)
        assert int(closure_components(l_zero) <= closure_components(sq)) == 1

    def test_square_search_supplies_the_shape(self):
        # 1 2 1 does not start with a doubled generator, so it cannot be
        # sliced as it stands; the square search rewrites it to one that does
        w = BraidWord(3, (1, 2, 1))
        assert w.letters[0] != w.letters[1]
        sq = find_adjacent_square(w)
        assert sq.letters[0] == sq.letters[1]

    def test_genus_identity_on_random_squares(self):
        rng = random.Random(9)
        for _ in range(100):
            length = rng.randint(0, 6)
            tail = tuple(rng.randint(1, 3) for _ in range(length))
            i = rng.randint(1, 3)
            sq = BraidWord(4, (i, i) + tail)
            l_minus, l_zero = BraidWord(4, sq.letters[2:]), BraidWord(4, sq.letters[1:])
            delta = int(closure_components(l_zero) <= closure_components(sq))
            g = closure_genus(sq)
            assert g == closure_genus(l_minus) + 1
            assert g == closure_genus(l_zero) + delta
