"""The keyed tables of ``braidhfk`` and the values they share.

A module keeps a table either as a module-level dict named ``*_cache``,
whose key carries a budget, or as a ``functools.cache``d function, and
empties each in its ``clear_caches``.  The closed-form groups, the
recursion's final group, ``hfk_euler``'s substitution and the division
that ends ``alexander_burau`` are each built once per distinct input, so
equal values are one object across reports: these tests check that no
report can tell, rebuild each value through ``__wrapped__``, and pin
through ``cache_info()`` how many entries a cold pass over the
acceptance corpus makes.  ``hfk.closed_form`` returns a triple: the
next-to-top group and the coefficients of ``t^g`` and ``t^(g-1)`` in the
signed Euler characteristic of the top group plus it, which ``verify``
compares with the polynomial.
"""

import gc
import importlib
import pkgutil
import tracemalloc

import pytest

import braidhfk
from braidhfk import alexander, hfk
from braidhfk.alexander import conway
from braidhfk.braidword import BraidWord, decompose, split_pieces
from braidhfk.harness import corpus, verify, verify_all
from braidhfk.hfk import BigradedRank, V
from braidhfk.polynomials import HalfLaurent, InexactDivisionError

# words of corpus(4, 10): a composite knot (three trefoils), a split link
# (trefoil and T(2,4)), a prime link of three components and a prime knot
SAMPLE = [
    BraidWord(4, (1, 1, 1, 2, 2, 2, 3, 3, 3)),
    BraidWord(4, (1, 1, 1, 3, 3, 3, 3)),
    BraidWord(4, (1, 2, 1, 2, 3, 2, 3, 2, 3)),
    BraidWord(4, (1, 1, 2, 1, 2, 3, 2, 3, 3)),
]

# the cached functions of the constructions that repeat across words
SHARED = {
    "alexander._substitute": alexander._substitute,
    "alexander._burau_tail": alexander._burau_tail,
    "hfk.predicted_top": hfk.predicted_top,
    "hfk.closed_form": hfk.closed_form,
    "hfk._skein_group": hfk._skein_group,
}


def clear_all():
    alexander.clear_caches()
    hfk.clear_caches()


def entries(table):
    """Entries of a dict table or of a ``functools.cache``d function."""
    return table.cache_info().currsize if hasattr(table, "cache_clear") else len(table)


def tables_by_module():
    """Each ``braidhfk`` module that has them, with its module-level dicts
    whose names end in ``_cache`` and the objects it defines that have
    ``cache_clear``."""
    found = {}
    for info in pkgutil.iter_modules(braidhfk.__path__):
        module = importlib.import_module(f"braidhfk.{info.name}")
        tables = {
            name: value
            for name, value in vars(module).items()
            if (name.endswith("_cache") and isinstance(value, dict))
            or (hasattr(value, "cache_clear") and value.__module__ == module.__name__)
        }
        if tables:
            found[module] = tables
    return found


def test_clear_caches_empties_every_table():
    verify_all(SAMPLE + corpus(3, 5))
    found = tables_by_module()
    names = {f"{m.__name__.removeprefix('braidhfk.')}.{name}" for m, tables in found.items() for name in tables}
    assert names >= set(SHARED) | {"alexander._conway_cache", "alexander.alexander_burau", "hfk._profile_cache"}
    for module, tables in found.items():
        assert all(map(entries, tables.values())), module.__name__
        module.clear_caches()
        assert not any(map(entries, tables.values())), module.__name__


def test_shared_values_leave_every_report_unchanged(monkeypatch):
    words = corpus(4, 10)
    assert all(w in words for w in SAMPLE)
    cold = []
    for w in SAMPLE:
        clear_all()
        cold.append(verify(w).to_json())
    clear_all()
    reports = verify_all(words)
    assert [verify(w).to_json() for w in SAMPLE] == cold

    # every shared value equals the one built afresh, through __wrapped__,
    # from its report's inputs and, for Burau, the prime factors verify
    # multiplies; the one zero Burau returns is shared by design
    tail, rebuilt = alexander._burau_tail, {}

    def fresh_tail(*key):
        rebuilt[key] = tail.__wrapped__(*key)
        return rebuilt[key]

    monkeypatch.setattr(alexander, "_burau_tail", fresh_tail)
    for r in reports:
        w, p, s, g = r.word, r.prime_count, r.split_count, r.genus
        euler = alexander._substitute.__wrapped__((0,) * (r.components - 1) + conway(w).coefficients)
        assert euler == r.skein_euler and euler is not r.skein_euler, w
        burau = alexander.alexander_burau.__wrapped__(w)
        assert burau == r.burau_euler and (burau is not r.burau_euler or not burau), w
        for f in decompose(w).prime_words if s == 1 and p >= 2 else ():
            burau = alexander.alexander_burau.__wrapped__(f)
            assert burau == alexander.alexander_burau(f) and burau is not alexander.alexander_burau(f), f
        top = hfk.predicted_top.__wrapped__(s, g)
        assert top == r.predicted_top and top is not r.predicted_top, w
        entry = hfk.closed_form.__wrapped__(p, s, r.components, g)
        assert entry == hfk.closed_form(p, s, r.components, g) and entry[0] is not r.predicted_next_to_top, w
        group = hfk._skein_group.__wrapped__(r.skein_next_to_top.rank_at(-1, g - 1), g, len(split_pieces(w)))
        assert group == r.skein_next_to_top and group is not r.skein_next_to_top, w
    # those rebuilds reached every entry of the tail's cache, and no other key
    assert len(rebuilt) == tail.cache_info().currsize == 69
    for key, fresh in rebuilt.items():
        assert fresh == tail(*key) and fresh is not tail(*key), key
    assert tail.cache_info().currsize == 69


def test_a_cold_corpus_pass_builds_each_value_once_per_distinct_input():
    reports = verify_all(corpus(4, 10))
    assert {name: f.cache_info().currsize for name, f in SHARED.items()} == {
        "alexander._substitute": 56,
        "alexander._burau_tail": 69,
        "hfk.predicted_top": 19,
        "hfk.closed_form": 63,
        "hfk._skein_group": 49,
    }
    # equal values are one object across the 2,749 reports
    assert len({id(r.skein_euler) for r in reports}) == 56
    assert len({id(r.burau_euler) for r in reports}) == 54
    assert len({id(r.predicted_top) for r in reports}) == 19
    assert len({id(r.predicted_next_to_top) for r in reports}) == 63
    assert len({id(r.skein_next_to_top) for r in reports}) == 49
    # closed_form returns its group and the Euler slice of both groups
    for r in reports:
        p, s, g = r.prime_count, r.split_count, r.genus
        group, at_g, below_g = hfk.closed_form(p, s, r.components, g)
        assert group is hfk.predicted_next_to_top(p, s, r.components, g) is r.predicted_next_to_top
        euler = (hfk.predicted_top(s, g) + group).signed_euler()
        assert (at_g, below_g) == (euler.coefficient(g), euler.coefficient(g - 1))


def test_a_tail_that_leaves_a_remainder_is_checked_on_every_call(monkeypatch):
    w = BraidWord(2, (1, 1, 1))
    monkeypatch.setattr(alexander, "_bareiss_det", lambda rows: 1)
    for calls in (1, 2):
        with pytest.raises(InexactDivisionError, match="nonzero remainder"):
            alexander.alexander_burau(w)
        assert alexander._burau_tail.cache_info().misses == calls
        assert entries(alexander._burau_tail) == entries(alexander.alexander_burau) == 0


# bytes the module tables held after a cold pass over corpus(4, 10),
# measured by tracemalloc as what clear_caches frees: 1,067,840 on
# CPython 3.11.7
TABLE_BYTES_BOUND = 1_450_000


def test_a_cold_corpus_pass_leaves_the_tables_under_their_pinned_size():
    words = corpus(4, 10)
    found = tables_by_module()
    tracemalloc.start()
    try:
        verify_all(words)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        assert all(all(map(entries, tables.values())) for tables in found.values())
        for module in found:
            module.clear_caches()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < TABLE_BYTES_BOUND


# each public method and property of the shared value types, with the
# arguments it is called with; a method added without a row fails the test
PUBLIC = {
    HalfLaurent: {
        "zero": (), "one": (), "half_difference": (), "from_pairs": ([(2, 1), (2, 1)],),
        "coefficient": (1,), "coefficient_doubled": (3,), "top_doubled": None, "bottom_doubled": None,
        "is_symmetric": (), "to_pairs": (), "shifted": (2,),
    },
    BigradedRank: {
        "zero": (), "unit": (), "rank_at": (0, 1), "tensor": (V,), "tensor_power": (2,),
        "signed_euler": (), "to_triples": (),
    },
}
BINARY = ("__add__", "__sub__", "__mul__", "__eq__")
UNARY = ("__neg__", "__hash__", "__bool__", "__str__", "__repr__")


@pytest.mark.parametrize(
    "value",
    [HalfLaurent({3: 2, -1: -5, 0: 1}), BigradedRank({(0, 1): 1, (-1, 0): 2})],
    ids=["HalfLaurent", "BigradedRank"],
)
def test_shared_value_types_have_no_mutating_public_method(value):
    cls = type(value)
    (slot,) = cls.__slots__
    before = dict(getattr(value, slot))
    assert {name for name in dir(cls) if not name.startswith("_")} == set(PUBLIC[cls])
    for name, args in PUBLIC[cls].items():
        attr = getattr(value, name)
        if args is not None:
            attr(*args)
    for name in BINARY:
        if name in vars(cls):
            getattr(value, name)(value)
    for name in UNARY:
        if name in vars(cls):
            getattr(value, name)()
    assert getattr(value, slot) == before
