"""The keyed tables of ``braidhfk`` and the values they share.

Each module keeps its tables as module-level dicts named ``*_cache`` and
empties them in its ``clear_caches``.  The closed-form groups, the
recursion's final group and ``hfk_euler``'s substitution are each built
once per distinct input, so equal values are one object across reports:
these tests check that no report can tell, and pin how many entries a
cold pass over the acceptance corpus makes.  An entry of
``hfk._next_to_top_cache`` is a triple: the next-to-top group and the
coefficients of ``t^g`` and ``t^(g-1)`` in the signed Euler
characteristic of the top group plus it, which ``verify`` compares with
the polynomial.
"""

import gc
import importlib
import pkgutil
import tracemalloc

import pytest

import braidhfk
from braidhfk import alexander, hfk
from braidhfk.braidword import BraidWord
from braidhfk.harness import corpus, verify, verify_all
from braidhfk.hfk import BigradedRank, V
from braidhfk.polynomials import ConwayPoly, HalfLaurent

# words of corpus(4, 10): a composite knot (three trefoils), a split link
# (trefoil and T(2,4)), a prime link of three components and a prime knot
SAMPLE = [
    BraidWord(4, (1, 1, 1, 2, 2, 2, 3, 3, 3)),
    BraidWord(4, (1, 1, 1, 3, 3, 3, 3)),
    BraidWord(4, (1, 2, 1, 2, 3, 2, 3, 2, 3)),
    BraidWord(4, (1, 1, 2, 1, 2, 3, 2, 3, 3)),
]

# the tables of the constructions that repeat across words
SHARED = {
    "alexander._euler_cache": alexander._euler_cache,
    "hfk._top_cache": hfk._top_cache,
    "hfk._next_to_top_cache": hfk._next_to_top_cache,
    "hfk._skein_group_cache": hfk._skein_group_cache,
}


def clear_all():
    alexander.clear_caches()
    hfk.clear_caches()


def tables_by_module():
    """Each ``braidhfk`` module that has them, with its module-level dicts
    whose names end in ``_cache``."""
    found = {}
    for info in pkgutil.iter_modules(braidhfk.__path__):
        module = importlib.import_module(f"braidhfk.{info.name}")
        tables = {
            name: value
            for name, value in vars(module).items()
            if name.endswith("_cache") and isinstance(value, dict)
        }
        if tables:
            found[module] = tables
    return found


def test_clear_caches_empties_every_table():
    verify_all(SAMPLE + corpus(3, 5))
    found = tables_by_module()
    names = {f"{m.__name__.removeprefix('braidhfk.')}.{name}" for m, tables in found.items() for name in tables}
    assert names >= set(SHARED) | {"alexander._conway_cache", "alexander._burau_cache", "hfk._profile_cache"}
    for module, tables in found.items():
        assert all(tables.values()), module.__name__
        module.clear_caches()
        assert not any(tables.values()), module.__name__


def test_shared_values_leave_every_report_unchanged():
    words = corpus(4, 10)
    assert all(w in words for w in SAMPLE)
    cold = []
    for w in SAMPLE:
        clear_all()
        cold.append(verify(w).to_json())
    clear_all()
    verify_all(words)
    assert [verify(w).to_json() for w in SAMPLE] == cold

    # every entry equals the value built afresh from its key
    for key, value in alexander._euler_cache.items():
        assert ConwayPoly(key).to_half_laurent() == value, key
    for (rank, g, pieces), value in hfk._skein_group_cache.items():
        assert BigradedRank({(-1, g - 1): rank}).tensor(V.tensor_power(pieces - 1)) == value
    tops, entries = dict(hfk._top_cache), dict(hfk._next_to_top_cache)
    assert tops and entries
    hfk.clear_caches()
    for key, value in tops.items():
        fresh = hfk.predicted_top(*key)
        assert fresh == value and fresh is not value, key
    for key, value in entries.items():
        fresh = hfk.closed_form(*key)
        assert fresh == value and fresh[0] is not value[0], key


def test_a_cold_corpus_pass_builds_each_value_once_per_distinct_input():
    reports = verify_all(corpus(4, 10))
    assert {name: len(table) for name, table in SHARED.items()} == {
        "alexander._euler_cache": 56,
        "hfk._top_cache": 19,
        "hfk._next_to_top_cache": 63,
        "hfk._skein_group_cache": 49,
    }
    # equal values are one object across the 2,749 reports
    assert len({id(r.skein_euler) for r in reports}) == 56
    assert len({id(r.predicted_top) for r in reports}) == 19
    assert len({id(r.predicted_next_to_top) for r in reports}) == 63
    assert len({id(r.skein_next_to_top) for r in reports}) == 49
    # a next-to-top entry holds its group and the Euler slice of both groups
    for (p, s, components, g), (group, at_g, below_g) in hfk._next_to_top_cache.items():
        assert group is hfk.predicted_next_to_top(p, s, components, g)
        euler = (hfk.predicted_top(s, g) + group).signed_euler()
        assert (at_g, below_g) == (euler.coefficient(g), euler.coefficient(g - 1))


# bytes the module tables held after a cold pass over corpus(4, 10),
# measured by tracemalloc as what clear_caches frees: 2,333,648 on
# CPython 3.11
TABLE_BYTES_BOUND = 2_600_000


def test_a_cold_corpus_pass_leaves_the_tables_under_their_pinned_size():
    words = corpus(4, 10)
    found = tables_by_module()
    tracemalloc.start()
    try:
        verify_all(words)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        assert all(all(tables.values()) for tables in found.values())
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
