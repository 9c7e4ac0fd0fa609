"""One budget rule for every stage of exponential cost.

Each budgeted stage raises ``BudgetError`` past its budget, with the
message that names where it ran out; ``verify`` records that message as a
note and fails only the checks of the stage that ran out.  Every public
entry point that takes a budget rejects a non-positive one, whatever ran
before it.
"""

import inspect

import pytest

import braidhfk
from braidhfk import (
    BudgetError,
    bigraded_counts,
    build_diagram,
    conway,
    enumerate_states,
    euler_and_top_slice,
    next_to_top_via_skein,
    parse_braid,
    parse_serialized,
    torus,
    verify,
)

SIMPLE = "strands=5: 1 2 3 2 4"  # a simple braid whose square search visits 3 conjugates


@pytest.mark.parametrize("call, message", [
    (lambda: conway(parse_braid("1 1 2 2"), 1),
     "Hecke sweep of strands=2: 1 1, a factor of strands=3: 1 1 2 2, passed the budget of 1 entries after letter 2"),
    (lambda: next_to_top_via_skein(parse_serialized(SIMPLE), 1),
     f"no doubled crossing found within budget for {SIMPLE}"),
    (lambda: enumerate_states(build_diagram(torus(4, 3)), 10),
     "state listing reached 11 backtracking nodes (budget 10)"),
    (lambda: bigraded_counts(build_diagram(torus(4, 3)), 2),
     "state table reached 4 masks at crossing 1 of 9 (budget 2)"),
    (lambda: euler_and_top_slice(build_diagram(torus(4, 3)), 10),
     "state table reached 14 masks at crossing 3 of 9 (budget 10)"),
], ids=["conway", "next_to_top_via_skein", "enumerate_states", "bigraded_counts", "euler_and_top_slice"])
def test_every_capped_stage_raises_budget_error(call, message):
    with pytest.raises(RuntimeError) as info:
        call()
    assert info.type is BudgetError
    assert str(info.value) == message


@pytest.mark.parametrize("w, budget, notes, failed", [
    (parse_serialized(SIMPLE), 1, (
        f"skein engine: Hecke sweep of strands=2: 1 1, a factor of {SIMPLE},"
        " passed the budget of 1 entries after letter 2",
        f"skein recursion: no doubled crossing found within budget for {SIMPLE}",
    ), {"skein_equals_burau", "formula_matches_recursion"}),
    (torus(4, 5), 10, (
        f"skein engine: Hecke sweep of {torus(4, 5)} passed the budget of 10 entries after letter 10",
        "kauffman engine: state table reached 14 masks at crossing 3 of 15 (budget 10)",
    ), {"skein_equals_burau", "kauffman_matches", "kauffman_top_state_unique", "kauffman_maslov_band"}),
], ids=["chain", "kauffman"])
def test_verify_notes_a_budget_error_and_raises_none(w, budget, notes, failed):
    r = verify(w, budget)
    assert r.notes == notes
    assert {name for name, ok in r.checks.items() if not ok} == failed


T45 = torus(4, 5)
T34 = torus(3, 4)

# each public entry point that takes a budget, with its other arguments;
# a budgeted entry point added without a row fails the test
BUDGETED = {
    "conway": (T45,),
    "hfk_euler": (T45,),
    "next_to_top_via_skein": (T45,),
    "find_adjacent_square": (T45,),  # rejects the budget only at positive genus
    "enumerate_states": (build_diagram(T34),),
    "bigraded_counts": (build_diagram(T45),),
    "euler_and_top_slice": (build_diagram(T45),),
    "verify": (T45,),
    "verify_all": ([T45, T34],),
}


def test_every_budgeted_entry_point_is_listed():
    found = set()
    for name in braidhfk.__all__:
        value = getattr(braidhfk, name)
        if not callable(value) or inspect.isclass(value) and issubclass(value, Exception):
            continue  # an exception's signature is the builtin one
        if "budget" in inspect.signature(value).parameters:
            found.add(name)
    assert found == set(BUDGETED)


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_a_non_positive_budget_fails_cold_and_warm(name):
    f, args = getattr(braidhfk, name), BUDGETED[name]
    with pytest.raises(ValueError, match="budget must be positive"):
        f(*args, budget=0)
    f(*args)
    with pytest.raises(ValueError, match="budget must be positive"):
        f(*args, budget=0)
