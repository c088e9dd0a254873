"""The resource guard table: one case per row of ``nbhd.errors.GUARDS``.

Each case asks for exactly the row's limit, which passes, and for the next
amount up, which raises ``ResourceLimitError`` with the row's name, the
limit, the amount asked for and the message the guard has always given.
"""

import pytest

from nbhd import (
    AgentModel, B2, Group, NeighbourhoodMap, ResourceLimitError, SearchBounds,
    World, check_schema_semantically, exhaustive_models, group_families,
    is_propositional_tautology, parse,
)
from nbhd.errors import GUARDS, limit


def _model(size, families):
    """A model over ``size`` worlds in which agent ``a`` has the family
    ``families[a]`` at every world."""
    worlds = tuple(World(i, f"w{i}") for i in range(size))
    return AgentModel(worlds, {}, {a: NeighbourhoodMap(size, [fam] * size)
                                   for a, fam in enumerate(families)})


def _derive(members, size, sizes):
    """Derive, on a fresh model, the group of ``members`` where agent
    ``a`` has ``sizes[a]`` distinct sets at each of ``size`` worlds."""
    fams = [frozenset(range(k)) for k in sizes]
    return lambda: group_families(_model(size, fams), Group(tuple(members)))


def _schema_over(size):
    return lambda: check_schema_semantically(_model(size, [frozenset()]), B2,
                                             group_pool=(Group.of(0),))


def _tautology(units):
    f = parse(" | ".join(f"a{i}" for i in range(units)))
    return lambda: is_propositional_tautology(f)


def _bounds(**kw):
    return lambda: SearchBounds(**kw)


def _enumerate(**kw):
    return lambda: list(exhaustive_models(SearchBounds(mode="exhaustive",
                                                       **kw)))


# name: (NBHD_MAX_STATES, call at the limit, call one past it, the amount
# that call asks for, and the guard's message for it)
CASES = {
    "group-size": (
        None, _derive(range(8), 1, [1] * 9), _derive(range(9), 1, [1] * 9),
        9, "group 0,1,2,3,4,5,6,7,8 exceeds the size-8 derivation guard"),
    "product": (
        None, _derive((0, 1, 2), 7, [100] * 3),
        _derive((0, 1), 14, [101, 9901]),
        1_000_001, "group 0,1 needs 1000001 intersections at world w0, over "
        "the 1000000 guard"),
    "subsets": (
        None, _schema_over(6), _schema_over(7),
        128, "all-subsets mode over 7 worlds needs 128 sets, over the "
        "64-state guard; use definable-only mode"),
    "units": (
        None, _tautology(20), _tautology(21),
        21, "tautology check over 21 units exceeds the 20-unit guard"),
    "random-worlds": (
        None, _bounds(max_worlds=6, agents=(1,), seed=1),
        _bounds(max_worlds=7, agents=(1,), seed=1),
        7, "random generation supports at most 6 worlds"),
    "exhaustive-size": (
        None, _bounds(max_worlds=2, agents=(1, 2), atoms=("p", "q"),
                      mode="exhaustive"),
        _bounds(max_worlds=2, agents=(1, 2, 3), atoms=("p", "q"),
                mode="exhaustive"),
        3, "exhaustive mode is guarded to at most 2 worlds, 2 agents and "
        "2 atoms"),
    # the built-in cap is the largest space, so no search can pass it
    # unless NBHD_MAX_STATES lowers it; one world, two agents and two
    # atoms make 4 * 16 = 64 candidates
    "visits": (
        "64", _enumerate(max_worlds=1, agents=(1, 2), atoms=("p", "q")),
        _enumerate(max_worlds=2, agents=(1,)),
        65, "exhaustive search visited more than 64 models (NBHD_MAX_STATES)"),
}

LOWERABLE = [name for name, (_, lowerable, _) in GUARDS.items() if lowerable]
FIXED = [name for name in GUARDS if name not in LOWERABLE]


def test_every_row_has_a_case():
    assert set(CASES) == set(GUARDS)
    assert LOWERABLE == ["product", "subsets", "visits"]


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_passes_at_its_limit_and_fires_one_past(monkeypatch, name):
    env, at_limit, past_limit, requested, message = CASES[name]
    if env is None:
        monkeypatch.delenv("NBHD_MAX_STATES", raising=False)
    else:
        monkeypatch.setenv("NBHD_MAX_STATES", env)
    at_limit()
    with pytest.raises(ResourceLimitError) as exc:
        past_limit()
    err = exc.value
    assert str(err) == message
    assert (err.guard, err.limit, err.requested) == (
        name, limit(name), requested)
    if env is None:
        assert err.limit == GUARDS[name][0]


def test_visit_cap_is_the_largest_exhaustive_space(monkeypatch):
    monkeypatch.delenv("NBHD_MAX_STATES", raising=False)
    # 2 agents and 2 atoms over 1 world (4 * 4^2) and over 2 worlds
    # (16 * 16^4)
    assert limit("visits") == 4 * 4 ** 2 + 16 * 16 ** 4 == 1_048_640


@pytest.mark.parametrize("name", list(GUARDS))
def test_max_states_lowers_only_the_rows_that_say_so(monkeypatch, name):
    env, at_limit, _, _, _ = CASES[name]
    built_in = GUARDS[name][0]
    monkeypatch.setenv("NBHD_MAX_STATES", str(10 * built_in))
    assert limit(name) == built_in  # clamped, never widened
    monkeypatch.setenv("NBHD_MAX_STATES", "1")
    if name in FIXED:
        assert limit(name) == built_in
        at_limit()
        return
    assert limit(name) == 1
    with pytest.raises(ResourceLimitError) as exc:
        at_limit()
    assert (exc.value.guard, exc.value.limit) == (name, 1)


@pytest.mark.parametrize("bad", ["lots", "0", "-5", "1.5", " "])
@pytest.mark.parametrize("name", LOWERABLE)
def test_bad_max_states_fails_alike_in_every_lowerable_row(monkeypatch, name,
                                                            bad):
    monkeypatch.setenv("NBHD_MAX_STATES", bad)
    with pytest.raises(ResourceLimitError) as exc:
        CASES[name][1]()
    err = exc.value
    assert str(err) == f"NBHD_MAX_STATES={bad!r} is not a positive integer"
    assert (err.guard, err.limit, err.requested) == (
        name, GUARDS[name][0], None)


@pytest.mark.parametrize("name", FIXED)
def test_fixed_rows_do_not_read_max_states(monkeypatch, name):
    monkeypatch.setenv("NBHD_MAX_STATES", "lots")
    assert limit(name) == GUARDS[name][0]
