import copy
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from scflogic import core
from scflogic import (
    InvalidDomain,
    LinearOrder,
    Profile,
    Rep,
    ScfModel,
    ScfTable,
    all_linear_orders,
    all_profiles,
    num_states,
    profile_index,
    evaluate,
    eval_kripke,
    kripke_view,
    scf_as_game_form,
    state_atoms,
)
from scflogic.logic import TRUE

from conftest import AB, BA, K2, K3, profile


def test_all_linear_orders_counts():
    assert [o.ranking for o in all_linear_orders(("a",))] == [("a",)]
    assert [o.ranking for o in all_linear_orders(K2)] == [("a", "b"), ("b", "a")]
    orders3 = all_linear_orders(K3)
    assert len(orders3) == 6
    rankings = {o.ranking for o in orders3}
    assert ("a", "c", "b") in rankings and ("c", "a", "b") in rankings


def test_all_linear_orders_lexicographic():
    got = [o.ranking for o in all_linear_orders(K3)]
    assert got == sorted(got, key=lambda r: [K3.index(x) for x in r])


def test_all_linear_orders_rejects_bad_domains():
    with pytest.raises(InvalidDomain):
        all_linear_orders(())
    with pytest.raises(InvalidDomain):
        all_linear_orders(("a", "a"))
    with pytest.raises(InvalidDomain):
        all_linear_orders(("a", "not a token!"))


@pytest.mark.parametrize(
    "n,outcomes,count",
    [(2, K2, 4), (3, K2, 8), (2, K3, 36), (1, ("a",), 1)],
)
def test_all_profiles_counts(n, outcomes, count):
    profiles = all_profiles(n, outcomes)
    assert len(profiles) == count
    assert len(set(profiles)) == count


def test_num_states_formula():
    import math

    for n in (1, 2, 3):
        for k in (1, 2, 3):
            outcomes = K3[:k]
            assert num_states(n, outcomes) == math.factorial(k) ** n


def test_profile_index_roundtrip():
    profiles = all_profiles(2, K3)
    for i, p in enumerate(profiles):
        assert profile_index(p, K3) == i


def test_profile_index_is_mixed_radix():
    orders = all_linear_orders(K3)
    p = Profile((orders[4], orders[1]))
    assert profile_index(p, K3) == 4 * 6 + 1


def test_one_state_numbering_for_every_reader():
    """profile_index is the position in all_profiles at every (n, K), and
    every reader of the numbering rejects a profile that is not a state of
    its (n, K) instead of reading some other state's entry."""
    for n, k in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)):
        outcomes = ("a", "b", "c", "d")[:k]
        for i, p in enumerate(all_profiles(n, outcomes)):
            assert profile_index(p, outcomes) == i
    table = ScfTable(2, K2, ("a", "b", "b", "a"))
    model = ScfModel(table, all_profiles(2, K2)[0])
    km = kripke_view(model)
    readers = {
        "ScfTable.__call__": table,
        "ScfModel.out": model.out,
        "evaluate": lambda p: evaluate(model, p, TRUE),
        "eval_kripke": lambda p: eval_kripke(km, p, TRUE),
    }
    one_agent_too_many = profile(("a", "b"), ("a", "b"), ("b", "a"))
    other_outcomes = profile(("a", "c"), ("c", "a"))
    for name, read in readers.items():
        for state in (one_agent_too_many, other_outcomes):
            with pytest.raises(InvalidDomain):
                read(state)
                pytest.fail(f"{name} read {state}")
    # profile_index numbers the profile's own n; only foreign outcomes fail
    with pytest.raises(InvalidDomain):
        profile_index(other_outcomes, K2)



@pytest.mark.parametrize(
    "n, outcomes",
    [(1, "abcdef"[:k]) for k in range(1, 7)]
    + [(2, "abcd"[:k]) for k in range(1, 5)]
    + [(3, "ab"), (3, "abc"), (4, "ab"), (2, "cab")],
)
def test_states_are_numbered_by_ranking_positions(n, outcomes):
    """The computed numbering is the order of all_profiles, and ranking
    positions and their decoding invert all_linear_orders, for sorted and
    unsorted outcome tuples; a key that is not a ranking is a KeyError."""
    names = tuple(outcomes)
    for i, p in enumerate(all_profiles(n, names)):
        assert profile_index(p, names) == i
    positions = core._positions(names)
    for i, order in enumerate(all_linear_orders(names)):
        assert positions[order.ranking] == i
        assert core._unrank(names, i) == str(order)
    repeat, missing, unknown = names[:1] * 2 + names[2:], names[:-1], names[:-1] + ("z",)
    for bad in (repeat, missing, unknown, names + names[:1]):
        with pytest.raises(KeyError):
            positions[bad]

def test_long_rankings_get_their_plain_lehmer_rank():
    """Over 300 outcome names, a ranking's position is its Lehmer rank as
    a list-deleting loop builds it, on seeded shuffles; the reversed names
    are the last ranking, |K|! - 1."""
    names = tuple(f"o{i}" for i in range(300))
    positions = core._Positions(names)
    rng = random.Random(300)
    for _ in range(20):
        ranking = list(names)
        rng.shuffle(ranking)
        left, rank = list(names), 0
        for name in ranking:
            rank = rank * len(left) + left.index(name)
            left.remove(name)
        assert positions[tuple(ranking)] == rank
    assert positions[names[::-1]] == positions.radix - 1 == math.factorial(300) - 1


def test_state_atoms_examples():
    atoms = state_atoms(profile(("a", "b"), ("a", "b")))
    assert Rep(1, "a", "a") in atoms
    assert Rep(1, "b", "b") in atoms
    assert Rep(1, "a", "b") in atoms
    assert Rep(1, "b", "a") not in atoms
    # transitivity closes the chain a>c, c>b into a>b
    atoms = state_atoms(Profile((LinearOrder(("a", "c", "b")),)))
    assert {Rep(1, "a", "c"), Rep(1, "c", "b"), Rep(1, "a", "b")} <= atoms
    # one outcome: only the reflexive atoms remain
    atoms = state_atoms(Profile((LinearOrder(("a",)), LinearOrder(("a",)))))
    assert atoms == frozenset({Rep(1, "a", "a"), Rep(2, "a", "a")})


def test_state_atoms_bijection_and_axioms():
    seen = {}
    for p in all_profiles(2, K3):
        atoms = state_atoms(p)
        assert atoms not in seen, "state_atoms must be injective"
        seen[atoms] = p
        for agent in (1, 2):
            mine = {(a.left, a.right) for a in atoms if a.agent == agent}
            for x in K3:
                assert (x, x) in mine
                for y in K3:
                    if x != y:
                        assert ((x, y) in mine) != ((y, x) in mine)
                    for z in K3:
                        if (x, y) in mine and (y, z) in mine:
                            assert (x, z) in mine
    assert len(seen) == 36


@given(st.permutations(list(K3)))
def test_linear_order_relation_properties(ranking):
    order = LinearOrder(tuple(ranking))
    for x in K3:
        assert order.at_least_as_good(x, x)
        for y in K3:
            if x != y:
                assert order.at_least_as_good(x, y) != order.at_least_as_good(y, x)
            for z in K3:
                if order.at_least_as_good(x, y) and order.at_least_as_good(y, z):
                    assert order.at_least_as_good(x, z)


def test_scf_as_game_form_h(h_table):
    game = scf_as_game_form(h_table)
    assert game.n == 2
    assert [game.outcome((o1, o2)) for o1 in game.actions[0] for o2 in game.actions[1]] == [
        "a",
        "a",
        "a",
        "b",
    ]
    assert game.outcome((BA, BA)) == "b"


def test_scf_as_game_form_constant(p_table):
    game = scf_as_game_form(p_table)
    assert all(game.outcome(c) == "a" for c in game.action_profiles())


def test_scf_as_game_form_single_cell():
    table = ScfTable.from_function(1, ("a",), lambda p: "a")
    game = scf_as_game_form(table)
    assert list(game.action_profiles()) == [(LinearOrder(("a",)),)]
    assert game.outcome((LinearOrder(("a",)),)) == "a"


def test_scf_table_validation():
    with pytest.raises(InvalidDomain):
        ScfTable(2, K2, ("a", "a", "a"))  # wrong arity
    with pytest.raises(InvalidDomain):
        ScfTable(2, K2, ("a", "a", "a", "z"))  # image outside K


def test_scf_table_length_is_checked_without_building_states(monkeypatch):
    """(3!)^12 states, 10! rankings and (3!)^(10^9) states: the table
    length is compared with a bounded count, built from neither the states
    nor the rankings, and a count too large to compute is written as a
    power."""

    def not_built(*args):
        raise AssertionError("the states or rankings were built")

    monkeypatch.setattr(core, "_profiles", not_built)
    monkeypatch.setattr(core, "_orders", not_built)
    for agents, outcomes, count in [
        (12, K3, "2176782336"),
        (1, tuple("abcdefghij"), "3628800"),
        (10**9, K3, "3!^1000000000"),
    ]:
        with pytest.raises(InvalidDomain, match=rf"needs {re.escape(count)} entries"):
            ScfTable(agents, outcomes, ())


def test_profile_validation():
    with pytest.raises(InvalidDomain):
        Profile((AB, LinearOrder(("a", "c"))))
    with pytest.raises(InvalidDomain):
        profile(("a", "b"), ("a", "b")).order(3)


_LOADED_PROFILE = """
import pickle, sys
from scflogic import all_profiles
loaded, table = pickle.loads(sys.stdin.buffer.read())
fresh = all_profiles(2, ("a", "b", "c"))[7]
print(loaded is not fresh, loaded == fresh, hash(loaded) == hash(fresh), table[fresh], {fresh: "hit"}[loaded])
"""


def test_a_profile_keeps_its_hash_and_never_ships_it():
    """A profile hashes as the dataclass does, by its fields, on the first
    call, and keeps that hash.  Equal profiles built apart hash and compare
    equal.  A copy, and a profile pickled and loaded in a process whose
    string hashes differ, is rebuilt from its orders, so it hashes like a
    fresh profile there and finds its entry in a dict keyed by profiles."""
    p = all_profiles(2, K3)[7]
    apart = Profile(tuple(LinearOrder(tuple(order.ranking)) for order in p.orders))
    assert apart is not p and apart == p and hash(apart) == hash(p) == hash((p.orders,))
    assert vars(p)["_hash"] == hash(p)
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert other is not p and "_hash" not in vars(other)
        assert other == p and hash(other) == hash(p) and {p: "hit"}[other] == "hit"
    src = str(Path(core.__file__).resolve().parents[1])
    shipped = pickle.dumps((p, {p: "entry"}))
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _LOADED_PROFILE],
            input=shipped,
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().split() == ["True", "True", "True", "entry", "hit"]


def test_table_feasible_outcomes(h_table, p_table):
    assert h_table.feasible_outcomes() == {"a", "b"}
    assert p_table.feasible_outcomes() == {"a"}
