import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scflogic import ScfModel, ScfTable, all_profiles, core, files, logic
from scflogic.files import (
    FileFormatError,
    load_model,
    load_scf,
    model_from_dict,
    model_to_dict,
    save_model,
    save_scf,
    scf_from_dict,
    scf_to_dict,
)

from conftest import K2, K3, profile


def test_scf_roundtrip(tmp_path, h_table):
    path = tmp_path / "h.json"
    save_scf(h_table, path)
    assert load_scf(path) == h_table
    assert scf_from_dict(scf_to_dict(h_table)) == h_table


def test_model_roundtrip(tmp_path, majority_table):
    model = ScfModel(majority_table, all_profiles(3, K2)[5])
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path) == model


def _h_dict(h_table):
    return scf_to_dict(h_table)


def test_missing_profile_rejected(h_table):
    data = _h_dict(h_table)
    del data["map"][2]
    with pytest.raises(FileFormatError, match="missing profile"):
        scf_from_dict(data)


def test_duplicate_profile_rejected(h_table):
    data = _h_dict(h_table)
    data["map"][1] = data["map"][0]
    with pytest.raises(FileFormatError, match="duplicate profile"):
        scf_from_dict(data)


def test_unknown_outcome_rejected(h_table):
    data = _h_dict(h_table)
    data["map"][0]["outcome"] = "z"
    with pytest.raises(FileFormatError, match="unknown outcome"):
        scf_from_dict(data)
    data = _h_dict(h_table)
    data["map"][0]["profile"][0] = ["a", "z"]
    with pytest.raises(FileFormatError, match="unknown outcome"):
        scf_from_dict(data)


def test_non_permutation_ranking_rejected(h_table):
    data = _h_dict(h_table)
    data["map"][0]["profile"][0] = ["a", "a"]
    with pytest.raises(FileFormatError, match="non-permutation ranking"):
        scf_from_dict(data)
    data = _h_dict(h_table)
    data["map"][0]["profile"][0] = ["a"]
    with pytest.raises(FileFormatError, match="non-permutation ranking"):
        scf_from_dict(data)


def test_missing_fields_rejected(h_table):
    with pytest.raises(FileFormatError, match="missing field 'outcomes'"):
        scf_from_dict({"agents": 2, "map": []})
    data = _h_dict(h_table)
    with pytest.raises(FileFormatError, match="true_preferences"):
        model_from_dict(data)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load_scf(path)


def test_true_preferences_validated(h_table):
    data = model_to_dict(ScfModel(h_table, profile(("a", "b"), ("a", "b"))))
    data["true_preferences"] = [["a", "b"]]
    with pytest.raises(FileFormatError):
        model_from_dict(data)
    data["true_preferences"] = [["a", "b"], ["b", "b"]]
    with pytest.raises(FileFormatError):
        model_from_dict(data)


@pytest.mark.parametrize(
    "malform, message",
    [
        (lambda d: [d], "top level must be a JSON object"),
        (lambda d: {**d, "agents": 0}, "agents must be a positive integer, got 0"),
        (lambda d: {**d, "agents": True}, "agents must be a positive integer, got True"),
        (lambda d: {**d, "outcomes": "ab"}, "outcomes must be an array of names, got 'ab'"),
        (lambda d: {**d, "outcomes": ["a", "b c"]}, "invalid outcome name: 'b c'"),
        (lambda d: {**d, "map": {}}, "map must be an array of {profile, outcome} entries"),
        (
            lambda d: {**d, "map": [{"profile": [["a", "b"], ["a", "b"]]}]},
            "map[0]: entry needs 'profile' and 'outcome' fields",
        ),
        (
            lambda d: {**d, "map": [{"profile": [["a", "b"], "ab"], "outcome": "a"}]},
            "map[0]: ranking must be an array of outcome names, got 'ab'",
        ),
    ],
)
def test_malformed_scf_rejected(h_table, malform, message):
    with pytest.raises(FileFormatError) as err:
        scf_from_dict(malform(_h_dict(h_table)))
    assert str(err.value) == message


def test_entries_are_checked_before_states_are_built(monkeypatch):
    """A file claiming 12 agents over three outcomes, (3!)^12 states, fails
    on its short first profile, or on the first profile its short map
    lacks, without building the states."""

    def no_states(*args):
        raise AssertionError("the states were built")

    monkeypatch.setattr(core, "_profiles", no_states)
    abc, acb = ("a", "b", "c"), ("a", "c", "b")
    failures = {
        "map[0]: profile must list 12 rankings, got [['a', 'b', 'c'], ['c', 'b', 'a']]": [
            {"profile": [["a", "b", "c"], ["c", "b", "a"]], "outcome": "a"}
        ],
        # an empty map lacks the first state, a map of the first state the second
        f"missing profile {profile(*[abc] * 12)} in map": [],
        f"missing profile {profile(*[abc] * 11, acb)} in map": [
            {"profile": [list(abc)] * 12, "outcome": "a"}
        ],
    }
    for message, entries in failures.items():
        data = {"agents": 12, "outcomes": ["a", "b", "c"], "map": entries}
        with pytest.raises(FileFormatError) as err:
            scf_from_dict(data)
        assert str(err.value) == message


def test_rankings_are_numbered_without_building_them(monkeypatch):
    """A map over 12 outcomes, too short for their 12! rankings, fails on
    its first gap, worded as for any other outcome count, without building
    the rankings (`core`'s ranking positions are tested in test_core)."""

    def no_rankings(*args):
        raise AssertionError("the rankings were built")

    monkeypatch.setattr(core, "_orders", no_rankings)
    names = [f"o{i}" for i in range(12)]
    first, second = names, names[:10] + ["o11", "o10"]
    full, third = f"[{','.join(names)}]", "[o0,o1,o2,o3,o4,o5,o6,o7,o8,o10,o9,o11]"

    def entry(*rankings, outcome="o0"):
        return {"profile": list(rankings), "outcome": outcome}

    failures = {
        f"missing profile ({full},{full}) in map": [],
        f"missing profile ({full},{third}) in map": [
            entry(first, second, outcome="o5"),
            entry(first, first),
        ],
        f"map[1]: duplicate profile ({full},[{','.join(second)}])": [
            entry(first, second),
            entry(first, second),
        ],
        "map[0]: unknown outcome 'x'": [entry(first, first, outcome="x")],
        f"map[0]: non-permutation ranking {first[:11]!r} over outcomes {first!r}": [
            entry(first, first[:11])
        ],
    }
    for message, entries in failures.items():
        with pytest.raises(FileFormatError) as err:
            scf_from_dict({"agents": 2, "outcomes": names, "map": entries})
        assert str(err.value) == message


def test_an_empty_map_over_very_many_outcomes_takes_no_factorial(monkeypatch):
    """An empty map over 10^5 outcome names is refused by k! >= 2^(k-1)
    before |K|! is taken, and its first gap, the identity ranking, is
    worded without permuting any name."""

    def no_factorial(k):
        raise AssertionError(f"{k}! was taken")

    monkeypatch.setattr(core, "factorial", no_factorial)
    names = [f"o{i}" for i in range(10**5)]
    with pytest.raises(FileFormatError) as err:
        scf_from_dict({"agents": 1, "outcomes": names, "map": []})
    assert str(err.value) == f"missing profile ([{','.join(names)}]) in map"[:997] + "..."

def _reference_seconds(names: list[str]) -> float:
    """CPU time of fixed work that grows as n log n in the count of names:
    a dict of the names, a Fenwick-style walk of log n steps per name in
    reverse order, and the product n!."""
    start = time.process_time()
    where = {name: i for i, name in enumerate(names)}
    count = 0
    for name in reversed(names):
        k = where[name] + 1
        while k:
            count += k & 1
            k &= k - 1
    math.factorial(len(names))
    return time.process_time() - start


def test_a_ranking_reversing_very_many_outcomes_is_numbered_in_time():
    """A one-agent map whose one entry reverses 10^5 outcome names fails on
    its first gap, the identity ranking, as any short map does, within 8
    times the CPU time of `_reference_seconds` on the same names, timed
    just before and just after: the entry's rank is counted on a Fenwick
    tree and its digits folded pairwise, about 3.5 times the reference,
    where a multiply per name took about 21 times it.  A bound relative to
    work timed beside it holds when a busy host stretches this process's
    CPU time, which an absolute bound does not.  The cyclic collector
    is paused while it is timed: a full pass over the objects earlier
    tests leave alive costs about 0.35 s wherever it lands."""
    names = [f"o{i}" for i in range(10**5)]
    data = {"agents": 1, "outcomes": names, "map": [{"profile": [names[::-1]], "outcome": "o0"}]}
    core._positions.cache_clear()  # no rank or |K|! left by an earlier test
    try:
        with logic._collector_paused():
            reference = _reference_seconds(names)
            start = time.process_time()
            with pytest.raises(FileFormatError) as err:
                scf_from_dict(data)
            elapsed = time.process_time() - start
            reference = (reference + _reference_seconds(names)) / 2
    finally:
        core._positions.cache_clear()
    assert str(err.value) == f"missing profile ([{','.join(names)}]) in map"[:997] + "..."
    assert elapsed < 8 * reference, (elapsed, reference)


@pytest.mark.parametrize(
    "agents, outcomes",
    [(1, K3), (2, K2), (2, K3), (3, K2), (2, ("a", "b", "c", "d")), (3, K3)],
)
def test_entries_are_numbered_as_all_profiles(agents, outcomes):
    """Entries in any order land at the index `all_profiles` gives their
    profile: a seeded table and agent 1's dictatorship round-trip with the
    map shuffled, and a model file loads as the model built directly."""
    rng = random.Random(agents * 10 + len(outcomes))
    states = all_profiles(agents, outcomes)
    seeded = ScfTable(agents, outcomes, tuple(rng.choice(outcomes) for _ in states))
    dictator = ScfTable.from_function(agents, outcomes, lambda p: p.order(1).top)
    if agents > 1:  # reading agent 1 as the least significant digit would fail
        assert dictator != ScfTable.from_function(agents, outcomes, lambda p: p.order(agents).top)
    for table in (seeded, dictator):
        data = scf_to_dict(table)
        rng.shuffle(data["map"])
        assert scf_from_dict(data) == table
        model = ScfModel(table, rng.choice(states))
        data = model_to_dict(model)
        rng.shuffle(data["map"])
        assert model_from_dict(data) == model


def test_a_loaded_map_builds_no_profile(tmp_path, monkeypatch, majority_table):
    """Map entries are numbered by lookup: loading builds no profile or
    ranking in this module, except the model's one true profile."""
    built = []
    for name in ("Profile", "LinearOrder"):
        cls = getattr(files, name)
        monkeypatch.setattr(files, name, lambda *args, cls=cls: built.append(cls) or cls(*args))
    model = ScfModel(majority_table, all_profiles(3, K2)[5])
    save_model(model, tmp_path / "m.json")
    assert load_scf(tmp_path / "m.json") == majority_table and built == []
    assert load_model(tmp_path / "m.json") == model
    assert built.count(core.Profile) == 1 and built.count(core.LinearOrder) == 3


def _second_ranking(ranking):
    return lambda entries: {**entries[1], "profile": [entries[1]["profile"][0], ranking]}


@pytest.mark.parametrize(
    "index, entry, message",
    [
        # tuple("abc") is a ranking
        (1, _second_ranking("abc"), "map[1]: ranking must be an array of outcome names, got 'abc'"),
        (
            1,
            _second_ranking(("a", "b", "c")),
            "map[1]: ranking must be an array of outcome names, got ('a', 'b', 'c')",
        ),
        (
            1,
            _second_ranking(["a", "b", "a"]),
            "map[1]: non-permutation ranking ['a', 'b', 'a'] over outcomes ['a', 'b', 'c']",
        ),
        (
            1,
            _second_ranking(["a", ["b"], "c"]),  # unhashable
            "map[1]: ranking must be an array of outcome names, got ['a', ['b'], 'c']",
        ),
        (1, lambda entries: ["a"], "map[1]: entry needs 'profile' and 'outcome' fields"),
        (3, lambda entries: entries[1], "map[3]: duplicate profile ([a,b,c],[a,c,b])"),
        (3, lambda entries: {**entries[1], "outcome": "z"}, "map[3]: unknown outcome 'z'"),
    ],
)
def test_entries_the_lookup_misses_keep_their_messages(index, entry, message):
    """Each message as the loader worded it when every entry built its
    profile."""
    entries = scf_to_dict(ScfTable.from_function(2, K3, lambda p: "a"))["map"]
    entries[index] = entry(entries)
    with pytest.raises(FileFormatError) as err:
        scf_from_dict({"agents": 2, "outcomes": list(K3), "map": entries})
    assert str(err.value) == message


def test_a_short_map_is_rejected_on_one_line_however_many_agents(tmp_path):
    """The agent count is compared with the map through bit lengths, and a
    missing profile of more rankings than fit on a line is counted, so a
    file claiming 10^9 agents fails at once with one short line."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"agents": 10**9, "outcomes": list(K3), "map": []}))
    src = str(Path(files.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "scflogic.cli", "property", "--scf", str(path), "citsov"],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stderr == "error: missing profile ([a,b,c] for agents 1..1000000000) in map\n"
    entries = [{"profile": [list(K3)] * 200, "outcome": "a"}]
    with pytest.raises(FileFormatError) as err:
        scf_from_dict({"agents": 200, "outcomes": list(K3), "map": entries})
    assert str(err.value) == "missing profile ([a,b,c] for agents 1..199, then [a,c,b]) in map"
