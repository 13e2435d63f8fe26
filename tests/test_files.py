import json

import pytest

from scflogic import ScfModel, all_profiles, files
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

from conftest import K2, profile


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

    monkeypatch.setattr(files, "_profiles", no_states)
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
