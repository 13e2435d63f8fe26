"""JSON file formats for social choice functions and models.

An SCF file gives the agent count, the outcome names, and one map entry
per profile; rankings are arrays, most-preferred first:

    {"agents": 2,
     "outcomes": ["a", "b"],
     "map": [{"profile": [["a","b"], ["a","b"]], "outcome": "a"}, ...]}

A model file is an SCF file plus "true_preferences", a profile giving the
agents' true rankings.  Loaders reject missing profiles, duplicate
profiles, unknown outcomes and non-permutation rankings, each with its own
message; a map short of profiles is rejected without building the states.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Union

from .core import (
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfModel,
    ScfTable,
    _check_outcomes,
    _num_states,
    _orders,
    _profiles,
)

__all__ = [
    "FileFormatError",
    "scf_from_dict",
    "scf_to_dict",
    "model_from_dict",
    "model_to_dict",
    "load_scf",
    "load_model",
    "save_scf",
    "save_model",
]


class FileFormatError(ValueError):
    """A file fails the schema or its domain invariants."""


def _ranking(entry: object, outcomes: tuple[str, ...], what: str) -> LinearOrder:
    if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
        raise FileFormatError(f"{what}: ranking must be an array of outcome names, got {entry!r}")
    for name in entry:
        if name not in outcomes:
            raise FileFormatError(f"{what}: unknown outcome {name!r} (outcomes: {list(outcomes)})")
    if sorted(entry) != sorted(outcomes):
        raise FileFormatError(
            f"{what}: non-permutation ranking {entry!r} over outcomes {list(outcomes)}"
        )
    return LinearOrder(tuple(entry))


def _profile(entry: object, agents: int, outcomes: tuple[str, ...], what: str) -> Profile:
    if not isinstance(entry, list) or len(entry) != agents:
        raise FileFormatError(f"{what}: profile must list {agents} rankings, got {entry!r}")
    return Profile(tuple(_ranking(r, outcomes, what) for r in entry))


def scf_from_dict(data: object) -> ScfTable:
    if not isinstance(data, dict):
        raise FileFormatError("top level must be a JSON object")
    try:
        agents = data["agents"]
        outcome_list = data["outcomes"]
        entries = data["map"]
    except KeyError as exc:
        raise FileFormatError(f"missing field {exc.args[0]!r}") from None
    if type(agents) is not int or agents < 1:  # bool is an int subclass
        raise FileFormatError(f"agents must be a positive integer, got {agents!r}")
    if not isinstance(outcome_list, list) or not all(isinstance(x, str) for x in outcome_list):
        raise FileFormatError(f"outcomes must be an array of names, got {outcome_list!r}")
    try:
        outcomes = _check_outcomes(outcome_list)
    except InvalidDomain as exc:
        raise FileFormatError(str(exc)) from None
    if not isinstance(entries, list):
        raise FileFormatError("map must be an array of {profile, outcome} entries")
    mapping: dict[Profile, str] = {}
    for k, entry in enumerate(entries):
        what = f"map[{k}]"
        if not isinstance(entry, dict) or "profile" not in entry or "outcome" not in entry:
            raise FileFormatError(f"{what}: entry needs 'profile' and 'outcome' fields")
        profile = _profile(entry["profile"], agents, outcomes, what)
        outcome = entry["outcome"]
        if outcome not in outcomes:
            raise FileFormatError(f"{what}: unknown outcome {outcome!r}")
        if profile in mapping:
            raise FileFormatError(f"{what}: duplicate profile {profile}")
        mapping[profile] = outcome
    # states are built only once every entry is checked, and a short map
    # only up to its first gap, which is among its first len(mapping) + 1
    if len(mapping) < _num_states(agents, outcomes):
        for gap in map(Profile, itertools.product(_orders(outcomes), repeat=agents)):
            if gap not in mapping:
                raise FileFormatError(f"missing profile {gap} in map")
    return ScfTable(agents, outcomes, tuple(mapping[p] for p in _profiles(agents, outcomes)))


def model_from_dict(data: object) -> ScfModel:
    table = scf_from_dict(data)
    assert isinstance(data, dict)
    if "true_preferences" not in data:
        raise FileFormatError("missing field 'true_preferences'")
    truth = _profile(data["true_preferences"], table.agents, table.outcomes, "true_preferences")
    return ScfModel(table, truth)


def scf_to_dict(table: ScfTable) -> dict:
    return {
        "agents": table.agents,
        "outcomes": list(table.outcomes),
        "map": [
            {"profile": [list(o.ranking) for o in p.orders], "outcome": value}
            for p, value in zip(table.profiles, table.values)
        ],
    }


def model_to_dict(model: ScfModel) -> dict:
    data = scf_to_dict(model.table)
    data["true_preferences"] = [list(o.ranking) for o in model.truth.orders]
    return data


def load_scf(path: Union[str, Path]) -> ScfTable:
    return scf_from_dict(_read_json(path))


def load_model(path: Union[str, Path]) -> ScfModel:
    return model_from_dict(_read_json(path))


def _read_json(path: Union[str, Path]) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from None


def save_scf(table: ScfTable, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(scf_to_dict(table), indent=2) + "\n", encoding="utf-8")


def save_model(model: ScfModel, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n", encoding="utf-8")
