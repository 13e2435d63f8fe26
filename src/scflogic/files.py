"""JSON file formats for social choice functions and models.

An SCF file gives the agent count, the outcome names, and one map entry
per profile; rankings are arrays, most-preferred first:

    {"agents": 2,
     "outcomes": ["a", "b"],
     "map": [{"profile": [["a","b"], ["a","b"]], "outcome": "a"}, ...]}

A model file is an SCF file plus "true_preferences", a profile giving the
agents' true rankings.  Loaders reject missing profiles, duplicate
profiles, unknown outcomes and non-permutation rankings, each with its own
message.  A map entry's state index is numbered as `core` numbers states,
one lookup of `core._positions` per ranking, and its outcome goes into
that slot, so no profile is built for it; an entry the lookup misses goes
through the checks that word its error.  A short map is found by
`core._bounded_size` and rejected at its first gap, worded by
`core._unrank`, on one bounded line: no load builds the states or the
rankings, or takes a power of the agent count or the factorial of an
outcome count it has no entry to number with.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .core import (
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfModel,
    ScfTable,
    _bounded_size,
    _check_outcomes,
    _positions,
    _state_index,
    _unrank,
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


_LINE = 1000  # characters in the longest message of a missing profile


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


def _missing(agents: int, outcomes: tuple[str, ...], index: int) -> FileFormatError:
    """The error for a map lacking state `index`, naming its profile as
    `str(Profile)` does, with a run of first rankings too long for one
    line written as a count, and the line clipped to _LINE characters."""
    tail = []  # the rankings of the last agents, from the digits of index
    while index:
        index, digit = divmod(index, _positions(outcomes).radix)
        tail.append(_unrank(outcomes, digit))
    tail.reverse()
    first, lead = _unrank(outcomes, 0), agents - len(tail)
    if lead * (len(first) + 1) <= _LINE:
        text = ",".join([first] * lead + tail)
    else:
        text = f"{first} for agents 1..{lead}"
        if tail:
            text += ", then " + ",".join(tail)
    message = f"missing profile ({text}) in map"
    return FileFormatError(message if len(message) <= _LINE else message[: _LINE - 3] + "...")


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
    positions = _positions(outcomes)
    radix = positions.radix if entries else 0  # no |K|! for an empty map
    values: dict[int, str] = {}
    for k, entry in enumerate(entries):
        try:
            rankings = entry["profile"]
            outcome = entry["outcome"]
            if type(entry) is not dict or type(rankings) is not list or len(rankings) != agents:
                raise LookupError
            index = 0
            for ranking in rankings:
                if type(ranking) is not list:  # tuple("abc") would be a key
                    raise LookupError
                index = index * radix + positions[tuple(ranking)]
        except (LookupError, TypeError):  # a miss, an unhashable name included
            # the checks raise the error an ill-formed entry gets; an entry
            # they pass (a list subclass, say) is numbered from its profile
            if not isinstance(entry, dict) or "profile" not in entry or "outcome" not in entry:
                raise FileFormatError(f"map[{k}]: entry needs 'profile' and 'outcome' fields")
            profile = _profile(entry["profile"], agents, outcomes, f"map[{k}]")
            index, outcome = _state_index(agents, outcomes, profile), entry["outcome"]
        if outcome not in outcomes:
            raise FileFormatError(f"map[{k}]: unknown outcome {outcome!r}")
        if index in values:
            duplicate = _profile(entry["profile"], agents, outcomes, f"map[{k}]")
            raise FileFormatError(f"map[{k}]: duplicate profile {duplicate}")
        values[index] = outcome
    # distinct indices below radix^agents: the map is total unless short,
    # and a short map's first gap is among its first len(values) + 1 states
    if _bounded_size(agents, len(outcomes), len(values))[1] is None:
        gap = next(i for i in range(len(values) + 1) if i not in values)
        raise _missing(agents, outcomes, gap)
    return ScfTable(agents, outcomes, tuple(map(values.__getitem__, range(len(values)))))


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
