"""Domain types for social choice: outcomes, rankings, profiles, tables, models.

Outcomes are plain name tokens (letters/digits, case-sensitive) and agents are
1-based integers.  A reported preference profile doubles as a *state*: the
states of a model are exactly the profiles over (n, K), in bijection with the
valuations of the reported-preference atoms (`logic.state_atoms`), and
`all_profiles` numbers them for every module.  Outcome names are checked
where they enter (the public functions and constructors), not on reads of
checked data.  Everything here is immutable and all functions are pure, so
values can be shared freely.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "InvalidDomain",
    "LinearOrder",
    "Profile",
    "ScfTable",
    "ScfModel",
    "GameForm",
    "all_linear_orders",
    "all_profiles",
    "profile_index",
    "num_states",
    "scf_as_game_form",
]

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+\Z")


class InvalidDomain(ValueError):
    """Raised when an agent/outcome domain is empty, malformed or mismatched,
    and when a formula mentions an agent, outcome or coalition outside one."""


def _check_outcomes(outcomes: Sequence[str]) -> tuple[str, ...]:
    names = tuple(outcomes)
    if not names:
        raise InvalidDomain("outcome set must be non-empty")
    for name in names:
        if not isinstance(name, str) or not _TOKEN_RE.match(name):
            raise InvalidDomain(f"invalid outcome name: {name!r}")
    if len(set(names)) != len(names):
        raise InvalidDomain(f"duplicate outcome names in {names}")
    return names


@dataclass(frozen=True)
class LinearOrder:
    """A strict ranking of outcomes, most-preferred first.

    The derived relation ``at_least_as_good`` is reflexive, transitive,
    antisymmetric and total over the outcomes of the ranking.
    """

    ranking: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if not self.ranking:
            raise InvalidDomain("ranking must be non-empty")
        if len(set(self.ranking)) != len(self.ranking):
            raise InvalidDomain(f"ranking repeats an outcome: {self.ranking}")

    @property
    def top(self) -> str:
        return self.ranking[0]

    def rank(self, outcome: str) -> int:
        """Position of ``outcome`` in the ranking; 0 is most preferred."""
        try:
            return self.ranking.index(outcome)
        except ValueError:
            raise InvalidDomain(f"outcome {outcome!r} not in ranking {self.ranking}") from None

    def at_least_as_good(self, x: str, y: str) -> bool:
        """True iff x is ranked at least as high as y (reflexive)."""
        return self.rank(x) <= self.rank(y)

    def strictly_better(self, x: str, y: str) -> bool:
        return self.rank(x) < self.rank(y)

    def __str__(self) -> str:
        return "[" + ",".join(self.ranking) + "]"


@dataclass(frozen=True)
class Profile:
    """One linear order per agent, indexed 1..n.  Also serves as a state."""

    orders: tuple[LinearOrder, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(self.orders))
        if not self.orders:
            raise InvalidDomain("profile must contain at least one agent")
        base = set(self.orders[0].ranking)
        for order in self.orders:
            if set(order.ranking) != base:
                raise InvalidDomain("all orders in a profile must range over the same outcomes")

    @property
    def n(self) -> int:
        return len(self.orders)

    def order(self, agent: int) -> LinearOrder:
        if not 1 <= agent <= self.n:
            raise InvalidDomain(f"agent {agent} out of range 1..{self.n}")
        return self.orders[agent - 1]

    def replace(self, agent: int, order: LinearOrder) -> "Profile":
        """Profile with agent's order swapped (a unilateral deviation)."""
        self.order(agent)
        parts = list(self.orders)
        parts[agent - 1] = order
        return Profile(tuple(parts))

    def __str__(self) -> str:
        return "(" + ",".join(str(o) for o in self.orders) + ")"


@lru_cache(maxsize=None)
def _orders(outcomes: tuple[str, ...]) -> tuple[LinearOrder, ...]:
    return tuple(LinearOrder(perm) for perm in itertools.permutations(outcomes))


@lru_cache(maxsize=None)
def _profiles(n: int, outcomes: tuple[str, ...]) -> tuple[Profile, ...]:
    if n < 1:
        raise InvalidDomain(f"need at least one agent, got n={n}")
    return tuple(Profile(combo) for combo in itertools.product(_orders(outcomes), repeat=n))


@lru_cache(maxsize=None)
def _indices(n: int, outcomes: tuple[str, ...]) -> dict[Profile, int]:
    return {p: i for i, p in enumerate(_profiles(n, outcomes))}


def _state_index(n: int, outcomes: tuple[str, ...], profile: Profile) -> int:
    """Canonical index of `profile` among the states over an already
    checked (n, K); InvalidDomain if it is not one of them."""
    index = _indices(n, outcomes).get(profile)
    if index is None:
        raise InvalidDomain(f"{profile} is not a state over n={n}, K={','.join(outcomes)}")
    return index


def all_linear_orders(outcomes: Sequence[str]) -> tuple[LinearOrder, ...]:
    """All |K|! rankings over the outcome set, in lexicographic order."""
    return _orders(_check_outcomes(outcomes))


def _num_states(n: int, outcomes: tuple[str, ...]) -> int:
    if n < 1:
        raise InvalidDomain(f"need at least one agent, got n={n}")
    return len(_orders(outcomes)) ** n


def num_states(n: int, outcomes: Sequence[str]) -> int:
    """(|K|!)^n, the number of profiles (= states) over (n, K)."""
    return _num_states(n, _check_outcomes(outcomes))


def all_profiles(n: int, outcomes: Sequence[str]) -> tuple[Profile, ...]:
    """All (|K|!)^n profiles over (n, K), in the one state numbering that
    every module reads, through one cached profile-to-position map: the
    mixed-radix index over per-agent ranking indices, agent 1 first."""
    return _profiles(n, _check_outcomes(outcomes))


def profile_index(profile: Profile, outcomes: Sequence[str]) -> int:
    """Position of `profile` in all_profiles(profile.n, K), from the map
    every module reads; InvalidDomain if it ranks other outcomes."""
    return _state_index(profile.n, _check_outcomes(outcomes), profile)


@dataclass(frozen=True)
class ScfTable:
    """A social choice function as a total map from profiles to outcomes.

    ``values`` stores one outcome per canonical profile index.
    """

    agents: int
    outcomes: tuple[str, ...]
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", _check_outcomes(self.outcomes))
        object.__setattr__(self, "values", tuple(self.values))
        expected = _num_states(self.agents, self.outcomes)
        if len(self.values) != expected:
            raise InvalidDomain(
                f"SCF table needs {expected} entries for (n={self.agents}, K={self.outcomes}),"
                f" got {len(self.values)}"
            )
        for value in self.values:
            if value not in self.outcomes:
                raise InvalidDomain(f"SCF value {value!r} is not in {self.outcomes}")

    @classmethod
    def from_function(
        cls, agents: int, outcomes: Sequence[str], fn: Callable[[Profile], str]
    ) -> "ScfTable":
        names = _check_outcomes(outcomes)
        return cls(agents, names, tuple(map(fn, _profiles(agents, names))))

    def __call__(self, profile: Profile) -> str:
        return self.values[_state_index(self.agents, self.outcomes, profile)]

    @property
    def profiles(self) -> tuple[Profile, ...]:
        return _profiles(self.agents, self.outcomes)

    def feasible_outcomes(self) -> frozenset[str]:
        """Outcomes actually attained by the function."""
        return frozenset(self.values)


@dataclass(frozen=True)
class ScfModel:
    """A model of social choice: an outcome function over states plus the
    true preference profile of the agents."""

    table: ScfTable
    truth: Profile

    def __post_init__(self) -> None:
        # the true profile must be a state over the table's (n, K)
        _state_index(self.table.agents, self.table.outcomes, self.truth)

    @property
    def n(self) -> int:
        return self.table.agents

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.table.outcomes

    @property
    def states(self) -> tuple[Profile, ...]:
        return self.table.profiles

    def out(self, state: Profile) -> str:
        return self.table(state)

    def true_order(self, agent: int) -> LinearOrder:
        return self.truth.order(agent)


@dataclass(frozen=True, eq=False)
class GameForm:
    """A strategic game form: per-agent action sets and a total outcome map."""

    actions: tuple[tuple[object, ...], ...]
    outcomes: tuple[str, ...]
    table: Mapping[tuple, str] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(tuple(acts) for acts in self.actions))
        object.__setattr__(self, "outcomes", _check_outcomes(self.outcomes))
        if not self.actions or any(not acts for acts in self.actions):
            raise InvalidDomain("every agent needs a non-empty action set")
        for combo in itertools.product(*self.actions):
            value = self.table.get(combo)
            if value is None:
                raise InvalidDomain(f"outcome function undefined on action profile {combo}")
            if value not in self.outcomes:
                raise InvalidDomain(f"outcome {value!r} is not in {self.outcomes}")

    @property
    def n(self) -> int:
        return len(self.actions)

    def action_profiles(self) -> Iterable[tuple]:
        return itertools.product(*self.actions)

    def outcome(self, action_profile: tuple) -> str:
        return self.table[action_profile]


def scf_as_game_form(table: ScfTable) -> GameForm:
    """The direct mechanism induced by an SCF: every agent's action set is
    the set of rankings, and the outcome function is the SCF itself."""
    orders = _orders(table.outcomes)
    mapping = {p.orders: value for p, value in zip(table.profiles, table.values)}
    return GameForm(
        actions=tuple(orders for _ in range(table.agents)),
        outcomes=table.outcomes,
        table=mapping,
    )
