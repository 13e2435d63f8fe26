"""Domain types for social choice: outcomes, rankings, profiles, tables, models.

Outcomes are plain name tokens (letters/digits, case-sensitive) and agents are
1-based integers.  A reported preference profile doubles as a *state*: the
states of a model are exactly the profiles over (n, K), in bijection with the
valuations of the reported-preference atoms (`logic.state_atoms`), and
`all_profiles` numbers them for every module.  The numbering is computed,
not stored (`_state_index`, from Lehmer ranks), and `_bounded_size` is the
one bound on state and model counts.  Outcome names are checked where they
enter (the public functions and constructors), not on reads of checked
data.  Everything here is immutable and all functions are pure, so values
can be shared freely.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial
from typing import Callable, Iterable, Mapping, Optional, Sequence

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


class _Positions(dict):
    """Each ranking over `outcomes` looked up so far, as its tuple of names,
    to its position in `all_linear_orders(outcomes)`: its Lehmer rank,
    computed on its first lookup, so the |K|! rankings are never built.  A
    key that is not a ranking over the outcomes is a KeyError.  `radix`,
    the ranking count |K|!, is taken on its first read."""

    def __init__(self, outcomes: tuple[str, ...]):
        super().__init__()
        self.where = {name: i for i, name in enumerate(outcomes)}

    @cached_property
    def radix(self) -> int:
        return factorial(len(self.where))

    def __missing__(self, ranking: tuple) -> int:
        where, size = self.where, len(self.where)
        # a Fenwick tree over positions 1..size counting the ones not yet
        # ranked: node k covers (k - lowbit(k), k], all of them at first
        tree = [k & -k for k in range(size + 1)]
        taken = bytearray(size)
        digits = []  # per name, the unranked positions below its own
        for name in ranking:
            p = where[name]
            if len(digits) == size or taken[p]:  # too long, or a repeat
                raise KeyError(ranking)
            taken[p] = 1
            below, k = 0, p
            while k:
                below += tree[k]
                k &= k - 1
            digits.append(below)
            k = p + 1
            while k <= size:
                tree[k] -= 1
                k += k & -k
        if len(digits) < size:
            raise KeyError(ranking)
        # the mixed-radix number of the digits, digit k in base size - k,
        # folded pairwise as (value, span) so the big products stay balanced
        parts = [(digit, size - k) for k, digit in enumerate(digits)]
        while len(parts) > 1:
            merged = [
                (v1 * s2 + v2, s1 * s2) for (v1, s1), (v2, s2) in zip(parts[::2], parts[1::2])
            ]
            if len(parts) % 2:
                merged.append(parts[-1])
            parts = merged
        rank = parts[0][0] if parts else 0
        self[ranking] = rank
        return rank


@lru_cache(maxsize=None)
def _positions(outcomes: tuple[str, ...]) -> _Positions:
    return _Positions(outcomes)


def _unrank(outcomes: tuple[str, ...], rank: int) -> str:
    """The ranking at position `rank` of `all_linear_orders(outcomes)`, as
    `str(LinearOrder)` writes it, decoded from its Lehmer digits: only the
    tail that the nonzero digits reach is permuted."""
    digits = []
    while rank:
        rank, digit = divmod(rank, len(digits) + 1)
        digits.append(digit)
    head = len(outcomes) - len(digits)
    left = list(outcomes[head:])
    return "[" + ",".join(outcomes[:head] + tuple(left.pop(d) for d in reversed(digits))) + "]"


def _state_index(n: int, outcomes: tuple[str, ...], profile: Profile) -> int:
    """Canonical index of `profile` among the states over an already
    checked (n, K), the mixed-radix number of its rankings' positions with
    agent 1 the most significant digit; InvalidDomain if it is not one."""
    positions = _positions(outcomes)
    radix, index = positions.radix, 0
    try:
        for order in profile.orders:
            index = index * radix + positions[order.ranking]
        if len(profile.orders) == n:
            return index
    except KeyError:
        pass
    raise InvalidDomain(f"{profile} is not a state over n={n}, K={','.join(outcomes)}")


def _bounded_size(n: int, k: int, limit: int) -> tuple[Optional[int], Optional[int]]:
    """(models, states) of the class over n agents and k outcomes, each None
    if above `limit`.  There are k^S * S >= S models over S = (k!)^n >=
    2^((k-1)n) states, and a power of 2 or more exceeds `limit` once its
    exponent reaches the bit length of `limit`, so no larger one is taken."""
    bits = limit.bit_length()
    if (k - 1) * n >= bits or factorial(k) ** n > limit:
        return None, None
    states = factorial(k) ** n
    if k > 1 and states > bits or k**states * states > limit:
        return None, states
    return k**states * states, states


def all_linear_orders(outcomes: Sequence[str]) -> tuple[LinearOrder, ...]:
    """All |K|! rankings over the outcome set, in lexicographic order."""
    return _orders(_check_outcomes(outcomes))


def num_states(n: int, outcomes: Sequence[str]) -> int:
    """(|K|!)^n, the number of profiles (= states) over (n, K)."""
    names = _check_outcomes(outcomes)
    if n < 1:
        raise InvalidDomain(f"need at least one agent, got n={n}")
    return factorial(len(names)) ** n


def all_profiles(n: int, outcomes: Sequence[str]) -> tuple[Profile, ...]:
    """All (|K|!)^n profiles over (n, K), in the one state numbering that
    every module reads: the mixed-radix number of the agents' ranking
    positions, agent 1 the most significant digit."""
    return _profiles(n, _check_outcomes(outcomes))


def profile_index(profile: Profile, outcomes: Sequence[str]) -> int:
    """Position of `profile` in all_profiles(profile.n, K), computed from
    its rankings' positions; InvalidDomain if it ranks other outcomes."""
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
        if self.agents < 1:
            raise InvalidDomain(f"need at least one agent, got n={self.agents}")
        _, states = _bounded_size(self.agents, len(self.outcomes), 10**30)
        if states != len(self.values):
            expected = f"{len(self.outcomes)}!^{self.agents}" if states is None else states
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


def _model(table: ScfTable, truth: Profile) -> ScfModel:
    """The model of `table` and `truth`, a truth its caller knows to be one
    of the table's states, made without `ScfModel`'s check of it."""
    model = object.__new__(ScfModel)
    vars(model).update(table=table, truth=truth)
    return model


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
