"""Game-theoretic oracles, independent of the logic layer.

Everything here works by direct enumeration, straight from the definitions:
Nash and dominant strategy equilibrium, (truthful) implementation, strategy-
proofness, monotonicity, citizen sovereignty and dictatorship.  One scan for
a profitable misreport decides `is_strategy_proof` and the `strproof`, `dom`
and `br(i)` oracles; `equivalence_audit` keeps the equilibrium route
(`truthfully_implements`, `implements`) as an independent check, and decides
the encoding through `decision`, imported at call time: the one routine here
that consults the formula evaluator.

The deviation scan and `is_monotonic` work on state indices, in `core`'s
numbering: mixed radix over the |K|! rankings, agent 1 the most
significant digit.  Agent i's deviation to ranking m at state s is the
state s + (m - d) * stride, d being i's digit of s and stride
(|K|!)^(n-i), and outcomes are compared through one {outcome: rank} dict
per ranking; profiles are looked up only to report a failure.
`is_monotonic` compares lower contours as bitmasks, one |K|-bit field per
agent.  Equilibria are decided on states too, for every game form: each
call reads the game's outcomes once into a list in `action_profiles`'
order (mixed radix over the agents' action positions, last agent
fastest).  An agent's dominant actions are the positions whose outcome
has the least rank in every column of that list; they depend only on its
own true ranking, so `implements` and `truthfully_implements` find them
once per (agent, ranking) and call, and read each equilibrium's outcome
by its state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .core import (
    GameForm,
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfTable,
    all_linear_orders,
    scf_as_game_form,
)

if TYPE_CHECKING:
    from .encodings import PropertyId

__all__ = [
    "SolutionConcept",
    "NonDirectMechanism",
    "nash_equilibria",
    "dom_equilibria",
    "solution_set",
    "ImplementationReport",
    "implements",
    "truthfully_implements",
    "is_strategy_proof",
    "MonotonicityReport",
    "is_monotonic",
    "has_citsov",
    "is_dictatorial",
    "property_oracle",
    "AuditReport",
    "equivalence_audit",
]


class SolutionConcept(Enum):
    NE = "ne"
    DOMEQ = "dom"


class NonDirectMechanism(InvalidDomain):
    """Raised when a direct mechanism is required but the action sets are
    not the sets of rankings."""


def _check_truth(game: GameForm, truth: Profile) -> None:
    if truth.n != game.n:
        raise InvalidDomain(f"truth profile has {truth.n} agents, game has {game.n}")
    if set(truth.orders[0].ranking) != set(game.outcomes):
        raise InvalidDomain("truth profile must range over the game's outcomes")


def nash_equilibria(game: GameForm, truth: Profile) -> tuple[tuple, ...]:
    """Action profiles from which no agent can strictly improve by a
    unilateral deviation, under the true preferences.  Canonical order."""
    _check_truth(game, truth)
    found = []
    for combo in game.action_profiles():
        current = game.outcome(combo)
        happy = True
        for agent in range(1, game.n + 1):
            order = truth.order(agent)
            for move in game.actions[agent - 1]:
                swapped = combo[: agent - 1] + (move,) + combo[agent:]
                if order.strictly_better(game.outcome(swapped), current):
                    happy = False
                    break
            if not happy:
                break
        if happy:
            found.append(combo)
    return tuple(found)


def _outcomes(game: GameForm) -> list[str]:
    """The game's outcome at every action profile, in `action_profiles`'
    order: an action profile's state is its actions' positions in mixed
    radix, the last agent's the fastest digit."""
    return [game.outcome(combo) for combo in game.action_profiles()]


def _dominant(game: GameForm, grid: list[str], agent: int, order: LinearOrder) -> list[int]:
    """The positions of the actions of `agent` that are dominant under its
    true `order`, on the outcomes `grid` of `_outcomes`: against every
    profile of the others' actions, the outcome of each kept action has the
    least rank in that column, the states `stride` apart."""
    rank = {outcome: r for r, outcome in enumerate(order.ranking)}
    size = len(game.actions[agent - 1])
    stride = math.prod(len(acts) for acts in game.actions[agent:])
    alive: list[int] = list(range(size))
    for top in range(0, len(grid), size * stride):
        for base in range(top, top + stride):
            column = [rank[value] for value in grid[base : base + size * stride : stride]]
            best = min(column)
            alive = [i for i in alive if column[i] == best]
            if not alive:
                return alive
    return alive


def dom_equilibria(game: GameForm, truth: Profile) -> tuple[tuple, ...]:
    """Action profiles in which every component is a dominant strategy:
    at least as good as any alternative whatever the others play."""
    _check_truth(game, truth)
    grid = _outcomes(game)
    dominant = [
        [acts[i] for i in _dominant(game, grid, agent, order)]
        for (agent, order), acts in zip(enumerate(truth.orders, 1), game.actions)
    ]
    return tuple(itertools.product(*dominant))


def solution_set(game: GameForm, truth: Profile, concept: SolutionConcept) -> tuple[tuple, ...]:
    if concept is SolutionConcept.NE:
        return nash_equilibria(game, truth)
    if concept is SolutionConcept.DOMEQ:
        return dom_equilibria(game, truth)
    raise ValueError(f"unknown solution concept {concept}")


def _solver(
    game: GameForm, grid: list[str], concept: SolutionConcept
) -> Callable[[Profile], list[int]]:
    """`solution_set` of `game` under `concept` as states of `grid`, in the
    same order, for true profiles over the game's agents and outcomes; under
    DOMEQ each (agent, true ranking)'s dominant actions are found once per
    solver, and the equilibria are the states their positions spell."""
    if concept is not SolutionConcept.DOMEQ:
        index = {combo: state for state, combo in enumerate(game.action_profiles())}
        return lambda truth: [index[combo] for combo in solution_set(game, truth, concept)]
    found: dict[tuple[int, LinearOrder], list[int]] = {}

    def solve(truth: Profile) -> list[int]:
        states = [0]
        for key, acts in zip(enumerate(truth.orders, 1), game.actions):
            if key not in found:
                found[key] = _dominant(game, grid, *key)
            states = [state * len(acts) + digit for state in states for digit in found[key]]
        return states

    return solve


@dataclass(frozen=True)
class ImplementationReport:
    """Verdict plus the canonically-first offending pair on failure.

    `failure` is "empty_solution_set" when some game has no equilibrium at
    all, "truth_not_in_solution_set" when (truthful implementation only)
    the game has equilibria but the truthful report is not one of them, or
    "wrong_outcome" when an equilibrium's outcome disagrees with the
    choice function.
    """

    ok: bool
    failure: Optional[str] = None
    profile: Optional[Profile] = None
    action_profile: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def implements(game: GameForm, table: ScfTable, concept: SolutionConcept) -> ImplementationReport:
    """Whether the game form implements the SCF under the solution concept:
    every preference profile yields a non-empty solution set, all of whose
    outcomes match the function."""
    if game.n != table.agents or set(game.outcomes) != set(table.outcomes):
        raise InvalidDomain("game form and SCF must share agents and outcomes")
    grid = _outcomes(game)
    solve = _solver(game, grid, concept)
    for profile, target in zip(table.profiles, table.values):
        states = solve(profile)
        if not states:
            return ImplementationReport(False, "empty_solution_set", profile, None)
        for state in states:
            if grid[state] != target:
                combo = next(itertools.islice(game.action_profiles(), state, None))
                return ImplementationReport(False, "wrong_outcome", profile, combo)
    return ImplementationReport(True)


def _require_direct(game: GameForm, outcomes: tuple[str, ...]) -> None:
    orders = set(all_linear_orders(outcomes))
    for acts in game.actions:
        if set(acts) != orders:
            raise NonDirectMechanism(
                "truthful implementation needs a direct mechanism"
                " (every action set must be the set of rankings)"
            )


def truthfully_implements(
    game: GameForm, table: ScfTable, concept: SolutionConcept
) -> ImplementationReport:
    """Whether reporting the true profile is always in the solution set and
    yields the prescribed outcome.  Requires a direct mechanism."""
    if game.n != table.agents or set(game.outcomes) != set(table.outcomes):
        raise InvalidDomain("game form and SCF must share agents and outcomes")
    _require_direct(game, table.outcomes)
    grid = _outcomes(game)
    solve = _solver(game, grid, concept)
    places = [{act: digit for digit, act in enumerate(acts)} for acts in game.actions]
    for profile, target in zip(table.profiles, table.values):
        sincere, state = profile.orders, 0
        for order, place in zip(sincere, places):
            state = state * len(place) + place[order]
        states = solve(profile)
        if state not in states:
            failure = "truth_not_in_solution_set" if states else "empty_solution_set"
            return ImplementationReport(False, failure, profile, sincere)
        if grid[state] != target:
            return ImplementationReport(False, "wrong_outcome", profile, sincere)
    return ImplementationReport(True)


def _first_gain(table: ScfTable, agents: Iterable[int], by_truth: bool):
    """The first (agent, ranking, state, misreport) at which `agent` gains by
    `ranking` from changing its report at `state` alone, or None; `ranking` is
    that report or, `by_truth`, each of the |K|! true rankings in turn."""
    moves = all_linear_orders(table.outcomes)
    ranks = [{outcome: r for r, outcome in enumerate(move.ranking)} for move in moves]
    width, n, values = len(moves), table.agents, table.values
    for agent in agents:
        if not 1 <= agent <= n:
            raise InvalidDomain(f"agent {agent} out of range 1..{n}")
        stride = width ** (n - agent)
        for truth in range(width) if by_truth else (None,):
            for state, value in enumerate(values):
                digit = state // stride % width
                held = digit if truth is None else truth
                rank = ranks[held]
                mine = rank[value]
                base = state - digit * stride
                for move in range(width):
                    if rank[values[base + move * stride]] < mine:
                        return agent, moves[held], table.profiles[state], moves[move]
    return None


def is_strategy_proof(table: ScfTable) -> bool:
    """No agent gains, by its own report, from changing that report alone
    (the deviation scan; `equivalence_audit` keeps the equilibrium route)."""
    return _first_gain(table, range(1, table.agents + 1), by_truth=False) is None


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    profile: Optional[Profile] = None
    profile_after: Optional[Profile] = None
    outcome: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def is_monotonic(table: ScfTable) -> MonotonicityReport:
    """Scan all profile pairs: if the chosen outcome keeps or improves its
    standing in every agent's report, it must stay chosen.  Per outcome x,
    built the first time x is chosen, each state's lower contour of x (the
    outcomes each agent ranks x at least as good as) is a bitmask; x rises
    from `before` to `after` iff the mask of `after` covers that of `before`."""
    outcomes, values = table.outcomes, table.values
    width = len(outcomes)
    bit = {outcome: 1 << i for i, outcome in enumerate(outcomes)}
    contours: dict[str, tuple[list[int], list[tuple[int, int]]]] = {}

    def contour(x: str) -> tuple[list[int], list[tuple[int, int]]]:
        below = []  # per ranking, the outcomes x is at least as good as
        for move in all_linear_orders(outcomes):
            ranking = move.ranking
            below.append(sum(bit[y] for y in ranking[ranking.index(x) :]))
        masks = [0]
        for _ in range(table.agents):
            masks = [mask << width | part for mask in masks for part in below]
        rivals = [(after, masks[after]) for after, value in enumerate(values) if value != x]
        return masks, rivals

    for before, x in enumerate(values):
        if x not in contours:
            contours[x] = contour(x)
        masks, rivals = contours[x]
        need = masks[before]
        for after, mask in rivals:
            if need & ~mask == 0:
                return MonotonicityReport(False, table.profiles[before], table.profiles[after], x)
    return MonotonicityReport(True)


def has_citsov(table: ScfTable) -> bool:
    """Citizen sovereignty: every outcome is attained at some profile."""
    return table.feasible_outcomes() == frozenset(table.outcomes)


def is_dictatorial(table: ScfTable) -> tuple[bool, Optional[int]]:
    """Whether some agent's reported top always wins; returns the first
    such agent if any."""
    for agent in range(1, table.agents + 1):
        if all(value == p.order(agent).top for p, value in zip(table.profiles, table.values)):
            return True, agent
    return False, None


def property_oracle(table: ScfTable, prop: PropertyId) -> tuple[bool, str]:
    """Game-theoretic verdict on a named SCF property, straight from its
    definition (dom is br(i) for every i), plus a failure explanation ("" when it holds)."""
    if prop.kind == "citsov":
        if has_citsov(table):
            return True, ""
        missing = sorted(set(table.outcomes) - table.feasible_outcomes())
        return False, f"outcome {', '.join(missing)} unreachable"
    if prop.kind == "nodict":
        dictatorial, agent = is_dictatorial(table)
        return not dictatorial, f"dictator {agent}" if dictatorial else ""
    if prop.kind == "mon":
        report = is_monotonic(table)
        if report.ok:
            return True, ""
        return False, (
            f"outcome {report.outcome} chosen at {report.profile} but dropped at"
            f" {report.profile_after}"
        )
    if prop.kind not in ("strproof", "dom", "br"):
        raise InvalidDomain(f"no oracle for property {prop}")
    agents = (prop.agent,) if prop.kind == "br" else range(1, table.agents + 1)
    gain = _first_gain(table, agents, by_truth=prop.kind != "strproof")
    if gain is None:
        return True, ""
    agent, ranking, state, move = gain
    return False, f"agent {agent} with true ranking {ranking} gains by reporting {move} at {state}"


@dataclass(frozen=True)
class AuditReport:
    """Cross-check of the four equivalent routes to strategy-proofness:
    truthful dominant-strategy implementation, dominant-strategy
    implementation, monotonicity, and the logical encoding."""

    truthful_dom: bool
    dom_implement: bool
    monotonic: bool
    strproof_encoding: bool

    @property
    def truthful_vs_implement(self) -> bool:
        return self.truthful_dom == self.dom_implement

    @property
    def monotonic_vs_truthful(self) -> bool:
        return self.monotonic == self.truthful_dom

    @property
    def encoding_vs_truthful(self) -> bool:
        return self.strproof_encoding == self.truthful_dom

    @property
    def all_agree(self) -> bool:
        return self.truthful_vs_implement and self.monotonic_vs_truthful and self.encoding_vs_truthful


def equivalence_audit(table: ScfTable) -> AuditReport:
    from .decision import check_scf_property
    from .encodings import STRPROOF

    # the encoding first: a check past its budget is refused before the oracles run
    encoding = check_scf_property(table, STRPROOF).status == "valid"
    direct = scf_as_game_form(table)
    return AuditReport(
        truthful_dom=truthfully_implements(direct, table, SolutionConcept.DOMEQ).ok,
        dom_implement=implements(direct, table, SolutionConcept.DOMEQ).ok,
        monotonic=is_monotonic(table).ok,
        strproof_encoding=encoding,
    )
