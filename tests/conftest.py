"""Shared fixtures: the small worked social choice functions and helpers."""

from __future__ import annotations

import random

import pytest

from scflogic import (
    GameForm,
    LinearOrder,
    Profile,
    ScfModel,
    ScfTable,
    all_linear_orders,
    all_profiles,
)
from scflogic.logic import TRUE, Diamond, Formula, Not, Or, Out, Pref, Rep

K2 = ("a", "b")
K3 = ("a", "b", "c")

AB = LinearOrder(("a", "b"))
BA = LinearOrder(("b", "a"))


@pytest.fixture(scope="session")
def h_table() -> ScfTable:
    """b exactly when both agents report b first; otherwise a."""
    return ScfTable.from_function(
        2, K2, lambda p: "b" if all(o.top == "b" for o in p.orders) else "a"
    )


@pytest.fixture(scope="session")
def j_table() -> ScfTable:
    """Dictatorship of agent 1."""
    return ScfTable.from_function(2, K2, lambda p: p.order(1).top)


@pytest.fixture(scope="session")
def p_table() -> ScfTable:
    """Constant a."""
    return ScfTable.from_function(2, K2, lambda p: "a")


@pytest.fixture(scope="session")
def majority_table() -> ScfTable:
    """Three agents, two outcomes: the reported majority wins."""
    return ScfTable.from_function(
        3, K2, lambda p: "a" if sum(o.top == "a" for o in p.orders) >= 2 else "b"
    )


@pytest.fixture(scope="session")
def inverting_table() -> ScfTable:
    """Agent 1's second-ranked outcome wins; a classic manipulable rule."""
    return ScfTable.from_function(2, K2, lambda p: p.order(1).ranking[1])


@pytest.fixture(scope="session")
def g_j_minus(j_table) -> GameForm:
    """The dictatorship game form with agent 1's outcomes inverted."""
    orders = all_linear_orders(K2)
    flip = {"a": "b", "b": "a"}
    return GameForm(
        actions=(orders, orders),
        outcomes=K2,
        table={(o1, o2): flip[o1.top] for o1 in orders for o2 in orders},
    )


@pytest.fixture(scope="session")
def g_p_matrix() -> GameForm:
    """Direct mechanism whose every cell is b (checked against constant-a P)."""
    orders = all_linear_orders(K2)
    return GameForm(
        actions=(orders, orders),
        outcomes=K2,
        table={(o1, o2): "b" for o1 in orders for o2 in orders},
    )


def profile(*rankings: tuple[str, ...]) -> Profile:
    return Profile(tuple(LinearOrder(r) for r in rankings))


def make_formula_sampler(n: int, outcomes: tuple[str, ...], seed: int):
    """Deterministic random core-grammar formula generator."""
    rng = random.Random(seed)

    def sample(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.3:
            kind = rng.randrange(3)
            if kind == 0:
                return TRUE
            if kind == 1:
                return Rep(rng.randint(1, n), rng.choice(outcomes), rng.choice(outcomes))
            return Out(rng.choice(outcomes))
        kind = rng.randrange(4)
        if kind == 0:
            return Not(sample(depth - 1))
        if kind == 1:
            return Or(sample(depth - 1), sample(depth - 1))
        if kind == 2:
            coalition = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
            return Diamond(coalition, sample(depth - 1))
        return Pref(rng.randint(1, n), sample(depth - 1))

    def draw(count: int, max_depth: int = 8) -> list[Formula]:
        return [sample(rng.randint(0, max_depth)) for _ in range(count)]

    return draw


def narrowed_width(grid, reads: int) -> int:
    """The models `TableGrid.narrowed(reads)` keeps, counted apart from it:
    the whole grid if `reads` reads every agent's true preference or one
    outside 1..n; otherwise every row (one if `reads` is empty) times the
    distinct rankings, among the grid's truths, of the agents it reads."""
    agents = [i for i in range(1, grid.n + 1) if reads >> i & 1]
    if reads >> grid.n + 1 or len(agents) == grid.n:
        return len(grid)
    classes = {tuple(truth.orders[i - 1] for i in agents) for truth in grid.truths}
    return (len(grid.rows) if reads else 1) * len(classes)
