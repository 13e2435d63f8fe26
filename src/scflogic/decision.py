"""Bounded decision procedures by exhaustive model enumeration.

The model class over (n, K) is finite: |K|^((|K|!)^n) outcome functions
times (|K|!)^n true profiles.  Satisfiability and validity enumerate it
under an explicit budget — exceeding the budget is an error, never a
silent truncation, since a truncated "valid" would be unsound.

Per-SCF property checking avoids the full class: the characteristic
formula of F holds exactly in the models whose outcome function realizes
F, so `check_scf_property` quantifies over the (|K|!)^n true profiles
only.  It builds the property formula once per (property, n, K) (the
encodings builders are memoized) and evaluates it on all those models at
once with the stacked bitmask evaluator.  The restriction is itself
tested against full enumeration at the small scales where both are
feasible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import (
    InvalidDomain,
    Profile,
    ScfModel,
    ScfTable,
    all_profiles,
    num_states,
)
from .encodings import PropertyId, property_formula
from .logic import Evaluator, Formula

__all__ = [
    "EnumerationBudget",
    "BudgetExceeded",
    "Verdict",
    "model_class_size",
    "enumerate_models",
    "sample_models",
    "representative_model",
    "satisfiable",
    "valid",
    "valid_state_formula",
    "check_scf_property",
]


@dataclass(frozen=True)
class EnumerationBudget:
    max_models: int = 10**6
    max_states: int = 10**4

    def __post_init__(self) -> None:
        if self.max_models < 1 or self.max_states < 1:
            raise InvalidDomain("budget limits must be positive")


DEFAULT_BUDGET = EnumerationBudget()


class BudgetExceeded(RuntimeError):
    """The model class is larger than the enumeration budget allows."""

    def __init__(self, required_models: int, required_states: int, budget: EnumerationBudget):
        self.required_models = required_models
        self.required_states = required_states
        self.budget = budget
        super().__init__(
            f"enumeration needs {required_models} models over {required_states} states,"
            f" budget allows {budget.max_models} models / {budget.max_states} states"
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision query.

    A witness is present exactly for "satisfiable", a counterexample
    exactly for "invalid"; both are (model, state) pairs.
    """

    status: str
    witness: Optional[tuple[ScfModel, Profile]] = None
    counterexample: Optional[tuple[ScfModel, Profile]] = None

    def __post_init__(self) -> None:
        if self.status not in ("valid", "satisfiable", "unsatisfiable", "invalid"):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.status == "satisfiable") != (self.witness is not None):
            raise ValueError("witness present iff satisfiable")
        if (self.status == "invalid") != (self.counterexample is not None):
            raise ValueError("counterexample present iff invalid")

    def __bool__(self) -> bool:
        return self.status in ("valid", "satisfiable")


def model_class_size(n: int, outcomes: Sequence[str]) -> tuple[int, int]:
    """(number of models, number of states) for the class over (n, K)."""
    states = num_states(n, outcomes)
    return len(tuple(outcomes)) ** states * states, states


def _check_budget(n: int, outcomes: Sequence[str], budget: EnumerationBudget) -> None:
    models, states = model_class_size(n, outcomes)
    if models > budget.max_models or states > budget.max_states:
        raise BudgetExceeded(models, states, budget)


def enumerate_models(
    n: int, outcomes: Sequence[str], budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[ScfModel]:
    """Every model over (n, K) exactly once: outcome functions in
    mixed-radix order over the canonical state order, true profiles inner."""
    names = tuple(outcomes)
    _check_budget(n, names, budget)
    profiles = all_profiles(n, names)
    for values in itertools.product(names, repeat=len(profiles)):
        table = ScfTable(n, names, values)
        for truth in profiles:
            yield ScfModel(table, truth)


def sample_models(
    n: int, outcomes: Sequence[str], count: int, seed: int = 0
) -> list[ScfModel]:
    """Deterministic sample of models: cycle through every true profile
    while drawing outcome functions from a seeded generator."""
    names = tuple(outcomes)
    profiles = all_profiles(n, names)
    rng = random.Random(seed)
    picked = []
    for i in range(count):
        values = tuple(rng.choice(names) for _ in profiles)
        picked.append(ScfModel(ScfTable(n, names, values), profiles[i % len(profiles)]))
    return picked


def representative_model(n: int, outcomes: Sequence[str]) -> ScfModel:
    """The canonically-first model over (n, K); enough to decide any
    formula whose truth is state-determined."""
    names = tuple(outcomes)
    profiles = all_profiles(n, names)
    table = ScfTable(n, names, tuple(names[0] for _ in profiles))
    return ScfModel(table, profiles[0])


def satisfiable(
    n: int,
    outcomes: Sequence[str],
    formula: Formula,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """First (model, state) satisfying the formula, or unsatisfiable."""
    for model in enumerate_models(n, outcomes, budget):
        ev = Evaluator(model)
        mask = ev.truth_mask(formula)
        if mask:
            low = mask & -mask
            state = ev.space.profiles[low.bit_length() - 1]
            return Verdict("satisfiable", witness=(model, state))
    return Verdict("unsatisfiable")


def valid(
    n: int,
    outcomes: Sequence[str],
    formula: Formula,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Verdict:
    """Truth at every state of every model, or the first counterexample."""
    for model in enumerate_models(n, outcomes, budget):
        ev = Evaluator(model)
        bad = ev.space.full_mask ^ ev.truth_mask(formula)
        if bad:
            low = bad & -bad
            state = ev.space.profiles[low.bit_length() - 1]
            return Verdict("invalid", counterexample=(model, state))
    return Verdict("valid")


def valid_state_formula(n: int, outcomes: Sequence[str], formula: Formula) -> Verdict:
    """Validity over the whole class for a formula without outcome atoms or
    pref modalities, certified on a single representative model.  Such a
    formula's truth depends only on the state, so one model decides the
    class regardless of its size."""
    if formula.uses_outcome or formula.uses_pref:
        raise InvalidDomain(
            "representative-model certification needs a formula without"
            " outcome atoms or pref modalities"
        )
    model = representative_model(n, outcomes)
    ev = Evaluator(model)
    bad = ev.space.full_mask ^ ev.truth_mask(formula)
    if bad:
        low = bad & -bad
        state = ev.space.profiles[low.bit_length() - 1]
        return Verdict("invalid", counterexample=(model, state))
    return Verdict("valid")


def check_scf_property(table: ScfTable, prop: PropertyId) -> Verdict:
    """Whether the property's encoding follows from the characteristic
    formula of the SCF.

    Equivalent to validity of rho(F) -> property over the whole class, but
    quantifies only over the models whose outcome function realizes F —
    sound because rho(F) holds in a model exactly when its outcome function
    corresponds to F, and never budget-limited since only the (|K|!)^n true
    profiles vary.  Those models are evaluated as one stacked batch, in
    true-profile order, against the memoized property formula; the lowest
    falsified bit is the first failing true profile and its lowest state,
    the same counterexample a model-by-model scan would report."""
    from ._stacked import StackedEvaluator

    formula = property_formula(prop, table.agents, table.outcomes)
    models = [ScfModel(table, truth) for truth in table.profiles]
    ev = StackedEvaluator(models)
    where = ev.first_failure(formula)
    if where is None:
        return Verdict("valid")
    model_idx, state_idx = where
    return Verdict("invalid", counterexample=(models[model_idx], ev.space.profiles[state_idx]))
