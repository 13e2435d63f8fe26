"""Decision procedures by model enumeration.

The model class over (n, K) is finite: |K|^((|K|!)^n) outcome functions
times (|K|!)^n true profiles.  Satisfiability and validity enumerate it
under a budget, an int count of models (`DEFAULT_BUDGET` unless given;
one below 1 is an InvalidDomain) — exceeding it is an error, never a
silent truncation, since a truncated "valid" would be unsound.  The
enumeration is evaluated in chunks of consecutive outcome functions, each
with every true profile, as one stacked `TableGrid` (see `_stacked`), so
no model is built but the witness or counterexample; the lowest hit bit
of the first chunk with a hit is the first model in enumeration order and
its lowest state, so witnesses and counterexamples stay canonical.
`enumerate_models` returns the whole class as one such grid, each row
computed from its index, which sweeps that check every model, such as
the `axioms` command, stack as it is.
Where the class is too large to enumerate, `sample_models` draws whole
rows instead: seeded outcome functions, each with every true profile, the
models of a grid of those rows.

The enumeration reads only what the formula reads (its read-set,
`Formula.reads`), by the one rule `TableGrid.narrowed` keeps.  A formula
without outcome atoms or pref modalities is state-determined: its truth
at a state is the same in every model.  Such a formula is decided on the
first model in enumeration order alone, if the budget covers its
(|K|!)^n states; its lowest hit state there is the witness or
counterexample the enumeration would return.  A formula with outcome
atoms but no pref modality has the same truth in every model of an
outcome function, whatever the true profile: each chunk is narrowed to
one model per outcome function, the first in enumeration order, and the
budget counts those outcome functions instead of models.  A formula whose
pref modalities name some agents but not all has the same truth in the
models of an outcome function whose true profiles agree on those agents'
rankings: each chunk keeps the first true profile of each such ranking
tuple, |K|! per outcome function for one agent, and the budget still
counts models.

Per-SCF property checking avoids the full class: the characteristic
formula of F holds exactly in the models whose outcome function realizes
F, so `check_scf_property` quantifies over the (|K|!)^n true profiles
only.  It builds the property formula once per (property, n, K) (the
encodings builders are memoized) and evaluates it on all those models at
once, as a one-row `TableGrid` narrowed to the formula's read-set: a
best response br(i) reads agent i's true preference alone, so with two
agents or more it is evaluated on the |K|! true profiles that differ
from the first in agent i's ranking only.  The restriction is itself
tested against full enumeration at the small scales where both are
feasible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _stacked
from ._stacked import Evaluator
from .core import (
    InvalidDomain,
    Profile,
    ScfModel,
    ScfTable,
    _bounded_size,
    num_states,
)
from .encodings import PropertyId, property_formula
from .logic import Formula, Not

__all__ = [
    "BudgetExceeded",
    "Verdict",
    "enumerate_models",
    "sample_models",
    "representative_model",
    "satisfiable",
    "valid",
    "check_scf_property",
]


DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """The model class over (n, K), its outcome functions, or the state set
    of one model of it, is larger than the budget allows.  The budget
    counts models; for a formula that reads no true preference it counts
    outcome functions, each with one true profile.  `required_models` is
    the class's model count, None above 10^30; `models` is that count as
    text of bounded length, with larger counts written as powers."""

    def __init__(self, n: int, outcomes: Sequence[str], budget: int, unit: str = "models"):
        k = len(outcomes)
        models, states = _bounded_size(n, k, 10**30)
        self.required_models = models
        text = f"{k}!^{n}" if states is None else str(states)
        self.models = f"{k}^{text} * {text}" if models is None else str(models)
        if unit == "one model":
            need, unit = "one model has", "models"
        elif unit == "outcome functions":
            functions = _function_count(k, states, 10**30)
            need = f"enumeration needs {f'{k}^{text}' if functions is None else functions} {unit} over"
        else:
            need = f"enumeration needs {self.models} models over"
        super().__init__(f"{need} {text} states, budget allows {budget} {unit}")


def _function_count(k: int, states: Optional[int], limit: int) -> Optional[int]:
    """k^states, the outcome functions over `states` states, or None if
    above `limit` (or if `states` is None)."""
    if states is None or k > 1 and states >= limit.bit_length():
        return None
    count = k**states
    return count if count <= limit else None


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


def _check_budget(n: int, outcomes: Sequence[str], budget: int, unit: str = "models") -> None:
    """Raise InvalidDomain if the budget is below one, and BudgetExceeded
    unless it covers what `unit` counts over (n, K): every model
    ("models"), every outcome function ("outcome functions") or the
    (|K|!)^n states of one model ("one model")."""
    if budget < 1:
        raise InvalidDomain("the model budget must be positive")
    models, states = _bounded_size(n, len(outcomes), budget)
    if unit == "one model":
        count = states
    elif unit == "outcome functions":
        count = _function_count(len(outcomes), states, budget)
    else:
        count = models
    if count is None:
        raise BudgetExceeded(n, outcomes, budget, unit)


def enumerate_models(
    n: int, outcomes: Sequence[str], budget: int = DEFAULT_BUDGET
) -> _stacked.TableGrid:
    """Every model over (n, K) exactly once, as one `TableGrid`: outcome
    functions in mixed-radix order over the canonical state order, each
    row with every true profile, truths inner.  No row is laid out: each
    is computed from its index (`_stacked._ClassRows`), and no model is
    built until one is read.  Raises `BudgetExceeded` if the class has
    more than `budget` models."""
    names = tuple(outcomes)
    _check_budget(n, names, budget)
    return _stacked.TableGrid(n, names, _stacked._ClassRows(names, num_states(n, names)))


def sample_models(
    n: int,
    outcomes: Sequence[str],
    count: int,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> list[ScfModel]:
    """Deterministic sample of models drawn as whole rows: ceil(count/S)
    outcome functions from a seeded generator, each paired with every one
    of the S true profiles in canonical order (table outer, truth inner,
    as `enumerate_models` orders them), the models of the `TableGrid` of
    those rows.  Raises `BudgetExceeded` before building any state if one
    model's states exceed `budget`, a count of models."""
    names = tuple(outcomes)
    _check_budget(n, names, budget, "one model")
    states = num_states(n, names)
    rng = random.Random(seed)
    rows = [tuple(rng.choice(names) for _ in range(states)) for _ in range(-(-count // states))]
    return list(_stacked.TableGrid(n, names, rows))


def representative_model(n: int, outcomes: Sequence[str]) -> ScfModel:
    """The first model in enumeration order over (n, K); enough to decide
    any formula whose truth is state-determined."""
    names = tuple(outcomes)
    return _stacked.TableGrid(n, names, [names[:1] * num_states(n, names)])[0]


def _first_failure(
    n: int, outcomes: Sequence[str], formula: Formula, budget: int
) -> Optional[tuple[ScfModel, Profile]]:
    """First model in enumeration order falsifying `formula`, with its
    lowest falsified state, or None.

    A state-determined formula is evaluated on `representative_model`
    alone, the first model in enumeration order, if the budget covers its
    states.  Any other formula, if the budget covers the class, walks the
    outcome functions in `enumerate_models` order in chunks, each stacked
    as one `TableGrid`: the first chunk holds one outcome function, and
    each next chunk twice as many, up to `_stacked._CHUNK_BITS` bits, so an
    early hit stays cheap and a full sweep takes few wide batches.  Each chunk
    is narrowed to the formula's read-set (`TableGrid.narrowed`): a formula
    that reads no true preference is stacked with the first truth of each
    row, and its budget counts outcome functions; one that reads some
    agents' true preferences but not all, with the first truth of each of
    their ranking tuples, and its budget counts models.  The chunk width
    counts the truths the narrowed grid keeps, and the narrowed grid's
    first failing model is the chunk's."""
    reads = formula.reads
    unit = "one model" if reads == 0 else "outcome functions" if reads == 1 else "models"
    _check_budget(n, outcomes, budget, unit)
    if reads == 0:
        return Evaluator(representative_model(n, outcomes)).first_failure(formula)
    names = tuple(outcomes)
    states = num_states(n, names)
    rows = itertools.product(names, repeat=states)
    tables = 1
    while True:
        chunk = list(itertools.islice(rows, tables))
        if not chunk:
            return None
        grid = _stacked.TableGrid(n, names, chunk).narrowed(reads)
        hit = _stacked.StackedEvaluator(grid).first_failure(formula)
        if hit is not None:
            return hit
        tables = min(2 * tables, max(1, _stacked._CHUNK_BITS // (states * len(grid.truths))))


def satisfiable(
    n: int,
    outcomes: Sequence[str],
    formula: Formula,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """First (model, state) satisfying the formula, or unsatisfiable.

    Raises `BudgetExceeded` before building any model when `budget`, a
    count of models, does not cover the class, its outcome functions if
    the formula reads no true preference, or one model's states if it is
    state-determined."""
    hit = _first_failure(n, outcomes, Not(formula), budget)
    if hit is None:
        return Verdict("unsatisfiable")
    return Verdict("satisfiable", witness=hit)


def valid(
    n: int,
    outcomes: Sequence[str],
    formula: Formula,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Truth at every state of every model, or the first counterexample.

    Raises `BudgetExceeded` before building any model when `budget`, a
    count of models, does not cover the class, its outcome functions if
    the formula reads no true preference, or one model's states if it is
    state-determined."""
    hit = _first_failure(n, outcomes, formula, budget)
    if hit is None:
        return Verdict("valid")
    return Verdict("invalid", counterexample=hit)


def check_scf_property(table: ScfTable, prop: PropertyId) -> Verdict:
    """Whether the property's encoding follows from the characteristic
    formula of the SCF.

    Equivalent to validity of rho(F) -> property over the whole class, but
    quantifies only over the models whose outcome function realizes F —
    sound because rho(F) holds in a model exactly when its outcome function
    corresponds to F, and never budget-limited since only the (|K|!)^n true
    profiles vary.  Those models are evaluated as one stacked batch, a
    one-row grid in true-profile order narrowed to the formula's read-set,
    against the memoized property formula; the lowest
    falsified bit is the first failing true profile and its lowest state,
    the same counterexample a model-by-model scan would report."""
    formula = property_formula(prop, table.agents, table.outcomes)
    grid = _stacked.TableGrid(table.agents, table.outcomes, [table.values])
    hit = _stacked.StackedEvaluator(grid.narrowed(formula.reads)).first_failure(formula)
    if hit is None:
        return Verdict("valid")
    return Verdict("invalid", counterexample=hit)
