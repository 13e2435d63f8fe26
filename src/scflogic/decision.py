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
its lowest state, so witnesses and counterexamples stay canonical.  Every
call walks the same first chunks, so their evaluators, the ramp of
doubling chunks up to the first of full width, are kept per (n, K) and
read-set shape and run again by later calls (`_stacked._StateSpace.chunks`).
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
enumeration's first chunk narrowed to the empty read-set, the first
model in enumeration order alone, if the budget covers its (|K|!)^n
states, and the walk stops there; its lowest hit state is the witness or
counterexample the whole enumeration would return, and that model's
evaluator is kept on the ramp like any other chunk's.  A formula with
outcome atoms but no pref modality has the same truth in every model of
an outcome function, whatever the true profile: each chunk is narrowed
to one model per outcome function, the first in enumeration order, and
the budget counts those outcome functions instead of models.  A formula
whose pref modalities name some agents but not all has the same truth in
the models of an outcome function whose true profiles agree on those
agents' rankings: each chunk keeps the first true profile of each such
ranking tuple, |K|! per outcome function for one agent, and the budget
still counts models.

Per-SCF property checking avoids the full class: the characteristic
formula of F holds exactly in the models whose outcome function realizes
F, so `check_scf_property` quantifies over the (|K|!)^n true profiles
only.  It builds no property formula: once per (property, n, K) it runs
the property's builder in an emitting scope (`_stacked._Emit`), which
computes what no outcome function changes at once and emits the rest as
a residual program, kept for later checks over (n, K) and dropped when a
check over another (n, K) starts (`_residual`).  A check runs that program
on the true profiles a one-row `TableGrid` narrowed to the program's
read-set keeps: a best response br(i) reads agent i's true preference
alone, so with two agents or more it is evaluated on the |K|! true
profiles that differ from the first in agent i's ranking only.  The
restriction is itself tested against full enumeration at the small
scales where both are feasible.  Those profiles are run in chunks, the
first alone and then as many as fit in `_stacked._CHUNK_BITS` bits, and
the check stops at the first failing chunk (`_stacked.sieve`): a
manipulable table almost always fails at its first true profile.
`check_scf_properties` checks many tables of one (n, K) so, each chunk
over the tables still alive at once: the 19,683 tops-only (2,{a,b,c})
rules take 0.3 s in 26 runs, where checking them one at a time takes
12 s (Python 3.11.7, two shared cores).  A check whose estimated work,
its builder's binder product times its view's width (`_property_work`),
exceeds its budget (`PROPERTY_BUDGET` unless given) is refused with
`BudgetExceeded` before anything is emitted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _stacked, encodings
from .core import (
    InvalidDomain,
    Profile,
    ScfModel,
    ScfTable,
    _bounded_size,
    num_states,
)
from .encodings import PropertyId
from .logic import Formula, Not, _collector_paused

__all__ = [
    "BudgetExceeded",
    "Verdict",
    "enumerate_models",
    "sample_models",
    "representative_model",
    "satisfiable",
    "valid",
    "check_scf_property",
    "check_scf_properties",
]


DEFAULT_BUDGET = 10**6

# no check builds a property formula; the name stays, as `bench/tracing.py`
# wraps it here to time the builds
property_formula = encodings.property_formula
# no decision builds a per-model evaluator; the name stays, as
# `bench/tracing.py` wraps it here to count them
Evaluator = _stacked.Evaluator


class BudgetExceeded(RuntimeError):
    """The model class over (n, K), its outcome functions, or the state set
    of one model of it, is larger than the budget allows.  The budget
    counts models; for a formula that reads no true preference it counts
    outcome functions, each with one true profile.  A property check's
    budget counts bit operations (`PROPERTY_BUDGET`), and its caller says
    what it needs (`need`).  `required_models` is the class's model count,
    None above 10^30; `models` is that count as text of bounded length,
    with larger counts written as powers."""

    def __init__(
        self, n: int, outcomes: Sequence[str], budget: int, unit: str = "models", need: Optional[str] = None
    ):
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
        elif unit == "models":
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

    The budget must cover the class, its outcome functions if the formula
    reads no true preference, or one model's states if it reads nothing
    (`BudgetExceeded` otherwise).  The outcome functions are then walked in
    `enumerate_models` order in chunks, each stacked as one `TableGrid`
    (`_StateSpace.chunks`): the first chunk holds one outcome function, and
    each next chunk twice as many, up to `_stacked._CHUNK_BITS` bits, so an
    early hit stays cheap and a full sweep takes few wide batches.  Each
    chunk is narrowed to the formula's read-set (`TableGrid.narrowed`): a
    state-determined formula, which reads nothing, is decided on the first
    chunk's first model alone, `representative_model`; one that reads no
    true preference is stacked with the first truth of each row; one that
    reads some agents' true preferences but not all, with the first truth of
    each of their ranking tuples.  The chunk width counts the truths the
    narrowed grid keeps, and the narrowed grid's first failing model is the
    chunk's.  The chunks up to the first of full width, the ramp, are kept
    per read-set shape and walked first, so a call whose hit lies within
    them builds no evaluator once an earlier call has walked that far; the
    chunks past the ramp are built and dropped."""
    reads = formula.reads
    unit = "one model" if reads == 0 else "outcome functions" if reads == 1 else "models"
    _check_budget(n, outcomes, budget, unit)
    for chunk in _stacked._space(n, tuple(outcomes)).chunks(reads):
        hit = chunk.first_failure(formula)
        if hit is not None:
            return hit
    return None


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


# Largest estimated work of one table's property check, in bit operations,
# that `check_scf_property` and `check_scf_properties` take on
# (`_property_work`).  The gated checks reach 6.1e9 with `strproof` and
# `mon` on the (2,{a,b,c,d}) dictatorship, which take about 1.2 s and 7 s
# (Python 3.11.7, two shared cores); a seeded (2,{a,b,c,d}) table that is
# not strategy-proof fails at its first chunk of one true profile, in
# 0.02 s once the program is emitted.  At (3,{a,b,c,d}) and (2,{a,b,c,d,e})
# both reach 1.3e14 and 1.5e14, and are refused.
PROPERTY_BUDGET = 10**10


def _property_work(kind: str, n: int, k: int, states: int) -> int:
    """The estimated work of checking a property of kind `kind` over (n,
    K), |K| = k, with `states` = (k!)^n profiles: its builder's binder
    product times the width of the view it is checked on, in bits, S
    states per kept truth.  The products: the outcomes for citsov and
    br(i), n·k for dom, n·k^2 (agent, outcome, rival) for nodict,
    S·n·k^2 for strproof (per profile, its `better` links and their
    expansions) and S^2·n·k^2 for mon (its implications per pair of
    profiles, outcome, agent and rival).  The truths kept: every truth for
    dom and strproof, the k! rankings of one agent for br(i), one for the
    kinds that read no true preference."""
    products = {
        "citsov": k, "br": k, "dom": n * k, "nodict": n * k * k,
        "strproof": states * n * k * k, "mon": states * states * n * k * k,
    }
    truths = {"dom": states, "strproof": states, "br": math.factorial(k)}.get(kind, 1)
    return products[kind] * truths * states


# the residual programs of one (n, K), all kinds, by property: dropped when
# a check over another (n, K) asks for one (`_residual`)
_programs: dict[tuple[int, tuple[str, ...]], dict[PropertyId, tuple[int, _stacked._Program]]] = {}


def _residual(prop: PropertyId, n: int, outcomes: tuple[str, ...]) -> tuple[int, _stacked._Program]:
    """The read-set and residual program of the property over (n, K): its
    builder run once in an emitting scope (`_stacked._Emit`), and kept in
    `_programs` with the other kinds' over (n, K) until a check over another
    (n, K) starts, which drops them all.  No `logic.Formula` is built, so
    no cycle: the collector is paused."""
    kept = _programs.get((n, outcomes))
    if kept is None:
        _programs.clear()
        kept = _programs[n, outcomes] = {}
    residual = kept.get(prop)
    if residual is None:
        emit = _stacked._Emit(n, outcomes)
        with _collector_paused():
            root = encodings._SCOPED[prop.kind](encodings._Scope(n, outcomes, emit), prop.agent)
            residual = kept[prop] = emit.program(root)
    return residual


def check_scf_property(table: ScfTable, prop: PropertyId, budget: int = PROPERTY_BUDGET) -> Verdict:
    """Whether the property's encoding follows from the characteristic
    formula of the SCF.

    Equivalent to validity of rho(F) -> property over the whole class, but
    quantifies only over the models whose outcome function realizes F —
    sound because rho(F) holds in a model exactly when its outcome function
    corresponds to F — so only the (|K|!)^n true profiles vary, and of
    those the ones the property's read-set tells apart.  They are run by
    the property's residual program (`_residual`), emitted on the first
    check of the property over (n, K) and kept, in chunks of true profiles
    (`_stacked.sieve`): the first alone, then as many as fit in
    `_stacked._CHUNK_BITS` bits, so a table that fails at its first true
    profile, as most manipulable ones do, runs the program on one model.
    No property formula is built.  The first failing chunk's lowest
    falsified bit is the first failing true profile and its lowest state,
    the same counterexample a model-by-model scan would report.  The one-
    table case of `check_scf_properties`.

    Raises InvalidDomain if `budget` is below one, and BudgetExceeded,
    before anything is emitted, if the check's estimated work
    (`_property_work`) exceeds it."""
    return check_scf_properties([table], prop, budget)[0]


def check_scf_properties(
    tables: Sequence[ScfTable], prop: PropertyId, budget: int = PROPERTY_BUDGET
) -> list[Verdict]:
    """`check_scf_property` of each table, over one (n, K), as one sieve:
    each chunk of true profiles is run on the tables still alive at once,
    as many per grid as fit in `_stacked._CHUNK_BITS` bits, and a table
    leaves at its first failing chunk (`_stacked.sieve`).  One verdict per
    table, in order, each with the counterexample its own check reports.

    Raises InvalidDomain if `budget` is below one or if the tables are not
    all over one (n, K), and BudgetExceeded, before anything is emitted, if
    the estimated work of one table's check (`_property_work`) exceeds
    `budget`."""
    if budget < 1:
        raise InvalidDomain("the property budget must be positive")
    if not tables:
        return []
    n, outcomes = tables[0].agents, tables[0].outcomes
    if any(table.agents != n or table.outcomes != outcomes for table in tables):
        raise InvalidDomain("all checked tables must share (n, outcomes)")
    work = _property_work(prop.kind, n, len(outcomes), len(tables[0].values))
    if work > budget:
        need = f"checking {prop} needs {work:.1e} bit operations over"
        raise BudgetExceeded(n, outcomes, budget, "bit operations", need)
    reads, program = _residual(prop, n, outcomes)
    return [
        Verdict("valid") if hit is None else Verdict("invalid", counterexample=hit)
        for hit in _stacked.sieve(tables, reads, program)
    ]
