"""Axiom schemas instantiated over a concrete (n, K), checked by model
enumeration.

Each schema of the proof system becomes a finite family of concrete
formulas (instances), quantified over agents, coalitions, outcomes,
profiles and a pool of metavariable formulas.  `soundness_check` verifies
each schema's instances in every supplied model as `instantiate_all`
streams them; `check_sweep_size` refuses, from the binder domain sizes
alone, a sweep too large to hold in memory.

Each schema is one row of a table: its binder names and a builder of the
instance formula for one binding.  A binder ranges over agents, outcomes,
the pool, coalitions, reported atoms, rankings, profiles or, for comp-At,
the pool's reported-atom fragment; `instantiate` is one loop over the
product of the binders' domains, and a builder returns None where a side
condition (x != y, i != j, disjoint agent sets) excludes the binding.

Nodes are interned, so rebuilding a subformula returns the same object,
but each rebuild still pays a constructor call per node.  A subformula
that reads only some of the binders, such as [i]phi in K(i) or
<C1>delta1 in comp-At, is therefore taken from a memo table of the
instantiation's `_Scope`, keyed by the values it reads, and built once
per binding of those.  The tables go with the scope when `instantiate`
returns.  Each instance is an `AxiomInstance`, a slotted immutable record
holding the schema's binder-name tuple and the product's value tuple; its
`bindings` dict is built only when read.

Instances whose formulas contain neither outcome atoms nor pref
modalities have state-determined truth, identical across all models over
the same (n, K); the checker counts those per schema and reports the
count.  A schema's run is checked at the width its instances read, by
the one rule `TableGrid.narrowed` keeps: a run of state-determined
instances on the first model alone, a run without pref modalities on one
model per outcome function, and any other run on every model.
`StackedEvaluator.first_failure` builds that view for each run and drops
it on return, so a sweep holds one evaluator over its models and at most
one narrowed view at a time.  Building instances
and checking them pause the cyclic garbage collector
(`logic._collector_paused`): interned nodes are acyclic, so its passes
over the growing live set could free nothing the build made.

Two schema subtleties worth knowing:

* The side condition of (comp-At) is: both component formulas are
  modality-free booleans over reported atoms, and no agent controls
  atoms in both.  Pairs sharing a controlling agent (or containing
  outcome atoms) admit outright countermodels, so they are not
  instances.
* (antisym') and (total') are the global statements that the derived
  preference between reported profiles is antisymmetric up to outcome
  equality, and total.  Local per-state variants fail on any model
  mapping two profiles to one outcome (weak preference is reflexive),
  so they are not sound axioms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import _stacked
from .core import InvalidDomain, Profile, ScfModel, _bounded_size, all_linear_orders, all_profiles
from .encodings import ballot_agent, ballot_profile, better
from .logic import (
    And,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Out,
    Pref,
    PrefBox,
    Rep,
    conj,
    disj,
    _collector_paused,
)

__all__ = [
    "SCHEMAS",
    "AxiomInstance",
    "default_pool",
    "instantiate",
    "instantiate_all",
    "SchemaResult",
    "SoundnessReport",
    "soundness_check",
    "check_sweep_size",
    "pref_necessitation_holds",
]


class AxiomInstance:
    """One instance of a schema: the schema's name, its bindings and the
    instance formula.

    A slotted record: it holds the schema's binder names, one tuple shared
    by all its instances, and the tuple of bound values `instantiate`'s
    product made; `bindings` builds a fresh dict of them, in binder order,
    on each read.  It behaves as the frozen dataclass it replaces: built
    positionally as `AxiomInstance(schema, bindings, formula)`, equal and
    hashed by (schema, formula) with the bindings ignored, immutable, and
    copied and pickled through that constructor."""

    __slots__ = ("schema", "formula", "_names", "_values", "__weakref__")

    def __init__(self, schema: str, bindings: dict, formula: Formula):
        _fill(self, schema, tuple(bindings), tuple(bindings.values()), formula)

    @property
    def bindings(self) -> dict:
        return dict(zip(self._names, self._values))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.schema, self.formula) == (other.schema, other.formula)

    def __hash__(self) -> int:
        return hash((self.schema, self.formula))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(schema={self.schema!r},"
            f" bindings={self.bindings!r}, formula={self.formula!r})"
        )

    def __reduce__(self) -> tuple:
        return (type(self), (self.schema, self.bindings, self.formula))

    def describe(self) -> str:
        parts = []
        for key, value in zip(self._names, self._values):
            if isinstance(value, frozenset):
                value = "{" + ",".join(map(str, sorted(value))) + "}"
            parts.append(f"{key}={value}")
        return f"{self.schema}[{', '.join(parts)}]"


_new = object.__new__
_set = object.__setattr__  # past the record's `__setattr__`, which refuses


def _fill(
    inst: AxiomInstance, schema: str, names: tuple, values: tuple, formula: Formula
) -> AxiomInstance:
    _set(inst, "schema", schema)
    _set(inst, "formula", formula)
    _set(inst, "_names", names)
    _set(inst, "_values", values)
    return inst


def _default_cap(n: int, outcomes: tuple[str, ...]) -> int:
    # binary schemas instantiate pool^2 pairs; size the default to the class
    models, _ = _bounded_size(n, len(outcomes), 4096)
    if models is None:
        return 32
    return 64 if models <= 64 else 48


def default_pool(n: int, outcomes: Sequence[str]) -> tuple[Formula, ...]:
    """Metavariable pool: outcome atoms, reported atoms, their negations,
    single-agent ballots, pairwise disjunctions of atoms — capped.

    When a category overflows the cap, an evenly-spaced deterministic
    subset of it fills the remaining room.
    """
    names = tuple(outcomes)
    cap = _default_cap(n, names)
    atoms: list[Formula] = [Out(x) for x in names]
    atoms += [
        Rep(agent, x, y)
        for agent in range(1, n + 1)
        for x in names
        for y in names
    ]
    categories: list[list[Formula]] = [
        atoms,
        [Not(a) for a in atoms],
        [
            ballot_agent(agent, order)
            for agent in range(1, n + 1)
            for order in all_linear_orders(names)
        ],
        [Or(a, b) for a, b in itertools.combinations(atoms, 2)],
    ]
    pool: list[Formula] = []
    for category in categories:
        room = cap - len(pool)
        if room <= 0:
            break
        if len(category) <= room:
            pool.extend(category)
        else:
            step = len(category) / room
            pool.extend(category[int(i * step)] for i in range(room))
    return tuple(pool)


def _at_agent_set(formula: Formula) -> Optional[frozenset[int]]:
    """Agents controlling atoms of a modality-free reported-atom formula,
    or None when the formula falls outside that fragment."""
    nodes = list(formula.subformulas())
    if any(type(node) in (Diamond, Pref, Out) for node in nodes):
        return None
    return frozenset(node.agent for node in nodes if type(node) is Rep)


class _Memo(dict):
    """A subformula table: the value of `build(*key)`, built on the key's
    first lookup."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[..., object]):
        super().__init__()
        self.build = build

    def __missing__(self, key: tuple) -> object:
        value = self[key] = self.build(*key)
        return value


class _Scope:
    """What one instantiation ranges over: the binder domains over (n, K)
    and the pool, the reported atoms and the pool-derived ones computed on
    first use, and the constants and memo tables the builders read.

    Each memo table holds one kind of subformula, keyed by the binder
    values it reads, so a builder makes it once per such binding rather
    than once per binding of all the schema's binders: `box` and `dia`
    per (coalition, formula), `prefbox` and `pref` per (agent, formula),
    `union` per coalition pair, `pair` per comp-At fragment pair and
    `reach` per (ballot, outcome).  `single` is the prebuilt coalition
    {i} of each agent.  No table's build refers back to the scope, so
    the tables and the nodes only they hold go with the scope when
    `instantiate` returns, collector or not."""

    def __init__(self, n: int, outcomes: Sequence[str], pool: Sequence[Formula]):
        self.n = n
        self.outcomes = tuple(outcomes)
        self.pool = pool
        self.agents = range(1, n + 1)
        self.grand = grand = frozenset(self.agents)
        self.coalitions = [
            frozenset(c) for size in range(n + 1) for c in itertools.combinations(self.agents, size)
        ]
        self.rankings = all_linear_orders(self.outcomes)
        self.profiles = all_profiles(n, self.outcomes)
        self.single = {i: frozenset((i,)) for i in self.agents}
        self.box = _Memo(Box)
        self.dia = _Memo(Diamond)
        self.prefbox = _Memo(PrefBox)
        self.pref = _Memo(Pref)
        self.union = _Memo(frozenset.union)
        self.reach = _Memo(lambda ballot, x: Diamond(grand, And(ballot, Out(x))))

    @cached_property
    def reps(self) -> list[Formula]:
        return [Rep(i, x, y) for i in self.agents for x in self.outcomes for y in self.outcomes]

    @cached_property
    def atom_agents(self) -> dict[Formula, Optional[frozenset[int]]]:
        """`_at_agent_set` of each pool formula, computed once per formula."""
        return {f: _at_agent_set(f) for f in self.pool}

    @cached_property
    def fragment(self) -> list[Formula]:
        """The pool's modality-free reported-atom formulas, for comp-At."""
        return [f for f in self.pool if self.atom_agents[f] is not None]

    @cached_property
    def pair(self) -> _Memo:
        """d1 & d2 for two fragment formulas, or None where an agent
        controls atoms of both."""
        agents = self.atom_agents
        return _Memo(lambda d1, d2: None if agents[d1] & agents[d2] else And(d1, d2))


# binder name -> the `_Scope` attribute holding its domain
_DOMAINS = {
    **dict.fromkeys(("i", "j"), "agents"),
    **dict.fromkeys(("x", "y", "z"), "outcomes"),
    **dict.fromkeys(("phi", "psi"), "pool"),
    **dict.fromkeys(("C1", "C2"), "coalitions"),
    **dict.fromkeys(("profile", "profile1", "profile2"), "profiles"),
    **dict.fromkeys(("delta1", "delta2"), "fragment"),
    "p": "reps",
    "order": "rankings",
}


def _antisym(s: _Scope, i: int, p1: Profile, p2: Profile) -> Formula:
    b1, b2 = ballot_profile(p1), ballot_profile(p2)
    same_outcome = disj(And(s.reach[b1, x], s.reach[b2, x]) for x in s.outcomes)
    return Implies(
        Diamond(s.grand, And(b1, s.pref[i, b2])),
        Or(Box(s.grand, Implies(b2, s.prefbox[i, Not(b1)])), same_outcome),
    )


def _total(s: _Scope, i: int, p1: Profile, p2: Profile) -> Formula:
    b1, b2 = ballot_profile(p1), ballot_profile(p2)
    return Or(
        Diamond(s.grand, And(b1, s.pref[i, b2])), Box(s.grand, Implies(b2, s.pref[i, b1]))
    )


def _k_i(s: _Scope, i: int, phi: Formula, psi: Formula) -> Formula:
    c = s.single[i]
    return Implies(Box(c, Implies(phi, psi)), Implies(s.box[c, phi], s.box[c, psi]))


def _confl(s: _Scope, i: int, j: int, phi: Formula) -> Optional[Formula]:
    if i == j:  # stated for independence between distinct agents
        return None
    ci, cj = s.single[i], s.single[j]
    return Implies(s.dia[ci, s.box[cj, phi]], s.box[cj, s.dia[ci, phi]])


def _exclu(s: _Scope, i: int, j: int, p: Formula) -> Optional[Formula]:
    if i == j:
        return None
    ci, cj, not_p = s.single[i], s.single[j], Not(p)
    return Implies(And(s.dia[ci, p], s.dia[ci, not_p]), Or(s.box[cj, p], s.box[cj, not_p]))


def _comp_at(
    s: _Scope, c1: frozenset[int], c2: frozenset[int], d1: Formula, d2: Formula
) -> Optional[Formula]:
    both = s.pair[d1, d2]
    if both is None:
        return None
    return Implies(And(s.dia[c1, d1], s.dia[c2, d2]), s.dia[s.union[c1, c2], both])


# Each schema: its binder names, bound in this order (the last one varies
# fastest), and the builder of the instance for one binding, called with
# the scope and the bound values, which returns None where a side
# condition excludes the binding.  A builder takes each subformula that
# reads fewer binders than the instance from the scope's memo tables.
# Table order is `SCHEMAS` order.
_TABLE: dict[str, tuple[str, Callable[..., Optional[Formula]]]] = {
    "refl": ("i x", lambda s, i, x: Rep(i, x, x)),
    "antisym-total": (
        "i x y",
        lambda s, i, x, y: Iff(Rep(i, x, y), Not(Rep(i, y, x))) if x != y else None,
    ),
    "trans": (
        "i x y z",
        lambda s, i, x, y, z: Implies(And(Rep(i, x, y), Rep(i, y, z)), Rep(i, x, z)),
    ),
    "K(i)": ("i phi psi", _k_i),
    "T(i)": ("i phi", lambda s, i, phi: Implies(s.box[s.single[i], phi], phi)),
    "B(i)": (
        "i phi",
        lambda s, i, phi: Implies(phi, s.box[s.single[i], s.dia[s.single[i], phi]]),
    ),
    "comp-union": (
        "C1 C2 phi",
        lambda s, c1, c2, phi: Iff(s.box[c1, s.box[c2, phi]], s.box[s.union[c1, c2], phi]),
    ),
    "confl": ("i j phi", _confl),
    "empty": ("phi", lambda s, phi: Iff(Box((), phi), phi)),
    "exclu": ("i j p", _exclu),
    "ballot": ("i order", lambda s, i, order: Diamond({i}, ballot_agent(i, order))),
    "comp-At": ("C1 C2 delta1 delta2", _comp_at),
    "func1": (
        "",
        lambda s: disj(
            conj([Out(x)] + [Not(Out(y)) for y in s.outcomes if y != x]) for x in s.outcomes
        ),
    ),
    "func2": (
        "profile phi",
        lambda s, q, phi: Implies(
            And(ballot_profile(q), phi), Box(s.grand, Implies(ballot_profile(q), phi))
        ),
    ),
    "incl": ("i phi", lambda s, i, phi: Implies(s.box[s.grand, phi], s.prefbox[i, phi])),
    "K(pref)": (
        "i phi psi",
        lambda s, i, phi, psi: Implies(
            PrefBox(i, Implies(phi, psi)), Implies(s.prefbox[i, phi], s.prefbox[i, psi])
        ),
    ),
    "4(pref)": ("i phi", lambda s, i, phi: Implies(Pref(i, s.pref[i, phi]), s.pref[i, phi])),
    "antisym'": ("i profile1 profile2", _antisym),
    "total'": ("i profile1 profile2", _total),
    "unifPref": (
        "i x y",
        lambda s, i, x, y: Implies(
            And(Out(x), Pref(i, Out(y))), better(s.n, s.outcomes, i, Out(x), Out(y))
        ),
    ),
}

SCHEMAS = tuple(_TABLE)


def instantiate(
    schema: str, n: int, outcomes: Sequence[str], pool: Sequence[Formula]
) -> list[AxiomInstance]:
    """All instances of one schema over every binding of its agents,
    coalitions, outcomes and profiles, metavariables drawn from the pool."""
    if schema not in _TABLE:
        raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    binders, build = _TABLE[schema]
    names = tuple(binders.split())
    out: list[AxiomInstance] = []
    with _collector_paused():
        scope = _Scope(n, outcomes, pool)
        for values in itertools.product(*(getattr(scope, _DOMAINS[b]) for b in names)):
            formula = build(scope, *values)
            if formula is not None:
                out.append(_fill(_new(AxiomInstance), schema, names, values, formula))
    return out


def instantiate_all(
    n: int, outcomes: Sequence[str], pool: Optional[Sequence[Formula]] = None
) -> Iterator[AxiomInstance]:
    """Every schema's instances in `SCHEMAS` order, each schema built when reached."""
    if pool is None:
        pool = default_pool(n, outcomes)
    return (inst for schema in SCHEMAS for inst in instantiate(schema, n, outcomes, pool))


@dataclass
class SchemaResult:
    schema: str
    instances: int
    models: int
    model_independent: int
    ok: bool
    counterexample: Optional[tuple[AxiomInstance, ScfModel, Profile]] = None

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        note = f" ({self.model_independent} state-determined)" if self.model_independent else ""
        text = (
            f"{self.schema:<14} instances={self.instances:<6} models={self.models:<5}"
            f" {verdict}{note}"
        )
        if self.counterexample is not None:
            inst, model, state = self.counterexample
            text += f"  first failure: {inst.describe()} at state {state} truth {model.truth}"
        return text


@dataclass
class SoundnessReport:
    results: list[SchemaResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [r.line() for r in self.results]
        lines.append("all schemas sound" if self.ok else "SOUNDNESS FAILURE")
        return "\n".join(lines)


def soundness_check(
    instances: Iterable[AxiomInstance], models: Iterable[ScfModel]
) -> SoundnessReport:
    """Check every instance in every model, one run at a time.

    A run is a stretch of consecutive instances of one schema; it gets one
    result, so a schema in two separate runs gets two.  Each run is read
    only after the one before it is checked and dropped, so over the
    `instantiate_all` stream two schemas' instances are live at most.

    Evaluation is batched: one truth mask per instance across the whole
    model list (see `_stacked`), and each run is one batch of roots, so the
    subformulas its instances share are evaluated once.  A run whose
    instances read no true preference is evaluated on one model per
    outcome function, and a state-determined run on the first model only.
    A subformula's mask is dropped after its last reading entry in the
    run's program, and an instance's mask after its check if no later
    entry reads it.  The reported counterexample is the run's first
    failing instance in instantiation order, at its lowest (model, state)
    pair.
    A `TableGrid` is stacked as it is, building no model but the
    counterexamples.  The collector is paused throughout, and so while
    an `instantiate_all` stream builds the instances.
    """
    with _collector_paused():
        if not isinstance(models, _stacked.TableGrid):
            models = list(models)
        ev = _stacked.StackedEvaluator(models)
        runs = itertools.groupby(instances, attrgetter("schema"))
        return SoundnessReport([_check_run(ev, list(run)) for _, run in runs])


def _check_run(ev: _stacked.StackedEvaluator, run: list[AxiomInstance]) -> SchemaResult:
    hit = ev.first_failure(inst.formula for inst in run)
    return SchemaResult(
        schema=run[0].schema,
        instances=len(run),
        models=len(ev.models),
        model_independent=sum(not inst.formula.reads for inst in run),
        ok=hit is None,
        counterexample=None if hit is None else (run[hit[0]], *hit[1:]),
    )


# Largest binder product times stacked width (models x states) of one
# schema that a sweep takes on.  A sweep holds two adjacent schemas'
# instances at most and drops each mask after its last reading entry, so
# the product bounds mainly one schema's instances and the run time.
# At (4,2) over 1008 sampled models (63 outcome functions, each with its 16
# true profiles) comp-At reaches 3.2e9: its 150,528 instances take about
# 2.1 s to build, to a peak of 194 MiB, and 0.8 s to check, and the whole
# sweep peaks at 227 MiB, as comp-At alone does.  At (3,3) over 1080
# sampled models comp-At reaches 1.2e10 and antisym' 3.3e10.  Over 1000
# models there, comp-At checks in about 0.1 s and 66 MiB, and antisym'
# (139,968 instances, which share per-profile subformulas) builds in about
# 6 s, checks in about 37 s and peaks at about 1,560 MiB: too slow and
# too large for a command-line sweep.
SWEEP_LIMIT = 5 * 10**9


def check_sweep_size(n: int, outcomes: Sequence[str], models: Sequence[ScfModel]) -> None:
    """Raise InvalidDomain before any instance is built if a schema's
    binder product over (n, K) and the default pool, times the stacked
    width of `models`, exceeds `SWEEP_LIMIT`.  The product counts bindings
    that a side condition excludes too."""
    scope = _Scope(n, outcomes, default_pool(n, outcomes))
    width = len(models) * len(scope.profiles)
    for schema, (binders, _) in _TABLE.items():
        bindings = math.prod(len(getattr(scope, _DOMAINS[b])) for b in binders.split())
        if bindings * width > SWEEP_LIMIT:
            raise InvalidDomain(
                f"axiom sweep too large: {schema} has {bindings} bindings over {width}"
                f" model states ({bindings * width:.1e}, limit {SWEEP_LIMIT:.0e})"
            )


def pref_necessitation_holds(
    models: Iterable[ScfModel], pool: Iterable[Formula]
) -> bool:
    """Derived rule: whenever a pool formula is valid in a model, so is its
    pref-box, for every agent.

    Evaluated as one batch of roots [N]phi -> [N]PrefBox(i, phi) on one
    stacked evaluator over the models: the grand-coalition box [N] reads
    every state of a model, so a root fails in a model exactly when phi is
    valid there and its pref-box for i is not."""
    models = list(models)
    if not models:
        return True
    ev = _stacked.StackedEvaluator(models)
    agents = range(1, ev.space.n + 1)
    roots = (Implies(Box(agents, phi), Box(agents, PrefBox(i, phi))) for phi in pool for i in agents)
    return ev.first_failure(roots) is None
