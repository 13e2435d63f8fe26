"""Axiom schemas instantiated over a concrete (n, K), checked by model
enumeration.

Each schema of the proof system becomes a finite family of concrete
formulas (instances), quantified over agents, coalitions, outcomes,
profiles and a pool of metavariable formulas.  `soundness_check` verifies
every instance in every supplied model.

Instances whose formulas contain neither outcome atoms nor pref
modalities have state-determined truth, identical across all models over
the same (n, K); the checker evaluates those once and reports them as
model-independent.

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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import _stacked
from .core import LinearOrder, Profile, ScfModel, all_linear_orders, all_profiles
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
    "pref_necessitation_holds",
]

SCHEMAS = (
    "refl",
    "antisym-total",
    "trans",
    "K(i)",
    "T(i)",
    "B(i)",
    "comp-union",
    "confl",
    "empty",
    "exclu",
    "ballot",
    "comp-At",
    "func1",
    "func2",
    "incl",
    "K(pref)",
    "4(pref)",
    "antisym'",
    "total'",
    "unifPref",
)


@dataclass(frozen=True)
class AxiomInstance:
    schema: str
    bindings: dict = field(compare=False)
    formula: Formula

    def describe(self) -> str:
        parts = []
        for key, value in self.bindings.items():
            if isinstance(value, frozenset):
                value = "{" + ",".join(map(str, sorted(value))) + "}"
            parts.append(f"{key}={value}")
        return f"{self.schema}[{', '.join(parts)}]"


def _coalitions(n: int) -> list[frozenset[int]]:
    subsets = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            subsets.append(frozenset(combo))
    return subsets


def _default_cap(n: int, outcomes: tuple[str, ...]) -> int:
    # binary schemas instantiate pool^2 pairs; size the default to the class
    states = len(all_linear_orders(outcomes)) ** n
    models = len(outcomes) ** states * states
    if models <= 64:
        return 64
    if models <= 4096:
        return 48
    return 32


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
    agents = set()
    for node in formula.subformulas():
        if type(node) in (Diamond, Pref) or type(node) is Out:
            return None
        if type(node) is Rep:
            agents.add(node.agent)
    return frozenset(agents)


def instantiate(
    schema: str, n: int, outcomes: Sequence[str], pool: Sequence[Formula]
) -> list[AxiomInstance]:
    """All instances of one schema over every binding of its agents,
    coalitions, outcomes and profiles, metavariables drawn from the pool."""
    names = tuple(outcomes)
    agents = range(1, n + 1)
    grand = frozenset(agents)
    profiles = all_profiles(n, names)
    out: list[AxiomInstance] = []

    def add(bindings: dict, formula: Formula) -> None:
        out.append(AxiomInstance(schema, bindings, formula))

    if schema == "refl":
        for i in agents:
            for x in names:
                add({"i": i, "x": x}, Rep(i, x, x))
    elif schema == "antisym-total":
        for i in agents:
            for x in names:
                for y in names:
                    if x != y:
                        add({"i": i, "x": x, "y": y}, Iff(Rep(i, x, y), Not(Rep(i, y, x))))
    elif schema == "trans":
        for i in agents:
            for x in names:
                for y in names:
                    for z in names:
                        add(
                            {"i": i, "x": x, "y": y, "z": z},
                            Implies(And(Rep(i, x, y), Rep(i, y, z)), Rep(i, x, z)),
                        )
    elif schema == "K(i)":
        for i in agents:
            box = frozenset({i})
            for phi in pool:
                for psi in pool:
                    add(
                        {"i": i, "phi": phi, "psi": psi},
                        Implies(Box(box, Implies(phi, psi)), Implies(Box(box, phi), Box(box, psi))),
                    )
    elif schema == "T(i)":
        for i in agents:
            for phi in pool:
                add({"i": i, "phi": phi}, Implies(Box(frozenset({i}), phi), phi))
    elif schema == "B(i)":
        for i in agents:
            box = frozenset({i})
            for phi in pool:
                add({"i": i, "phi": phi}, Implies(phi, Box(box, Diamond(box, phi))))
    elif schema == "comp-union":
        for c1 in _coalitions(n):
            for c2 in _coalitions(n):
                for phi in pool:
                    add(
                        {"C1": c1, "C2": c2, "phi": phi},
                        Iff(Box(c1, Box(c2, phi)), Box(c1 | c2, phi)),
                    )
    elif schema == "confl":
        # stated for independence between distinct agents; i = j not instantiated
        for i in agents:
            for j in agents:
                if i == j:
                    continue
                for phi in pool:
                    add(
                        {"i": i, "j": j, "phi": phi},
                        Implies(
                            Diamond(frozenset({i}), Box(frozenset({j}), phi)),
                            Box(frozenset({j}), Diamond(frozenset({i}), phi)),
                        ),
                    )
    elif schema == "empty":
        empty = frozenset()
        for phi in pool:
            add({"phi": phi}, Iff(Box(empty, phi), phi))
    elif schema == "exclu":
        reps = [Rep(i, x, y) for i in agents for x in names for y in names]
        for i in agents:
            di = frozenset({i})
            for j in agents:
                if j == i:
                    continue
                dj = frozenset({j})
                for p in reps:
                    add(
                        {"i": i, "j": j, "p": p},
                        Implies(
                            And(Diamond(di, p), Diamond(di, Not(p))),
                            Or(Box(dj, p), Box(dj, Not(p))),
                        ),
                    )
    elif schema == "ballot":
        for i in agents:
            for order in all_linear_orders(names):
                add({"i": i, "order": order}, Diamond(frozenset({i}), ballot_agent(i, order)))
    elif schema == "comp-At":
        deltas = [(f, _at_agent_set(f)) for f in pool]
        deltas = [(f, a) for f, a in deltas if a is not None]
        for c1 in _coalitions(n):
            for c2 in _coalitions(n):
                union = c1 | c2
                for d1, a1 in deltas:
                    for d2, a2 in deltas:
                        if a1 & a2:
                            continue
                        add(
                            {"C1": c1, "C2": c2, "delta1": d1, "delta2": d2},
                            Implies(
                                And(Diamond(c1, d1), Diamond(c2, d2)),
                                Diamond(union, And(d1, d2)),
                            ),
                        )
    elif schema == "func1":
        add(
            {},
            disj(
                conj([Out(x)] + [Not(Out(y)) for y in names if y != x])
                for x in names
            ),
        )
    elif schema == "func2":
        for profile in profiles:
            label = ballot_profile(profile)
            for phi in pool:
                add(
                    {"profile": profile, "phi": phi},
                    Implies(And(label, phi), Box(grand, Implies(label, phi))),
                )
    elif schema == "incl":
        for i in agents:
            for phi in pool:
                add({"i": i, "phi": phi}, Implies(Box(grand, phi), PrefBox(i, phi)))
    elif schema == "K(pref)":
        for i in agents:
            for phi in pool:
                for psi in pool:
                    add(
                        {"i": i, "phi": phi, "psi": psi},
                        Implies(
                            PrefBox(i, Implies(phi, psi)),
                            Implies(PrefBox(i, phi), PrefBox(i, psi)),
                        ),
                    )
    elif schema == "4(pref)":
        for i in agents:
            for phi in pool:
                add({"i": i, "phi": phi}, Implies(Pref(i, Pref(i, phi)), Pref(i, phi)))
    elif schema == "antisym'":
        for i in agents:
            for p1 in profiles:
                for p2 in profiles:
                    b1, b2 = ballot_profile(p1), ballot_profile(p2)
                    same_outcome = disj(
                        And(Diamond(grand, And(b1, Out(x))), Diamond(grand, And(b2, Out(x))))
                        for x in names
                    )
                    add(
                        {"i": i, "profile1": p1, "profile2": p2},
                        Implies(
                            Diamond(grand, And(b1, Pref(i, b2))),
                            Or(Box(grand, Implies(b2, PrefBox(i, Not(b1)))), same_outcome),
                        ),
                    )
    elif schema == "total'":
        for i in agents:
            for p1 in profiles:
                for p2 in profiles:
                    b1, b2 = ballot_profile(p1), ballot_profile(p2)
                    add(
                        {"i": i, "profile1": p1, "profile2": p2},
                        Or(
                            Diamond(grand, And(b1, Pref(i, b2))),
                            Box(grand, Implies(b2, Pref(i, b1))),
                        ),
                    )
    elif schema == "unifPref":
        for i in agents:
            for x in names:
                for y in names:
                    add(
                        {"i": i, "x": x, "y": y},
                        Implies(
                            And(Out(x), Pref(i, Out(y))),
                            better(n, names, i, Out(x), Out(y)),
                        ),
                    )
    else:
        raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    return out


def instantiate_all(
    n: int, outcomes: Sequence[str], pool: Optional[Sequence[Formula]] = None
) -> list[AxiomInstance]:
    if pool is None:
        pool = default_pool(n, outcomes)
    instances: list[AxiomInstance] = []
    for schema in SCHEMAS:
        instances.extend(instantiate(schema, n, outcomes, pool))
    return instances


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
    """Check every instance in every model.

    Evaluation is batched: one truth mask per instance across the whole
    model list (see `_stacked`).  The reported counterexample is the first
    failing instance in instantiation order, at its lowest (model, state)
    pair.  The memo is dropped between schemas to bound memory.
    """
    instances = list(instances)
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    ev = _stacked.StackedEvaluator(models)
    by_schema: dict[str, list[AxiomInstance]] = {}
    for inst in instances:
        by_schema.setdefault(inst.schema, []).append(inst)
    results = []
    for schema, group in by_schema.items():
        failure: Optional[tuple[AxiomInstance, ScfModel, Profile]] = None
        for inst in group:
            where = ev.first_failure(inst.formula)
            if where is not None:
                model_idx, state_idx = where
                failure = (inst, models[model_idx], ev.space.profiles[state_idx])
                break
        independent = sum(
            1 for inst in group if not (inst.formula.uses_outcome or inst.formula.uses_pref)
        )
        results.append(
            SchemaResult(
                schema=schema,
                instances=len(group),
                models=len(models),
                model_independent=independent,
                ok=failure is None,
                counterexample=failure,
            )
        )
        ev.clear_memo()
    return SoundnessReport(results)


def pref_necessitation_holds(
    models: Iterable[ScfModel], pool: Iterable[Formula]
) -> bool:
    """Derived rule: whenever a pool formula is valid in a model, so is its
    pref-box, for every agent.

    Evaluated on one stacked batch over the models: for each pool formula,
    every model falsifying one of its pref-boxes must falsify the formula
    itself."""
    models = list(models)
    if not models:
        return True
    ev = _stacked.StackedEvaluator(models)
    for phi in pool:
        invalid = ev.falsified_blocks(phi)
        for agent in range(1, ev.space.n + 1):
            if ev.falsified_blocks(PrefBox(agent, phi)) & ~invalid:
                return False
    return True
