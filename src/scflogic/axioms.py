"""Axiom schemas instantiated over a concrete (n, K), checked by model
enumeration.

Each schema of the proof system becomes a finite family of concrete
formulas (instances), quantified over agents, coalitions, outcomes,
profiles and a pool of metavariable formulas.  `soundness_check` verifies
each schema's instances in every supplied model as `instantiate_all`
streams them; `check_sweep_size` refuses, from the binder domain sizes
alone, a sweep too large to hold in memory.

Each schema is one row of a table: its binder names and a builder of the
instance for one binding.  A binder ranges over agents, outcomes, the
pool, coalitions, reported atoms, rankings, profiles or, for comp-At, the
pool's reported-atom fragment; a side condition (x != y, i != j,
disjoint agent sets) makes two binders range together over the pairs it
keeps, so an excluded binding is never made.  `instantiate` evaluates no
builder, makes no record and lists no binding: it returns an
`Instances`, the schema, its binder names, the scope of the call and the
domain of each binder group, which reads as the list of the records of
the domains' product, the bound values of item k decoded from k.  A
record, an `AxiomInstance`, is made when an item is read: a slotted
immutable record of the schema, its binder names, one value tuple and
the scope, whose `bindings` dict is built only when read, and its
formula on its first read.

A builder is written once, against the constructors of the `_Scope` it
is called with (`s.Or`, `s.Implies`, `s.Box`, ...), as in the
tagless-final style of Carette, Kiselyov and Shan (2009).  A formula
scope supplies `logic`'s, so the builder returns the interned instance
formula; a direct scope supplies a `_stacked._Direct`'s, whose
constructors compute each value's mask at once on a view of the
stacked models, so the builder returns the instance's truth mask.  The
scope extends the one the property encodings are written against
(`encodings._Scope`), so a ballot, its reach and the global preference
`better` are built by the encodings' own builders and tables.  A
subformula that reads only some of the binders, such as [i]phi in K(i)
or <C1>delta1 in comp-At, is taken from a memo table of the scope, keyed
by the values it reads, and built once per binding of those.  The tables
go with the scope.  `soundness_check` checks every run in one loop over
a builder and rows of bound values: per binding of every binder group
but the last, the last group's values.  An `Instances` is a run of its
schema's builder, its rows read off its domains, and a stretch of
records of one schema a run of a builder returning its one bound value,
the record's formula, which the direct scope evaluates as it does a pool
formula.  The last group's formulas or profiles of one read-set are
checked a block at a time, side by side along the mask on a view tiled
once per instance (`_stacked._Tiled`), up to `_stacked._CHUNK_BITS`
bits, so the builder runs once per block and its memo tables hold one
value per block: comp-At at (3,{a,b}), 56,320 instances, makes 64
builder calls, one per coalition pair.  So a sweep of `Instances` makes
no record but a counterexample's, and builds no instance formula and no
program.

Instances whose formulas contain neither outcome atoms nor pref
modalities have state-determined truth, identical across all models over
the same (n, K); the checker counts those per schema, from the read-sets
the direct values carry, and reports the count.  An instance is
evaluated at the width it reads, by the one rule `TableGrid.narrowed`
keeps: a state-determined instance on the first model alone, one without
pref modalities on one model per outcome function, one whose pref
modalities name agent i alone (each instance of K(pref), 4(pref), incl,
unifPref, antisym' and total') on the first model of each of agent i's
rankings per outcome function, and one that reads every agent on every
model; a block's instances read alike, so a block is checked at the
width each of them reads.  A run starts on the narrowest view and moves
at the first block that reads more than its view was asked for, to the
view for what that block reads, so a run over agents 1..n visits each
agent's view in turn.  It holds one evaluator over its models and one view per
shape it visits (rows kept or not, agents kept), each kept by
`StackedEvaluator._view` for later runs; the evaluator is kept for later
calls too (`_stacked.stack`), so a sweep of one model list schema by
schema stacks the list once.  Building instances and checking them
pause the cyclic garbage collector (`logic._collector_paused`):
interned nodes and direct values are acyclic, so its passes over the
growing live set could free nothing the build made.

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

import collections.abc
import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import _stacked, encodings
from .core import InvalidDomain, Profile, ScfModel, _bounded_size, all_linear_orders
from .encodings import _Memo, _ballot_agent, ballot_agent
from .logic import (
    Box,
    Diamond,
    Formula,
    Implies,
    Not,
    Or,
    Out,
    Pref,
    PrefBox,
    Rep,
    _collector_paused,
)

__all__ = [
    "SCHEMAS",
    "AxiomInstance",
    "Instances",
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

    A slotted record, made when an item of an `Instances` is read: it
    holds the schema's binder names, one tuple shared by all its
    instances, the tuple of bound values `instantiate`'s product made, and
    the scope of that `instantiate` call, which all its records share;
    `bindings` builds a fresh dict of the values, in binder order, on each
    read.  `formula` is built on its first read, by the schema's builder
    in that scope, as the interned node a build of it always gives, and
    kept.  A record built by hand holds its formula from the start, and
    its scope is None.  It behaves as the frozen dataclass it replaces: built
    positionally as `AxiomInstance(schema, bindings, formula)`, equal and
    hashed by (schema, formula) with the bindings ignored, immutable, and
    copied and pickled through that constructor."""

    __slots__ = ("schema", "_names", "_values", "_scope", "_formula", "__weakref__")

    def __init__(self, schema: str, bindings: dict, formula: Formula):
        _fill(self, schema, tuple(bindings), tuple(bindings.values()), None)
        _set(self, "_formula", formula)

    @property
    def bindings(self) -> dict:
        return dict(zip(self._names, self._values))

    @property
    def formula(self) -> Formula:
        try:
            return self._formula
        except AttributeError:
            _set(self, "_formula", _TABLE[self.schema][1](self._scope, *self._values))
            return self._formula

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
    inst: AxiomInstance, schema: str, names: tuple, values: tuple, scope: Optional[_Scope]
) -> AxiomInstance:
    _set(inst, "schema", schema)
    _set(inst, "_names", names)
    _set(inst, "_values", values)
    _set(inst, "_scope", scope)
    return inst


class Instances(collections.abc.Sequence):
    """The instances of one schema, as `instantiate` returns them: the
    schema, its binder names, the scope of the call and the domain of each
    binder group, a side condition's pair one group, whose product, last
    group fastest, lists the bindings.  No binding is listed: the bound
    values of item k are decoded from k, by mixed radix over the domains'
    sizes.  It reads as the list of their records: `len`, indexing,
    iteration and `==` against a list of records behave as that list's do,
    so it is not hashable, and a slice is the `Instances` of the slice of
    bindings.  A record is made only when an item is read, a fresh one on
    each read, each the one `AxiomInstance` of its binding, with its
    formula built on its first read.  `soundness_check` checks an
    `Instances` from its domains, one row of the last group's values per
    binding of the others (`_rows`), making no record but a
    counterexample's."""

    __slots__ = ("schema", "_names", "_scope", "_domains", "_pair", "_span", "__weakref__")

    def __init__(
        self,
        schema: str,
        names: tuple,
        scope: _Scope,
        domains: list[Sequence],
        pair: Optional[int],
        span: Optional[range] = None,
    ):
        self.schema, self._names, self._scope = schema, names, scope
        self._domains, self._pair = domains, pair
        self._span = range(math.prod(map(len, domains))) if span is None else span  # of the product

    def __len__(self) -> int:
        return len(self._span)

    def _record(self, values: tuple) -> AxiomInstance:
        return _fill(_new(AxiomInstance), self.schema, self._names, values, self._scope)

    def _at(self, index: int) -> tuple:
        """The bound values of binding `index` of the whole product."""
        picked = []
        for domain in reversed(self._domains):
            index, digit = divmod(index, len(domain))
            picked.append(domain[digit])
        return _spread(tuple(reversed(picked)), self._pair)

    def _whole(self) -> bool:
        return self._span == range(math.prod(map(len, self._domains)))

    def _bound(self) -> Iterator[tuple]:
        """The bound values of each binding, in order."""
        if self._whole():
            return _spread_all(itertools.product(*self._domains), self._pair)
        return map(self._at, self._span)

    def _rows(self) -> Iterable[tuple[tuple, Sequence[tuple]]]:
        """The bindings as rows (`_check_run`): per binding of every binder
        group but the last, in order, its bound values and the last
        group's values, a tuple per binding.  On the whole product the
        last group's values are its domain, shared by every row."""
        *outer, last = self._domains or [()]
        pair = self._pair
        if pair == len(outer):  # the pair group is the last: its values are tuples
            positions, pair = last, None
        else:
            positions = [(value,) for value in last]
        if self._domains and self._whole():
            return ((values, positions) for values in _spread_all(itertools.product(*outer), pair))
        return _grouped(self._bound(), len(self._names) - len(positions[0]) if positions else 0)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Instances(
                self.schema, self._names, self._scope, self._domains, self._pair, self._span[index]
            )
        return self._record(self._at(self._span[index]))

    def __iter__(self) -> Iterator[AxiomInstance]:
        return map(self._record, self._bound())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, Instances)):
            return NotImplemented
        return list(self) == list(other)


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


class _Scope(encodings._Scope):
    """What one instantiation ranges over and builds with: the encodings'
    scope over (n, K), with its constructors and shared memo tables, the
    binder domains over (n, K) and the pool, each computed on first use,
    so that a direct scope lists none, and the memo tables only the
    schemas read.

    A builder is written once against its scope's constructors (`s.Or`,
    `s.Implies`, `s.Box`, ...), in the tagless-final style of Carette,
    Kiselyov and Shan (2009).  A formula scope supplies `logic`'s, so a
    builder returns the instance formula; a direct scope supplies those of
    a `_stacked._Direct`, so it returns the instance's value, its mask on
    one view of the stacked models, and pool formulas are evaluated on
    that view (`lift`); `lifted` maps a bound value to what a builder
    takes, a formula to its value and any other value to itself.  Each
    memo table holds one kind of subformula, keyed by the binder values it
    reads (values, hashed by identity, in a direct scope), so a builder
    makes it once per such binding rather than once per binding of all the
    schema's binders: besides the encodings' tables (`out`, `pref`,
    `ballot`, `reach`, `fall` and `better`), `box` and `dia` per
    (coalition, formula), `prefbox` per (agent, formula), `union` per
    coalition pair and `pair` per comp-At fragment pair.  `single` is the
    prebuilt coalition {i} of each agent.  No table's build refers back
    to the scope, so the tables and what only they hold go with the scope,
    collector or not."""

    def __init__(self, n: int, outcomes: Sequence[str], pool: Sequence[Formula], direct=None):
        super().__init__(n, outcomes, direct)
        self.pool = pool
        self.single = {i: frozenset((i,)) for i in self.agents}
        self.lift = lift = direct.lift if direct else lambda formula: formula
        self.box = _Memo(self.Box)
        self.dia = _Memo(self.Diamond)
        self.prefbox = _Memo(self.PrefBox)
        self.union = _Memo(frozenset.union)
        self.pair = _Memo(self.And)
        self.lifted = _Memo(lambda value: lift(value) if isinstance(value, Formula) else value)

    @cached_property
    def coalitions(self) -> list[frozenset[int]]:
        return [frozenset(c) for size in range(self.n + 1) for c in itertools.combinations(self.agents, size)]

    @cached_property
    def rankings(self) -> tuple:
        return all_linear_orders(self.outcomes)

    @cached_property
    def distinct_agents(self) -> list[tuple[int, int]]:
        return list(itertools.permutations(self.agents, 2))

    @cached_property
    def distinct_outcomes(self) -> list[tuple[str, str]]:
        return list(itertools.permutations(self.outcomes, 2))

    @cached_property
    def reps(self) -> list[Formula]:
        return [Rep(i, x, y) for i in self.agents for x in self.outcomes for y in self.outcomes]

    @cached_property
    def fragment(self) -> list[Formula]:
        """The pool's modality-free reported-atom formulas, for comp-At."""
        return [f for f in self.pool if self.atom_agents[f] is not None]

    @cached_property
    def atom_agents(self) -> dict[Formula, Optional[frozenset[int]]]:
        """`_at_agent_set` of each pool formula, computed once per formula."""
        return {f: _at_agent_set(f) for f in self.pool}

    @cached_property
    def compatible(self) -> list[tuple[Formula, Formula]]:
        """comp-At's fragment pairs in which no agent controls atoms of both."""
        agents, fragment = self.atom_agents, self.fragment
        return [(d1, d2) for d1 in fragment for d2 in fragment if not agents[d1] & agents[d2]]


# binder name -> the `_Scope` attribute holding its domain; two binders
# joined by a comma range together over the pairs their side condition keeps
_DOMAINS = {
    **dict.fromkeys(("i", "j"), "agents"),
    **dict.fromkeys(("x", "y", "z"), "outcomes"),
    **dict.fromkeys(("phi", "psi"), "pool"),
    **dict.fromkeys(("C1", "C2"), "coalitions"),
    **dict.fromkeys(("profile", "profile1", "profile2"), "profiles"),
    **dict.fromkeys(("delta1", "delta2"), "fragment"),
    "p": "reps",
    "order": "rankings",
    "i,j": "distinct_agents",
    "x,y": "distinct_outcomes",
    "delta1,delta2": "compatible",
}


def _antisym(s: _Scope, i: int, p1: Profile, p2: Profile):
    b1, b2 = s.ballot[p1], s.ballot[p2]
    same_outcome = reduce(s.Or, [s.And(s.reach[b1, x], s.reach[b2, x]) for x in s.outcomes])
    return s.Implies(
        s.Diamond(s.grand, s.And(b1, s.pref[i, b2])),
        s.Or(s.Box(s.grand, s.Implies(b2, s.prefbox[i, s.Not(b1)])), same_outcome),
    )


def _total(s: _Scope, i: int, p1: Profile, p2: Profile):
    b1, b2 = s.ballot[p1], s.ballot[p2]
    return s.Or(
        s.Diamond(s.grand, s.And(b1, s.pref[i, b2])), s.Box(s.grand, s.Implies(b2, s.pref[i, b1]))
    )


def _k_i(s: _Scope, i: int, phi, psi):
    c = s.single[i]
    return s.Implies(s.Box(c, s.Implies(phi, psi)), s.Implies(s.box[c, phi], s.box[c, psi]))


def _confl(s: _Scope, i: int, j: int, phi):
    ci, cj = s.single[i], s.single[j]
    return s.Implies(s.dia[ci, s.box[cj, phi]], s.box[cj, s.dia[ci, phi]])


def _exclu(s: _Scope, i: int, j: int, p):
    ci, cj, not_p = s.single[i], s.single[j], s.Not(p)
    return s.Implies(s.And(s.dia[ci, p], s.dia[ci, not_p]), s.Or(s.box[cj, p], s.box[cj, not_p]))


def _comp_at(s: _Scope, c1: frozenset[int], c2: frozenset[int], d1, d2):
    return s.Implies(s.And(s.dia[c1, d1], s.dia[c2, d2]), s.dia[s.union[c1, c2], s.pair[d1, d2]])


def _func2(s: _Scope, profile: Profile, phi):
    ballot = s.ballot[profile]
    return s.Implies(s.And(ballot, phi), s.Box(s.grand, s.Implies(ballot, phi)))


def _unif_pref(s: _Scope, i: int, x: str, y: str):
    # out(x) & pref(i) out(y) -> `encodings.better(n, K, i, out(x), out(y))`,
    # from the scope's `better` table, which that builder reads too
    lo, hi = s.out[x], s.out[y]
    return s.Implies(s.And(lo, s.Pref(i, hi)), s.better[i, lo, hi])


# Each schema: its binder names, bound in this order (the last one varies
# fastest), and the builder of the instance for one binding, called with
# the scope and the bound values.  A side condition (x != y, i != j, no
# agent controlling atoms of both comp-At fragments) is a pair domain
# (`_DOMAINS`), so an excluded binding is never made.  A builder calls only
# its scope's constructors, and takes each subformula that reads fewer
# binders than the instance from the scope's memo tables.  Table order is
# `SCHEMAS` order.
_TABLE: dict[str, tuple[str, Callable[..., object]]] = {
    "refl": ("i x", lambda s, i, x: s.Rep(i, x, x)),
    "antisym-total": ("i x,y", lambda s, i, x, y: s.Iff(s.Rep(i, x, y), s.Not(s.Rep(i, y, x)))),
    "trans": (
        "i x y z",
        lambda s, i, x, y, z: s.Implies(s.And(s.Rep(i, x, y), s.Rep(i, y, z)), s.Rep(i, x, z)),
    ),
    "K(i)": ("i phi psi", _k_i),
    "T(i)": ("i phi", lambda s, i, phi: s.Implies(s.box[s.single[i], phi], phi)),
    "B(i)": (
        "i phi",
        lambda s, i, phi: s.Implies(phi, s.box[s.single[i], s.dia[s.single[i], phi]]),
    ),
    "comp-union": (
        "C1 C2 phi",
        lambda s, c1, c2, phi: s.Iff(s.box[c1, s.box[c2, phi]], s.box[s.union[c1, c2], phi]),
    ),
    "confl": ("i,j phi", _confl),  # stated for independence between distinct agents
    "empty": ("phi", lambda s, phi: s.Iff(s.Box((), phi), phi)),
    "exclu": ("i,j p", _exclu),
    "ballot": ("i order", lambda s, i, order: s.Diamond({i}, _ballot_agent(s, i, order))),
    "comp-At": ("C1 C2 delta1,delta2", _comp_at),
    "func1": (
        "",
        lambda s: reduce(
            s.Or,
            [reduce(s.And, [s.Out(x)] + [s.Not(s.Out(y)) for y in s.outcomes if y != x])
             for x in s.outcomes],
        ),
    ),
    "func2": ("profile phi", _func2),
    "incl": ("i phi", lambda s, i, phi: s.Implies(s.box[s.grand, phi], s.prefbox[i, phi])),
    "K(pref)": (
        "i phi psi",
        lambda s, i, phi, psi: s.Implies(
            s.PrefBox(i, s.Implies(phi, psi)), s.Implies(s.prefbox[i, phi], s.prefbox[i, psi])
        ),
    ),
    "4(pref)": ("i phi", lambda s, i, phi: s.Implies(s.Pref(i, s.pref[i, phi]), s.pref[i, phi])),
    "antisym'": ("i profile1 profile2", _antisym),
    "total'": ("i profile1 profile2", _total),
    "unifPref": ("i x y", _unif_pref),
}

SCHEMAS = tuple(_TABLE)


def instantiate(schema: str, n: int, outcomes: Sequence[str], pool: Sequence[Formula]) -> Instances:
    """All instances of one schema over every binding of its agents,
    coalitions, outcomes and profiles, metavariables drawn from the pool,
    that its side condition keeps, as an `Instances`: the binder domains,
    whose product it reads as the records of the bindings, each formula
    built when read."""
    if schema not in _TABLE:
        raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    binders = _TABLE[schema][0]
    names = tuple(binders.replace(",", " ").split())
    with _collector_paused():
        scope = _Scope(n, outcomes, pool)
        return Instances(schema, names, scope, *_domains(scope, binders))


def _domains(scope: _Scope, binders: str) -> tuple[list[Sequence], Optional[int]]:
    """The domain of each group of `binders` over `scope`, as a tuple read
    once, and the index of the pair group, whose values are pairs, or
    None."""
    groups = binders.split()
    pair = next((at for at, group in enumerate(groups) if "," in group), None)
    return [tuple(getattr(scope, _DOMAINS[group])) for group in groups], pair


def _spread(values: tuple, pair: Optional[int]) -> tuple:
    """One value per binder of a product tuple, the pair group's spread."""
    return values if pair is None else values[:pair] + values[pair] + values[pair + 1 :]


def _spread_all(bindings: Iterator[tuple], pair: Optional[int]) -> Iterator[tuple]:
    return bindings if pair is None else (_spread(values, pair) for values in bindings)


def _bindings(scope: _Scope, binders: str) -> Iterator[tuple]:
    """The bound values of each binding of `binders` over `scope`'s
    domains, in product order, a pair's values spread over its two binders."""
    domains, pair = _domains(scope, binders)
    return _spread_all(itertools.product(*domains), pair)


def _grouped(bindings: Iterable[tuple], cut: int) -> Iterator[tuple[tuple, list[tuple]]]:
    """Rows of `bindings` (`_check_run`): each stretch of bindings whose
    first `cut` values agree, as those values and the rest of each."""
    for outer, group in itertools.groupby(bindings, lambda values: values[:cut]):
        yield outer, [values[cut:] for values in group]


def instantiate_all(
    n: int, outcomes: Sequence[str], pool: Optional[Sequence[Formula]] = None
) -> Iterator[Instances]:
    """Every schema's `Instances` in `SCHEMAS` order, each built when
    reached; a schema no binding of which its side condition keeps gives an
    empty one."""
    if pool is None:
        pool = default_pool(n, outcomes)
    return (instantiate(schema, n, outcomes, pool) for schema in SCHEMAS)


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
    instances: Iterable[AxiomInstance | Instances], models: Iterable[ScfModel]
) -> SoundnessReport:
    """Check every instance in every model, one run at a time.

    `instances` is an `Instances`, or a stream of `Instances` and records,
    such as `instantiate_all`'s.  A run is a non-empty `Instances`, or a
    stretch of consecutive records of one schema; it gets one result, so a
    schema in two separate runs gets two.  Each run is read only after the
    one before it is checked and dropped, so over the `instantiate_all`
    stream two schemas' instances are live at most.

    Every run is checked by the one loop of `_check_run`, over a builder
    and rows of bound values, per binding of every binder group but the
    last, the last group's values: an `Instances` with its schema's
    builder, its rows read off its domains, making no record but a
    counterexample's, a run of records that one `instantiate` call made
    the same way, on their values, and a run of other records with a
    builder that returns its one bound value, the record's formula, in a
    scope over the models' (n, K).  A builder runs in direct scopes, one
    per run, view and block size, on its bound values, pool formulas and
    hand-built records' formulas evaluated on the view; so no `Instances`,
    nor a list of its records, builds an instance formula or a program,
    and the subformulas its instances share are evaluated once per scope,
    through its memo tables.  Evaluation is batched twice: one truth mask
    across the whole model list (see `_stacked`), each at the width it
    reads, and a block of a row's instances whose last values are
    formulas or profiles of one read-set side by side in one mask, up to
    `_stacked._CHUNK_BITS` bits.  A mask is dropped once no memo table or
    later constructor holds it.  The reported counterexample is the run's
    first failing instance in instantiation order, at its lowest (model,
    state) pair; no row after its row is evaluated, and the
    state-determined instances from its row on are counted from their
    formulas' read-sets.  A `TableGrid` is stacked as it is, building no
    model but the counterexamples.  The models are stacked by
    `_stacked.stack`, so a call over the same grid, or the same model
    objects in the same order, as the last call over their (n, K) reuses
    that call's evaluator, with its masks and views; its models are the
    caller's objects, so the counterexamples are too.  The collector is
    paused throughout, and so while an `instantiate_all` stream builds the
    instances.  A run whose instances are over another agent count or
    outcome set than the models raises InvalidDomain before any of its
    instances is checked.
    """
    with _collector_paused():
        ev = _stacked.stack(models)
        return SoundnessReport([_check_run(ev, run) for run in _runs(instances)])


def _runs(
    instances: Iterable[AxiomInstance | Instances],
) -> Iterator[Instances | list[AxiomInstance]]:
    """The runs of `instances`: each non-empty `Instances`, and each
    stretch of consecutive records of one schema as a list."""
    if isinstance(instances, Instances):
        instances = (instances,)
    for key, group in itertools.groupby(instances, lambda item: type(item) is Instances or item.schema):
        if key is True:
            yield from filter(None, group)
        else:
            yield list(group)


def _check_run(ev: _stacked.StackedEvaluator, run: Instances | list[AxiomInstance]) -> SchemaResult:
    """The result of one run, from one loop over a builder and rows of
    bound values: an `Instances`' schema builder, its scope and its rows
    (`Instances._rows`); the same for a list of records that all hold one
    scope, that of the `instantiate` call that made them, each stretch of
    records that agree on every binder group but the last one row; or for
    any other list of records a builder returning its one bound value, the
    record's formula, in a scope over `ev`'s (n, K) with an empty pool, all
    the records one row.  A row is the values of the outer binders and the
    last group's values of each of its instances, its positions.

    The positions of a row are checked a block at a time, in direct scopes
    over the run's scope's (n, K) and pool on `ev`'s view for the read-set
    `reads` (`StackedEvaluator._view`).  A block is up to d positions whose
    values are formulas or profiles of one read-set, d = max(1,
    `_stacked._CHUNK_BITS` // W) for the view's width W, and positions whose
    values are neither a block each; the blocks of a row follow its
    read-set groups in order of first appearance, each group's positions
    in order (`_order`).  The builder runs once per block, on a view tiled
    once per position (`_stacked._Tiled`): each value of the block is
    stacked along the mask, copy e the value of position e on the view, a
    profile as its ballot, which the scope's `ballot` table maps to itself;
    the outer values are lifted on the tiled view, so copy e of the
    result is position e's instance's mask.  A block of one is run on the
    view itself, its values mapped to what a builder takes by the direct
    scope's `lifted` table.  So each instance reads what it reads alone
    and is checked on the view that decides it, and a state-determined
    block counts its every instance.  The row's first failing instance
    is its lowest failing position over all its blocks, at its block's
    lowest bad bit (`_locate`), and no row after it is evaluated: the
    state-determined instances from its row on are counted from their
    formulas' read-sets.  The counterexample's record is read from `run`,
    so it is the caller's own.

    A direct scope keeps the shape of `reads` (`_stacked._shape`), not its
    view's, so it raises `_stacked._Narrow` at what reads more than `reads`
    even where the view is wider, as where agent 1's view is the stack
    itself.  `reads` starts empty; at a block that raises it, the run
    resumes there on the view for what it needs: its outcome bit is kept,
    its agents replaced, so a run over agents 1 and 2 moves from agent 1's
    view to agent 2's, and joined if the same block asks again, so an
    instance reading two agents lands on their joint view.  Each instance
    is evaluated on a view that decides it, and the ones before it keep
    the answers their own view gives."""
    if isinstance(run, Instances):
        build, scope, rows, bound = _TABLE[run.schema][1], run._scope, run._rows(), run._bound
    else:
        if run[0]._scope is not None and all(inst._scope is run[0]._scope for inst in run):
            build, scope = _TABLE[run[0].schema][1], run[0]._scope
            values = [inst._values for inst in run]
            last = _TABLE[run[0].schema][0].split()[-1:]
            rows = _grouped(values, len(values[0]) - sum(len(group.split(",")) for group in last))
        else:
            build, values = lambda s, formula: formula, [(inst.formula,) for inst in run]
            scope = _Scope(ev.space.n, ev.space.outcomes, ())
            rows = [((), values)]
        bound = values.__iter__
    if scope.n != ev.space.n or set(scope.outcomes) != set(ev.space.outcomes):
        raise InvalidDomain(f"{run[0].schema} instances over n={scope.n}, K={','.join(scope.outcomes)} cannot be"
                            f" checked on models over n={ev.space.n}, K={','.join(ev.space.outcomes)}")
    rows = iter(rows)
    row = next(rows, None)
    reads = independent = offset = done = counted = 0
    raised = None  # (offset, done) of the block that last raised `_Narrow`
    order = ends = stacks = None
    best = None  # (position, view, bad bits) of the row's lowest failure so far
    while row is not None:
        view = ev._view(reads)
        visit = _Visit(scope, view, _stacked._shape(ev.space.n, reads))
        width, lifted = visit.width, visit.base.lifted.__getitem__
        try:
            while row is not None:
                outer, positions = row
                if order is None:
                    order, ends, stacks = _order(positions)
                most = max(1, _stacked._CHUNK_BITS // width) if stacks else 1
                while done < len(order):
                    stop, at = min(done + most, ends[done]), order[done]
                    if best is None or at < best[0]:
                        if stop - done == 1:
                            target, args = visit.base, map(lifted, outer + positions[at])
                        else:
                            target, args = visit.stacked(outer, positions, order, done, stop)
                        value = build(target, *args)
                        if not value.reads:
                            counted += stop - done
                        if value.mask != target.TRUE.mask:
                            bad = target.TRUE.mask ^ value.mask
                            slot = ((bad & -bad).bit_length() - 1) // width
                            if best is None or order[done + slot] < best[0]:
                                best = (order[done + slot], view, bad >> slot * width)
                    done = stop
                if best is not None:  # no row after the failing one is evaluated
                    row = None
                    break
                independent, counted = independent + counted, 0
                offset, done, row = offset + len(positions), 0, next(rows, None)
                if row is not None and row[1] is not positions:
                    order = None
        except _stacked._Narrow as narrow:
            (need,) = narrow.args
            reads = reads | need if raised == (offset, done) else reads & 1 | need
            raised = (offset, done)
    hit = None
    if best is not None:  # the instances from the failing row on are counted, not evaluated
        position, view, bad = best
        hit = (run[offset + position], *ev._locate(view, bad))
        rest = itertools.islice(bound(), offset, None)
        independent += sum(not build(scope, *values).reads for values in rest)
    return SchemaResult(
        schema=run[0].schema,
        instances=len(run),
        models=len(ev.models),
        model_independent=independent,
        ok=hit is None,
        counterexample=hit,
    )


def _order(positions: Sequence[tuple]) -> tuple[list[int], list[int], bool]:
    """The positions of a row in block order, the end of each one's group
    in that order, and whether its values stack.  The values of a binder
    are all of one kind; if each binder's are formulas or profiles, the
    positions are grouped by the read-sets of their formulas (a profile's
    ballot reads nothing), groups in order of first appearance and the
    positions in order in each; otherwise they are one group in order,
    and do not stack."""
    first = positions[0]
    if not first or not all(isinstance(value, (Formula, Profile)) for value in first):
        return list(range(len(positions))), [len(positions)] * len(positions), False
    columns = [at for at, value in enumerate(first) if isinstance(value, Formula)]
    groups: dict[tuple, list[int]] = {}
    for at, values in enumerate(positions):
        groups.setdefault(tuple([values[column].reads for column in columns]), []).append(at)
    order: list[int] = []
    ends: list[int] = []
    for group in groups.values():
        order += group
        ends += [len(order)] * len(group)
    return order, ends, True


class _Visit:
    """A run's direct scopes on one view: `base`, on the view itself, for a
    block of one and to lift the values a larger block stacks, and one on
    the view tiled once per position for each larger block size, whose
    memo tables serve every row; and the stacked values of the blocks of
    the row they were stacked for, by the block's start."""

    def __init__(self, scope: _Scope, view: _stacked.StackedEvaluator, keeps: int):
        self.scope, self.view, self.keeps = scope, view, keeps
        self.width = view.full.bit_length()
        self.base = _Scope(scope.n, scope.outcomes, scope.pool, _stacked._Direct(view, keeps))
        self.tiled: dict[int, _Scope] = {}
        self.positions: Optional[Sequence[tuple]] = None
        self.blocks: dict[int, list] = {}

    def stacked(self, outer: tuple, positions: Sequence[tuple], order: list[int], start: int, stop: int):
        """The scope for the block of positions `order[start:stop]`, and
        what the builder takes for it: the outer values lifted on that
        scope's tiled view, then the block's stacked values."""
        if positions is not self.positions:
            self.positions, self.blocks = positions, {}
        # stacked first: a value that reads more than the view keeps raises
        # `_Narrow` before a tiled view is made for it
        stacked = self.blocks.get(start) or self._stack([positions[at] for at in order[start:stop]])
        target = self.tiled.get(stop - start)
        if target is None:
            direct = _stacked._Direct(_stacked._Tiled(self.view, stop - start), self.keeps)
            scope = self.scope
            target = self.tiled[stop - start] = _Scope(scope.n, scope.outcomes, scope.pool, direct)
        if start not in self.blocks:
            self.blocks[start] = stacked
            for value, bound in zip(stacked, positions[order[start]]):
                if not isinstance(bound, Formula):  # a profile: the stacked value is its ballot
                    target.ballot[value] = value
        return target, [*map(target.lifted.__getitem__, outer), *stacked]

    def _stack(self, values: list[tuple]) -> list[_stacked._Value]:
        """Per binder, its values in `values` stacked along the mask, each
        lifted on the view first: a formula as its value, a profile as its
        ballot's."""
        stacked = []
        for column in zip(*values):
            table = self.base.lifted if isinstance(column[0], Formula) else self.base.ballot
            parts = [table[value] for value in column]
            mask = _stacked._stack([part.mask for part in parts], self.width)
            stacked.append(_stacked._Value(mask, parts[0].reads))
        return stacked


# Largest binder product times checked width (models x states) of one
# schema that a sweep takes on, the width being that of the view its
# instances are checked on (`check_sweep_size`).  A sweep holds two
# adjacent schemas' instances at most and evaluates each block of
# instances as its builder runs, keeping only the masks its scope's memo
# tables hold, so the product bounds mainly the run time.  At (4,2) over
# 1008 sampled models (63 outcome functions, each with its 16 true
# profiles) comp-At reaches 2.0e8: its 150,528 bindings, all on the first
# model in blocks of 588 fragment pairs, take 3-6 ms to check, and the
# whole `axioms` command takes about 0.1 s and peaks at 19 MiB.  At (3,3)
# over 1080 sampled models antisym' and total' reach 9.1e8: 139,968
# instances each, which share per-profile subformulas, each checked on
# the 6 true profiles of its agent's rankings per outcome function, in
# blocks of 5 profiles; they take 0.9-1.3 s and 0.7-1.0 s, and the whole
# command 1.8-2.6 s, peaking at 25 MiB (Python 3.11.7, two shared cores).
# At (2,4) over 1152 sampled models they reach 1.8e10, and the sweep is
# refused.
SWEEP_LIMIT = 5 * 10**9


def check_sweep_size(n: int, outcomes: Sequence[str], models: Sequence[ScfModel]) -> None:
    """Raise InvalidDomain before any instance is built if a schema's
    binder product over (n, K) and the default pool, times the stacked
    width its instances are checked at, exceeds `SWEEP_LIMIT`.  That width
    counts the states of the models `TableGrid.narrowed` keeps for the
    read-set of the schema's instance for its first binding, with the
    outcome bit added if a binder draws from the pool or its comp-At
    fragment: every binding of a schema reads at most one agent's true
    preference.  It is one instance's width: a block of d instances is d
    times as wide and d times fewer, so the product is the same however
    the instances are blocked.  The product counts bindings that a side
    condition excludes too.  The widths are read off the grid of
    `_stacked.stack(models)`, whose evaluator a `soundness_check` over the
    same models then reuses, so the models are stacked once."""
    scope = _Scope(n, outcomes, default_pool(n, outcomes))
    grid = _stacked.stack(models).grid
    for schema, (binders, build) in _TABLE.items():
        first = next(_bindings(scope, binders), None)
        if first is None:  # an empty domain: no instance
            continue
        pooled = any(_DOMAINS[g] in ("pool", "fragment", "compatible") for g in binders.split())
        width = len(grid.narrowed(build(scope, *first).reads | pooled)) * len(scope.profiles)
        bindings = math.prod(len(getattr(scope, _DOMAINS[b])) for b in binders.replace(",", " ").split())
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

    Evaluated as one formula [N]phi -> [N]PrefBox(i, phi) per pool
    formula and agent, in that order, on one stacked evaluator over the
    models, each on the view its read-set narrows to (`first_failure`):
    the grand-coalition box [N] reads every state of a model, so a formula
    fails in a model exactly when phi is valid there and its pref-box for
    i is not.  The models are stacked by `_stacked.stack`, as
    `soundness_check` stacks them, so the two share one evaluator over the
    same models, and a `TableGrid` is stacked as it is."""
    if not isinstance(models, (_stacked.TableGrid, list, tuple)):
        models = list(models)
    if not models:
        return True
    ev = _stacked.stack(models)
    agents = range(1, ev.space.n + 1)
    return all(
        ev.first_failure(Implies(Box(agents, phi), Box(agents, PrefBox(i, phi)))) is None
        for phi in pool
        for i in agents
    )
