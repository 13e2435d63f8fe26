"""Formula language and truth definition over models of social choice.

The core grammar is: truth constant, reported-preference atoms, outcome
atoms, negation, disjunction, the coalition modality <C> and the
weak-preference modality pref(i).  Conjunction, implication, biconditional
and the box duals are rewritten into the core grammar at construction time,
so there is a single evaluator.

Truth at a state:
  * rep(i,x,y) holds iff agent i's reported ranking places x at least as
    high as y;
  * an outcome atom holds iff the model's outcome function picks it;
  * <C> phi holds iff some state agreeing with the current one outside C
    satisfies phi;
  * pref(i) phi holds iff some state whose outcome agent i truly considers
    at least as good satisfies phi (reflexive).

Nodes are hash-consed when they are built (see `Formula`): equal formulas
are one object, so a formula that repeats a subformula is a DAG sharing
one node for it, and every memo keyed by node identity computes it once.
The intern table `_interned` is a plain dict from a node's key, its class
and fields, to a keyed weak reference to the node; the reference's
callback removes the entry when the node dies, unless the key has been
interned again since.  One constructor, `Formula.__new__`, serves every
node kind: each kind declares only its fields (`__slots__`), its
read-set rule (`_reads`) and, if it has any, its children.

This module holds the language and the relational semantics only.  The
primary evaluator, by truth masks over many models at once, and its
one-model `Evaluator` live in `_stacked`, which builds on this module and
never the other way round.

The relational semantics (`KripkeScf`, `kripke_view`, `eval_kripke`) is a
textbook Kripke model: accessibility relations built from the model's
states and true profile alone, plus one valuation of this module's own
atom nodes (`state_atoms` gives a state's `Rep` atoms).  It exists to
cross-check the primary evaluator and shares none of its state data.  Both
raise `InvalidDomain` on a formula outside the model's (n, K).
"""

from __future__ import annotations

import gc
import weakref
from _weakref import _remove_dead_weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator

from .core import InvalidDomain, Profile, ScfModel, _state_index

__all__ = [
    "Formula",
    "Top",
    "Rep",
    "Out",
    "Not",
    "Or",
    "Diamond",
    "Pref",
    "TRUE",
    "FALSE",
    "And",
    "Implies",
    "Iff",
    "Box",
    "PrefBox",
    "conj",
    "disj",
    "state_atoms",
    "KripkeScf",
    "kripke_view",
    "eval_kripke",
]


class Formula:
    """Base class for core-grammar nodes.

    Nodes are hash-consed: `cls(*fields)` returns the live node of kind
    `cls` with the same fields and the same child objects, if there is
    one, so equal formulas are one object, and `==` and `hash` are
    Python's identity defaults.  The fields are positional only, in the
    order of the kind's `__slots__`; no constructor takes keywords.  The
    intern table holds nodes weakly: it is a dict from the key
    `(cls, *fields)` to a weak reference carrying that key, whose callback
    clears the entry when the node dies, so a node lives only while
    something else references it.  For the same reason copying a node
    returns it, and unpickling rebuilds it through the constructor,
    returning the live node when there is one.

    Nodes are immutable and carry one small int computed from their
    children when they are built, the read-set `reads`: bit 0 is set when
    an outcome atom occurs, and bit i when a pref(i) modality does (bit 64
    stands for every agent past 63 and for agents no model has), so the
    evaluators can skip model data no node reads.  `state_determined`,
    `reads == 0`, holds when neither occurs: the truth value at a state is
    then independent of the model's outcome function and true preferences.
    A node with `reads` at most 1 reads the outcome function but no true
    preference.
    """

    __slots__ = ("reads", "__weakref__")

    reads: int

    def __new__(cls, *fields):
        """The live node `(cls, *fields)`, or a new one: a hit costs one
        dict.get and one weakref call.  On a miss the fields fill
        `cls.__slots__` in order, and the node is interned only once it is
        whole, so a wrong arity or a bad child interns nothing."""
        key = (cls,) + fields
        node = _lookup(key, _GONE)()
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes the fields {cls.__slots__}, got {len(fields)}")
            node = _new(cls)
            for name, value in zip(cls.__slots__, fields):
                _set(node, name, value)
            _set(node, "reads", node._reads())
            _intern(key, node)
        return node

    def _reads(self) -> int:
        """The read-set of a node whose fields are set (see `reads`): 0 for
        the truth constant and rep atoms, which read no model data; every
        other kind gives its own rule."""
        return 0

    @property
    def state_determined(self) -> bool:
        return self.reads == 0

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")

    def children(self) -> tuple["Formula", ...]:
        return ()

    def subformulas(self) -> Iterator["Formula"]:
        """Every distinct node of the formula once, in post-order: each
        node after all its children, the root last.  A node shared by
        several parents (told apart by identity, as nodes are interned) is
        yielded once, so the walk is linear in the DAG, not in the tree it
        unfolds to; it runs on an explicit stack, so depth is limited by
        memory only."""
        seen = {self}
        stack = [(self, iter(self.children()))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(child.children())))
                    break
            else:
                stack.pop()
                yield node

    def __copy__(self) -> "Formula":
        return self

    def __deepcopy__(self, memo: dict) -> "Formula":
        return self

    def __reduce__(self) -> tuple:
        """Pickle as a flat table, one `(cls, leaves, kids)` row per
        distinct node in post-order: `leaves` are the node's other fields,
        `kids` its children's row numbers.  Every class lists its children
        last in `__slots__`, which is its constructor's order, so
        `_rebuild` calls `cls(*leaves, *children)`; being flat, the table
        pickles at any depth."""
        rows: dict[Formula, int] = {}
        table = []
        for node in self.subformulas():
            kids = node.children()
            names = node.__slots__[: len(node.__slots__) - len(kids)]
            table.append(
                (type(node), tuple(getattr(node, name) for name in names), tuple(rows[k] for k in kids))
            )
            rows[node] = len(rows)
        return _rebuild, (tuple(table),)

    def __repr__(self) -> str:
        from .parser import format_formula

        return f"Formula({format_formula(self)!r})"


class _Ref(weakref.ref):
    """The intern table's weak reference to a node, keyed like its entry."""

    __slots__ = ("key",)


# key (cls, *fields) -> a weak reference to the live node with those fields
_interned: dict[tuple, _Ref] = {}
_lookup = _interned.get
# the lookup's default: a reference whose referent is gone, so that a miss
# reads None from one call, as a dead entry does
_GONE = weakref.ref(set())


def _evict(ref: _Ref) -> None:
    """A dying node's callback: drop its entry unless the key was re-interned.

    `_remove_dead_weakref` deletes the entry only while it still holds a
    dead reference, in one C call, so a live node built under the same key
    after this one died keeps its entry."""
    _remove_dead_weakref(_interned, ref.key)


_new = object.__new__
_set = object.__setattr__


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the body, restoring its
    previous state on every exit.  A formula build allocates millions of
    container objects, each of which counts towards the collector's next
    pass, which rescans the growing live set; interned nodes are immutable
    and acyclic, so such a pass can free nothing the build made."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _intern(key: tuple, node: Formula) -> None:
    """Enter a fully built node under `key`."""
    ref = _Ref(node, _evict)
    ref.key = key
    _interned[key] = ref


def _rebuild(table: tuple) -> Formula:
    """The node a `Formula.__reduce__` table describes, built bottom-up
    through the constructors, so it is the live interned node if any."""
    built: list[Formula] = []
    for cls, leaves, kids in table:
        built.append(cls(*leaves, *[built[k] for k in kids]))
    return built[-1]


# the read-set bit of pref(i) for an agent past 63, or one that no model has
# (evaluation rejects it), so that no agent number builds a huge int
_OTHER_AGENT = 1 << 64


def _pref_bit(agent) -> int:
    """The read-set bit of pref(`agent`) (`Formula.reads`): bit i for an
    agent i in 1..63, and `_OTHER_AGENT` for any other value."""
    return 1 << agent if type(agent) is int and 0 < agent < 64 else _OTHER_AGENT


# The node kinds.  Each declares its fields as `__slots__`, children last,
# in the order `Formula.__new__` takes them; its read-set rule `_reads`,
# one line, unless it reads nothing; and `children` where it has any.


class Top(Formula):
    __slots__ = ()


class Rep(Formula):
    """Reported-preference atom rep(agent, left, right)."""

    __slots__ = ("agent", "left", "right")


class Out(Formula):
    """Outcome atom: the state's outcome is `name`."""

    __slots__ = ("name",)

    def _reads(self) -> int:
        return 1


class Not(Formula):
    __slots__ = ("child",)

    def _reads(self) -> int:
        return self.child.reads

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


class Or(Formula):
    __slots__ = ("left", "right")

    def _reads(self) -> int:
        return self.left.reads | self.right.reads

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


class Diamond(Formula):
    """<C> phi: coalition C can deviate (others fixed) to reach a phi-state."""

    __slots__ = ("coalition", "child")

    def __new__(cls, coalition: Iterable[int], child: Formula) -> "Diamond":
        return Formula.__new__(cls, frozenset(coalition), child)

    def _reads(self) -> int:
        return self.child.reads

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


class Pref(Formula):
    """pref(i) phi: some state with a truly at-least-as-good outcome for i
    satisfies phi."""

    __slots__ = ("agent", "child")

    def _reads(self) -> int:
        return self.child.reads | _pref_bit(self.agent)

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)


TRUE = Top()
FALSE = Not(TRUE)


def And(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def Box(coalition: Iterable[int], child: Formula) -> Formula:
    return Not(Diamond(coalition, Not(child)))


def PrefBox(agent: int, child: Formula) -> Formula:
    return Not(Pref(agent, Not(child)))


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty conjunction is the truth constant."""
    items = list(parts)
    if not items:
        return TRUE
    return reduce(And, items)


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty disjunction is falsity."""
    items = list(parts)
    if not items:
        return FALSE
    return reduce(Or, items)


def state_atoms(state: Profile) -> frozenset[Rep]:
    """The reported atoms true at ``state``: every at-least-as-good pair.

    Contains rep(i,x,x) for every agent and outcome, exactly one of
    rep(i,x,y) / rep(i,y,x) for distinct x,y, and is transitively closed;
    it is the unique well-formed valuation corresponding to the profile.
    """
    return frozenset(
        Rep(agent, x, y)
        for agent, order in enumerate(state.orders, start=1)
        for pos, x in enumerate(order.ranking)
        for y in order.ranking[pos:]
    )


@dataclass(frozen=True, eq=False)
class KripkeScf:
    """Relational presentation of a model: states, one equivalence relation
    per agent (agreement outside that agent), one preference relation per
    agent over states, and one valuation: per state, the atom nodes (`Rep`
    and `Out`) true there.

    `kripke_view` puts a state's `state_atoms` and exactly one `Out` in its
    set; the type allows degenerate valuations so that broken models can be
    constructed in tests.
    """

    outcomes: tuple[str, ...]
    states: tuple[Profile, ...]
    r_edges: tuple[tuple[tuple[int, ...], ...], ...]
    p_edges: tuple[tuple[tuple[int, ...], ...], ...]
    valuation: tuple[frozenset[Formula], ...]
    # memo of eval_kripke: formula -> the states where it holds
    _extensions: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.r_edges)


def kripke_view(model: ScfModel) -> KripkeScf:
    """Build the equivalent Kripke model: R_i links states agreeing outside
    agent i; P_i links v to u iff i truly finds u's outcome at least as good
    as v's."""
    states = model.states
    outs = tuple(model.out(state) for state in states)
    r_edges = []
    p_edges = []
    for agent in range(1, model.n + 1):
        # each state's orders for every agent but this one, and the states
        # sharing them
        others = [state.orders[: agent - 1] + state.orders[agent:] for state in states]
        groups: dict[tuple, list[int]] = {}
        for v, key in enumerate(others):
            groups.setdefault(key, []).append(v)
        r_edges.append(tuple(tuple(groups[key]) for key in others))
        order = model.true_order(agent)
        p_edges.append(
            tuple(
                tuple(u for u, high in enumerate(outs) if order.at_least_as_good(high, low))
                for low in outs
            )
        )
    return KripkeScf(
        outcomes=model.outcomes,
        states=states,
        r_edges=tuple(r_edges),
        p_edges=tuple(p_edges),
        valuation=tuple(state_atoms(s) | {Out(o)} for s, o in zip(states, outs)),
    )


def eval_kripke(km: KripkeScf, state: Profile | int, formula: Formula) -> bool:
    """Relational satisfaction in a Kripke model; the cross-check semantics."""
    idx = state if isinstance(state, int) else _state_index(km.n, km.outcomes, state)
    if not 0 <= idx < len(km.states):
        raise InvalidDomain(f"state index {idx} out of range")
    return idx in _kripke_extension(km, formula)


def _kripke_extension(km: KripkeScf, formula: Formula) -> frozenset[int]:
    """The states of `km` where `formula` holds.

    Computes each node's state set in the post-order of `subformulas` and
    memoizes it on the view, so later calls at other states reuse it."""
    memo = km._extensions
    if formula not in memo:
        for node in formula.subformulas():
            if node not in memo:
                memo[node] = _kripke_step(km, node)
    return memo[formula]


def _kripke_step(km: KripkeScf, formula: Formula) -> frozenset[int]:
    """The state set of one node, from its children's memoized sets."""
    memo = km._extensions
    states = range(len(km.states))
    if type(formula) is Top:
        return frozenset(states)
    if type(formula) is Rep:
        i, x, y = formula.agent, formula.left, formula.right
        if not 1 <= i <= km.n:
            raise InvalidDomain(f"agent {i} out of range 1..{km.n}")
        if x not in km.outcomes or y not in km.outcomes:
            raise InvalidDomain(f"rep({i},{x},{y}) mentions an outcome outside {km.outcomes}")
    if type(formula) is Out and formula.name not in km.outcomes:
        raise InvalidDomain(f"outcome atom {formula.name!r} outside {km.outcomes}")
    if type(formula) is Rep or type(formula) is Out:
        return frozenset(v for v in states if formula in km.valuation[v])
    if type(formula) is Not:
        return frozenset(states) - memo[formula.child]
    if type(formula) is Or:
        return memo[formula.left] | memo[formula.right]
    if type(formula) is Diamond:
        # the states from which the join of the coalition's relations
        # reaches a child state: the child set, closed backwards
        agents = sorted(formula.coalition)
        if not all(1 <= agent <= km.n for agent in agents):
            raise InvalidDomain(f"coalition {agents} not within agents 1..{km.n}")
        rows = [km.r_edges[agent - 1] for agent in agents]
        reach = set(memo[formula.child])
        fresh = True
        while fresh:
            fresh = [
                v
                for v in states
                if v not in reach and any(not reach.isdisjoint(row[v]) for row in rows)
            ]
            reach.update(fresh)
        return frozenset(reach)
    if type(formula) is Pref:
        if not 1 <= formula.agent <= km.n:
            raise InvalidDomain(f"agent {formula.agent} out of range 1..{km.n}")
        edges = km.p_edges[formula.agent - 1]
        child = memo[formula.child]
        return frozenset(v for v in states if not child.isdisjoint(edges[v]))
    raise TypeError(f"not a formula node: {formula!r}")
