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

Evaluation is by truth masks: one bit per state in the canonical state
ordering, computed once per distinct subformula.  The primary evaluator is
the stacked bitmask one (`_stacked.StackedEvaluator`), which lays the
masks of many models over one (n, K) side by side in a single integer;
`Evaluator` is its one-model view.  The per-(n, K) state data both share
(profiles, grid axes, reported-atom masks) is built once per domain.

A second, independent semantics (`KripkeScf`, `eval_kripke`) evaluates
formulas relationally over explicit accessibility relations; it exists to
cross-check the primary evaluator and is deliberately not implemented in
terms of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Iterator

from .core import (
    InvalidDomain,
    Profile,
    RepAtom,
    ScfModel,
    all_linear_orders,
    all_profiles,
    state_atoms,
)

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
    "FormulaDomainMismatch",
    "Evaluator",
    "evaluate",
    "valid_in_model",
    "KripkeScf",
    "kripke_view",
    "eval_kripke",
]


class FormulaDomainMismatch(ValueError):
    """A formula mentions an agent, outcome or coalition outside the model's
    (n, K) domain."""


class Formula:
    """Base class for core-grammar nodes.

    Nodes are immutable, structurally comparable, and carry two flags used
    by the evaluator: whether any outcome atom occurs (`uses_outcome`) and
    whether any pref modality occurs (`uses_pref`).  A formula with neither
    has a state-determined truth value, independent of the model's outcome
    function and true preferences.
    """

    __slots__ = ("_hash", "uses_outcome", "uses_pref")

    _hash: int
    uses_outcome: bool
    uses_pref: bool

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:  # type: ignore[attr-defined]
            return False
        return self._key() == other._key()  # type: ignore[attr-defined]

    def _key(self) -> tuple:
        raise NotImplementedError

    def children(self) -> tuple["Formula", ...]:
        return ()

    def subformulas(self) -> Iterator["Formula"]:
        """All nodes of the syntax tree, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def __repr__(self) -> str:
        from .parser import format_formula

        return f"Formula({format_formula(self)!r})"


class Top(Formula):
    __slots__ = ()

    def __init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("top",)))
        object.__setattr__(self, "uses_outcome", False)
        object.__setattr__(self, "uses_pref", False)

    def _key(self) -> tuple:
        return ("top",)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")


class Rep(Formula):
    """Reported-preference atom rep(agent, left, right)."""

    __slots__ = ("agent", "left", "right")

    def __init__(self, agent: int, left: str, right: str) -> None:
        object.__setattr__(self, "agent", agent)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("rep", agent, left, right)))
        object.__setattr__(self, "uses_outcome", False)
        object.__setattr__(self, "uses_pref", False)

    def _key(self) -> tuple:
        return ("rep", self.agent, self.left, self.right)

    def atom(self) -> RepAtom:
        return RepAtom(self.agent, self.left, self.right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")


class Out(Formula):
    """Outcome atom: the state's outcome is `name`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("out", name)))
        object.__setattr__(self, "uses_outcome", True)
        object.__setattr__(self, "uses_pref", False)

    def _key(self) -> tuple:
        return ("out", self.name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "_hash", hash(("not", child._hash)))
        object.__setattr__(self, "uses_outcome", child.uses_outcome)
        object.__setattr__(self, "uses_pref", child.uses_pref)

    def _key(self) -> tuple:
        return ("not", self.child)

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("or", left._hash, right._hash)))
        object.__setattr__(self, "uses_outcome", left.uses_outcome or right.uses_outcome)
        object.__setattr__(self, "uses_pref", left.uses_pref or right.uses_pref)

    def _key(self) -> tuple:
        return ("or", self.left, self.right)

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")


class Diamond(Formula):
    """<C> phi: coalition C can deviate (others fixed) to reach a phi-state."""

    __slots__ = ("coalition", "child")

    def __init__(self, coalition: Iterable[int], child: Formula) -> None:
        frozen = frozenset(coalition)
        object.__setattr__(self, "coalition", frozen)
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "_hash", hash(("diamond", frozen, child._hash)))
        object.__setattr__(self, "uses_outcome", child.uses_outcome)
        object.__setattr__(self, "uses_pref", child.uses_pref)

    def _key(self) -> tuple:
        return ("diamond", self.coalition, self.child)

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")


class Pref(Formula):
    """pref(i) phi: some state with a truly at-least-as-good outcome for i
    satisfies phi."""

    __slots__ = ("agent", "child")

    def __init__(self, agent: int, child: Formula) -> None:
        object.__setattr__(self, "agent", agent)
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "_hash", hash(("pref", agent, child._hash)))
        object.__setattr__(self, "uses_outcome", child.uses_outcome)
        object.__setattr__(self, "uses_pref", True)

    def _key(self) -> tuple:
        return ("pref", self.agent, self.child)

    def children(self) -> tuple[Formula, ...]:
        return (self.child,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("formulas are immutable")


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


class _StateSpace:
    """Per-(n, K) canonical state data shared by every evaluator: profiles,
    digit vectors, the axes of the state grid and reported-atom masks."""

    def __init__(self, n: int, outcomes: tuple[str, ...]):
        self.n = n
        self.outcomes = outcomes
        self.profiles = all_profiles(n, outcomes)
        self.size = len(self.profiles)
        self.full_mask = (1 << self.size) - 1
        self.index = {p: i for i, p in enumerate(self.profiles)}
        radix = len(all_linear_orders(outcomes))
        self.radix = radix
        # per-state per-agent ranking index (the mixed-radix digits)
        self.digits: list[tuple[int, ...]] = []
        for idx in range(self.size):
            digs = []
            rest = idx
            for _ in range(n):
                digs.append(rest % radix)
                rest //= radix
            self.digits.append(tuple(reversed(digs)))
        # per agent: the digit stride of its axis, the states whose digit on
        # it is 0, and the comb spreading one state along it
        self.axes: list[tuple[int, int, int]] = []
        for agent in range(n):
            stride = radix ** (n - 1 - agent)
            plane = 0
            for v in range(self.size):
                if self.digits[v][agent] == 0:
                    plane |= 1 << v
            comb = sum(1 << (d * stride) for d in range(radix))
            self.axes.append((stride, plane, comb))
        self._rep_masks: dict[tuple[int, str, str], int] = {}

    def rep_mask(self, agent: int, left: str, right: str) -> int:
        key = (agent, left, right)
        mask = self._rep_masks.get(key)
        if mask is None:
            if not 1 <= agent <= self.n:
                raise FormulaDomainMismatch(f"agent {agent} out of range 1..{self.n}")
            if left not in self.outcomes or right not in self.outcomes:
                raise FormulaDomainMismatch(
                    f"rep({agent},{left},{right}) mentions an outcome outside {self.outcomes}"
                )
            mask = 0
            for i, p in enumerate(self.profiles):
                if p.orders[agent - 1].at_least_as_good(left, right):
                    mask |= 1 << i
            self._rep_masks[key] = mask
        return mask


@lru_cache(maxsize=None)
def _space(n: int, outcomes: tuple[str, ...]) -> _StateSpace:
    return _StateSpace(n, outcomes)


class Evaluator:
    """Truth masks in one model: a view of a one-model stacked evaluator
    (see `_stacked`), whose single block is the model's mask.  To evaluate
    many models over one (n, K), stack them instead of building one view
    per model."""

    def __init__(self, model: ScfModel):
        from ._stacked import StackedEvaluator

        self.model = model
        self._stacked = StackedEvaluator([model])
        self.space = self._stacked.space

    def truth_mask(self, formula: Formula) -> int:
        """Bitmask of the states satisfying `formula` (canonical order)."""
        return self._stacked.truth_mask(formula)

    def holds(self, state: Profile, formula: Formula) -> bool:
        idx = self.space.index.get(state)
        if idx is None:
            raise InvalidDomain(f"{state} is not a state of this model")
        return bool(self.truth_mask(formula) >> idx & 1)

    def valid(self, formula: Formula) -> bool:
        return self.truth_mask(formula) == self.space.full_mask

    def falsifying_states(self, formula: Formula) -> list[Profile]:
        missing = self.space.full_mask ^ self.truth_mask(formula)
        return [state for i, state in enumerate(self.space.profiles) if missing >> i & 1]


def evaluate(model: ScfModel, state: Profile, formula: Formula) -> bool:
    """Truth of `formula` at `state` in `model`."""
    return Evaluator(model).holds(state, formula)


def valid_in_model(model: ScfModel, formula: Formula) -> tuple[bool, list[Profile]]:
    """Whether `formula` holds at every state; falsifying states in
    canonical order otherwise."""
    bad = Evaluator(model).falsifying_states(formula)
    return (not bad, bad)


@dataclass(frozen=True, eq=False)
class KripkeScf:
    """Relational presentation of a model: states, one equivalence relation
    per agent (agreement outside that agent), one preference relation per
    agent over states, and an explicit valuation.

    For views built by `kripke_view` the valuation assigns exactly one
    outcome label per state; the type allows degenerate valuations so that
    broken models can be constructed in tests.
    """

    outcomes: tuple[str, ...]
    states: tuple[Profile, ...]
    r_edges: tuple[tuple[tuple[int, ...], ...], ...]
    p_edges: tuple[tuple[tuple[int, ...], ...], ...]
    atoms: tuple[frozenset[RepAtom], ...]
    outcome_labels: tuple[frozenset[str], ...]

    @property
    def n(self) -> int:
        return len(self.r_edges)

    def state_index(self, state: Profile) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise InvalidDomain(f"{state} is not a state of this Kripke model") from None


def kripke_view(model: ScfModel) -> KripkeScf:
    """Build the equivalent Kripke model: R_i links states agreeing outside
    agent i; P_i links v to u iff i truly finds u's outcome at least as good
    as v's."""
    space = _space(model.n, model.outcomes)
    states = space.profiles
    outs = tuple(model.table.values)
    r_edges = []
    p_edges = []
    for agent in range(1, model.n + 1):
        r_rows = []
        p_rows = []
        order = model.true_order(agent)
        for v in range(space.size):
            r_rows.append(
                tuple(
                    u
                    for u in range(space.size)
                    if all(
                        space.digits[v][j] == space.digits[u][j]
                        for j in range(model.n)
                        if j != agent - 1
                    )
                )
            )
            p_rows.append(
                tuple(
                    u
                    for u in range(space.size)
                    if order.at_least_as_good(outs[u], outs[v])
                )
            )
        r_edges.append(tuple(r_rows))
        p_edges.append(tuple(p_rows))
    return KripkeScf(
        outcomes=model.outcomes,
        states=states,
        r_edges=tuple(r_edges),
        p_edges=tuple(p_edges),
        atoms=tuple(state_atoms(s) for s in states),
        outcome_labels=tuple(frozenset({o}) for o in outs),
    )


def _join_reachable(km: KripkeScf, start: int, coalition: frozenset[int]) -> list[int]:
    """States reachable from `start` by composing the R_i for i in the
    coalition (the join relation; for the empty coalition just `start`)."""
    for agent in coalition:
        if not 1 <= agent <= km.n:
            raise FormulaDomainMismatch(f"coalition agent {agent} out of range 1..{km.n}")
    seen = {start}
    frontier = [start]
    while frontier:
        here = frontier.pop()
        for agent in coalition:
            for nxt in km.r_edges[agent - 1][here]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return sorted(seen)


def eval_kripke(km: KripkeScf, state: Profile | int, formula: Formula) -> bool:
    """Relational satisfaction in a Kripke model; the cross-check semantics."""
    idx = state if isinstance(state, int) else km.state_index(state)
    if not 0 <= idx < len(km.states):
        raise InvalidDomain(f"state index {idx} out of range")
    return _eval_kripke_at(km, idx, formula)


def _eval_kripke_at(km: KripkeScf, idx: int, formula: Formula) -> bool:
    if type(formula) is Top:
        return True
    if type(formula) is Rep:
        if formula.left not in km.outcomes or formula.right not in km.outcomes:
            raise FormulaDomainMismatch(
                f"rep atom mentions outcome outside {km.outcomes}: {formula._key()}"
            )
        if not 1 <= formula.agent <= km.n:
            raise FormulaDomainMismatch(f"agent {formula.agent} out of range 1..{km.n}")
        return formula.atom() in km.atoms[idx]
    if type(formula) is Out:
        if formula.name not in km.outcomes:
            raise FormulaDomainMismatch(f"outcome atom {formula.name!r} outside {km.outcomes}")
        return formula.name in km.outcome_labels[idx]
    if type(formula) is Not:
        return not _eval_kripke_at(km, idx, formula.child)
    if type(formula) is Or:
        return _eval_kripke_at(km, idx, formula.left) or _eval_kripke_at(km, idx, formula.right)
    if type(formula) is Diamond:
        return any(
            _eval_kripke_at(km, u, formula.child)
            for u in _join_reachable(km, idx, formula.coalition)
        )
    if type(formula) is Pref:
        if not 1 <= formula.agent <= km.n:
            raise FormulaDomainMismatch(f"agent {formula.agent} out of range 1..{km.n}")
        return any(
            _eval_kripke_at(km, u, formula.child)
            for u in km.p_edges[formula.agent - 1][idx]
        )
    raise TypeError(f"not a formula node: {formula!r}")
