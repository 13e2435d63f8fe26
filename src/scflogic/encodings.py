"""Formula builders: ballots, global preference, reified true profiles, the
characteristic formula of an SCF, and the named property encodings.

Each builder is written once, against the constructors of the scope it is
called with (`s.Or`, `s.Implies`, `s.Box`, ...), in the tagless-final
style of Carette, Kiselyov and Shan (2009).  A formula scope supplies
`logic`'s, so a builder returns a plain core-grammar AST; a direct scope
supplies a `_stacked._Direct`'s, whose constructors compute each value's
mask at once on a view of stacked models, so the same builder returns the
encoding's truth mask; an emitting scope supplies a `_stacked._Emit`'s,
which compute what reads no outcome atom at once and emit the rest, so
the builder returns the encoding's residual program.
`axioms._Scope` extends the scope with the binder domains and tables of
the axiom schemas, whose builders share these.

The derived notions the encodings and the axioms share are memo tables of
the scope (`_Scope`), each built once per key: the outcome atoms, the pref
modalities, the ballot of each profile, its reach <N>(ballot & out(x)),
the boxes [N](lo -> pref(i) ballot) and the global preference `better`.
Formula nodes are interned when they are built (see `logic.Formula`), so
a formula scope's DAGs share equal subformulas as one node, and an
evaluator's slots hit them by identity.

The public builders run in the formula scope of their (n, K)
(`_formulas`), one per (n, K) kept for the life of the process, as the
`property_formula` cache is; `ballot_agent`, which reads no (n, K), takes
`logic`'s constructors, and `ballot_profile` the scope of its outcomes in
sorted order.  Interning alone would return the same nodes, but only
after rebuilding each expansion at every use: the scope's `ballot` and
`better` tables keep the build linear in the distinct `better` links
(without them strproof at (3,3) takes about 70 times as long to build).
A property check builds no formula (`decision.check_scf_property`): it
runs the property's builder once per (property, n, K) in an emitting
scope, and each table runs the residual program that gives.  A cold
(2,3) `strproof` check, emitting and running it, takes 4-6 ms, against
13-17 ms to build the formula, lift it to the same program and run that;
each later table runs the kept residual program, as fast as the
formula's (0.7-0.8 ms).  A direct scope would rerun the builder per
table, 2.3-2.4 ms.

The property table `_SCOPED` maps each property kind to its builder in a
given scope; `PropertyId`, its spellings on the command line and in
formulas, `property_formula`, which runs the builder in the formula scope
of its (n, K), and the property check, which runs it in an emitting
scope, all come from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable, ClassVar, Optional, Sequence

from . import logic
from .core import (
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfTable,
    all_profiles,
)
from .logic import Formula, _collector_paused

__all__ = [
    "PropertyId",
    "CITSOV",
    "NODICT",
    "DOM",
    "MON",
    "STRPROOF",
    "BR",
    "ballot_agent",
    "ballot_profile",
    "better",
    "trueprofile",
    "rho",
    "citsov",
    "nodict",
    "best_response",
    "dom",
    "mon",
    "strproof",
    "property_formula",
]


class _Memo(dict):
    """A subformula table: the value of `build(*key)`, or of `build(key)`
    for a key that is not a tuple, built on the key's first lookup."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[..., object]):
        super().__init__()
        self.build = build

    def __missing__(self, key: object) -> object:
        value = self[key] = self.build(*key) if type(key) is tuple else self.build(key)
        return value


# the constructors a scope supplies: `logic`'s or a `_stacked._Direct`'s
_TERMS = (
    "TRUE", "Not", "Or", "And", "Implies", "Iff", "Diamond", "Box", "Pref", "PrefBox", "Rep", "Out"
)


def _conj(s, parts):
    """Left-associated conjunction in `s`'s constructors; the empty one is
    truth.  `s` is a scope, or anything holding the constructors, as the
    `logic` module does.  `parts` is read once, as it is made."""
    parts = iter(parts)
    first = next(parts, None)
    return s.TRUE if first is None else reduce(s.And, parts, first)


def _disj(s, parts):
    """Left-associated disjunction; the empty one is falsity."""
    parts = list(parts)
    return reduce(s.Or, parts) if parts else s.Not(s.TRUE)


class _Scope:
    """What the builders over (n, K) build with: the constructors, of
    `logic` or of `direct`, and the memo tables of the derived notions,
    each keyed by the values it reads (values, hashed by identity, in a
    direct scope): `out` per outcome, `pref` per (agent, formula),
    `ballot` per profile, `reach` per (ballot, outcome), `fall`, the box
    [N](lo -> pref(i) ballot), per (agent, lo, ballot), and `better` per
    (agent, lo, hi).  The `ballot` table builds with the terms' `Ballot`
    where they have one, as a direct scope's terms do (the one state that
    reports the profile, `_stacked._Direct.Ballot`), so `better` reads
    the same values; elsewhere it conjoins the reported atoms.  No table's
    build refers back to the scope, so the tables and what only they hold
    go with the scope, collector or not."""

    def __init__(self, n: int, outcomes: Sequence[str], direct=None):
        terms = direct or logic
        self.n = n
        self.outcomes = outcomes = tuple(outcomes)
        self.agents = range(1, n + 1)
        self.grand = grand = frozenset(self.agents)
        vars(self).update((name, getattr(terms, name)) for name in _TERMS)
        Or, And, Implies, Diamond, Box = self.Or, self.And, self.Implies, self.Diamond, self.Box
        self.out = out = _Memo(self.Out)
        self.pref = pref = _Memo(self.Pref)
        self.ballot = ballot = _Memo(getattr(terms, "Ballot", None) or partial(_ballot_profile, terms))
        self.reach = _Memo(lambda b, x: Diamond(grand, And(b, out[x])))
        self.fall = fall = _Memo(lambda i, lo, b: Box(grand, Implies(lo, pref[i, b])))

        def better(i, lo, hi):
            if not 1 <= i <= n:
                raise InvalidDomain(f"agent {i} out of range 1..{n}")
            ballots = map(ballot.__getitem__, all_profiles(n, outcomes))
            return Box(grand, reduce(Or, [And(b, Implies(hi, fall[i, lo, b])) for b in ballots]))

        self.better = _Memo(better)

    @cached_property
    def profiles(self) -> tuple[Profile, ...]:
        """All profiles over (n, K), listed on first use: a builder that
        reads none, as `citsov` does, never lists (|K|!)^n of them."""
        return all_profiles(self.n, self.outcomes)


@lru_cache(maxsize=None)
def _formulas(n: int, outcomes: tuple[str, ...]) -> _Scope:
    """The formula scope over (n, K) the public builders share."""
    return _Scope(n, outcomes)


def _ballot_agent(s, agent: int, order: LinearOrder):
    ranking = order.ranking
    return _conj(s, [s.Rep(agent, ranking[k], ranking[k + 1]) for k in range(len(ranking) - 1)])


def ballot_agent(agent: int, order: LinearOrder) -> Formula:
    """Reification of one agent's reported ranking: the chain of adjacent
    at-least-as-good atoms.  A single-outcome ranking reifies to truth."""
    return _ballot_agent(logic, agent, order)


def _ballot_profile(s, profile: Profile):
    return _conj(s, [_ballot_agent(s, i, order) for i, order in enumerate(profile.orders, start=1)])


def ballot_profile(profile: Profile) -> Formula:
    """Reification of a whole reported profile; true at exactly one state."""
    return _formulas(profile.n, tuple(sorted(profile.orders[0].ranking))).ballot[profile]


def better(
    n: int, outcomes: Sequence[str], agent: int, lo: Formula, hi: Formula
) -> Formula:
    """Global preference of `hi` over `lo` for `agent`: at every state, if
    `hi` holds there then every `lo`-state's outcome is truly at most as
    good for the agent as the current one.

    Expands over all profiles, so its size grows with (|K|!)^n.  Equal
    arguments give the same interned node, so `trueprofile` and `strproof`
    share n*|K|*(|K|-1) expansions; the scope's table builds each of them
    once, not once per use.  It keeps every distinct argument tuple,
    parser-supplied `lo`/`hi` included, for the life of the process.
    """
    return _formulas(n, tuple(outcomes)).better[agent, lo, hi]


def _trueprofile(s, profile: Profile):
    parts = []
    for agent, order in enumerate(profile.orders, start=1):
        ranking = order.ranking
        for k in range(len(ranking) - 1, 0, -1):
            for j in range(k - 1, -1, -1):
                parts.append(s.better[agent, s.out[ranking[k]], s.out[ranking[j]]])
    return _conj(s, parts)


def trueprofile(profile: Profile, outcomes: Sequence[str]) -> Formula:
    """Reification of a true preference profile: for every agent, each
    outcome is globally better than every outcome ranked below it.

    Every ordered pair is linked, not only adjacent ones: `better` is
    vacuous when either outcome is infeasible, so adjacent links alone
    would not order two feasible outcomes ranked around an infeasible one.

    `outcomes` fixes the canonical outcome order used by the expansion.
    """
    return _trueprofile(_formulas(profile.n, tuple(outcomes)), profile)


def _rho(s, table: ScfTable, form: str):
    if form not in ("diamond", "implication"):
        raise ValueError(f"unknown rho form {form!r}")
    pairs = zip(map(s.ballot.__getitem__, table.profiles), table.values)
    if form == "diamond":
        return _conj(s, [s.reach[b, x] for b, x in pairs])
    return _conj(s, [s.Implies(b, s.out[x]) for b, x in pairs])


def rho(table: ScfTable, form: str = "diamond") -> Formula:
    """Characteristic formula of an SCF.

    "diamond": conjunction of <N>(ballot(p) & F(p)) over all profiles —
    globally pins the whole outcome function.
    "implication": conjunction of ballot(p) -> F(p) — at each state pins
    the outcome of that state only.  Both are valid in exactly the models
    whose outcome function realizes the table.
    """
    return _rho(_formulas(table.agents, table.outcomes), table, form)


def _citsov(s):
    return _conj(s, [s.Diamond(s.grand, s.out[x]) for x in s.outcomes])


def citsov(n: int, outcomes: Sequence[str]) -> Formula:
    """Every outcome is reachable by the grand coalition."""
    return _citsov(_formulas(n, tuple(outcomes)))


def _nodict(s):
    parts = []
    for agent in s.agents:
        witness = _disj(
            s,
            [
                s.And(s.out[x], _disj(s, [s.Rep(agent, y, x) for y in s.outcomes if y != x]))
                for x in s.outcomes
            ],
        )
        parts.append(s.Diamond(s.grand, witness))
    return _conj(s, parts)


def nodict(n: int, outcomes: Sequence[str]) -> Formula:
    """For every agent, some state's outcome is not that agent's reported top."""
    return _nodict(_formulas(n, tuple(outcomes)))


def _best_response(s, agent: int):
    if not 1 <= agent <= s.n:
        raise InvalidDomain(f"agent {agent} out of range 1..{s.n}")
    return _disj(
        s, [s.And(s.out[x], s.Box((agent,), s.pref[agent, s.out[x]])) for x in s.outcomes]
    )


def best_response(agent: int, n: int, outcomes: Sequence[str]) -> Formula:
    """The current outcome is truly at least as good, for the agent, as the
    outcome of any of its unilateral deviations."""
    return _best_response(_formulas(n, tuple(outcomes)), agent)


def _dom(s):
    return _conj(s, [s.Box(s.grand - {i}, _best_response(s, i)) for i in s.agents])


def dom(n: int, outcomes: Sequence[str]) -> Formula:
    """Dominant strategy equilibrium as a state property: every agent plays
    a best response however the others deviate."""
    return _dom(_formulas(n, tuple(outcomes)))


def _mon(s):
    grand, outcomes = s.grand, s.outcomes
    ballots = [s.ballot[p] for p in s.profiles]
    # per profile p and outcome x: <N>(ballot(p) & out(x)), and per agent i
    # and outcome y, <N>(ballot(p) & rep(i, x, y)), read for p on each side
    # of a pair
    chose = [{x: s.reach[b, x] for x in outcomes} for b in ballots]
    said = [
        {x: [s.Diamond(grand, s.And(b, s.Rep(i, x, y))) for i in s.agents for y in outcomes] for x in outcomes}
        for b in ballots
    ]
    parts = (
        s.Implies(s.And(chose_p[x], _conj(s, map(s.Implies, said_p[x], said_p2[x]))), chose_p2[x])
        for chose_p, said_p in zip(chose, said)
        for chose_p2, said_p2 in zip(chose, said)
        for x in outcomes
    )
    return _conj(s, parts)


def mon(n: int, outcomes: Sequence[str]) -> Formula:
    """Monotonicity, transcribed verbatim: if p chooses x and no outcome
    rises above x in any agent's report between p and p', then p' chooses x.

    No algebraic simplification is applied; the artifact checks this exact
    shape.  The conjunction is quadratic in the number of profiles.
    """
    return _mon(_formulas(n, tuple(outcomes)))


def _strproof(s):
    dom_formula = _dom(s)
    return _conj(
        s,
        [
            s.Implies(_trueprofile(s, p), s.Implies(s.ballot[p], dom_formula))
            for p in s.profiles
        ],
    )


def strproof(n: int, outcomes: Sequence[str]) -> Formula:
    """Strategy-proofness: under the reified true profile, truth-telling is
    a dominant strategy equilibrium."""
    return _strproof(_formulas(n, tuple(outcomes)))


# property kind -> its builder in a given scope, called with the agent, which
# is None but for the kinds named with one, as br(1) is: in the formula scope
# of (n, K) it gives the property's formula (`property_formula`), in an
# emitting scope its residual program (`decision.check_scf_property`)
_SCOPED: dict[str, Callable[[_Scope, Optional[int]], object]] = {
    "citsov": lambda s, agent: _citsov(s),
    "nodict": lambda s, agent: _nodict(s),
    "dom": lambda s, agent: _dom(s),
    "mon": lambda s, agent: _mon(s),
    "strproof": lambda s, agent: _strproof(s),
    "br": lambda s, agent: _best_response(s, agent),
}


@dataclass(frozen=True)
class PropertyId:
    """Name of a checkable SCF property; `agent` is set for best-response."""

    kind: str
    agent: Optional[int] = None

    # the property kinds, and those named with an agent
    KINDS: ClassVar[tuple[str, ...]] = tuple(_SCOPED)
    AGENT_KINDS: ClassVar[frozenset[str]] = frozenset({"br"})

    def __post_init__(self) -> None:
        if self.kind not in _SCOPED:
            raise ValueError(f"unknown property {self.kind!r}; expected one of {self.KINDS}")
        if (self.kind in self.AGENT_KINDS) != (self.agent is not None):
            raise ValueError("agent must be given for br and only for br")

    def __str__(self) -> str:
        return self.kind if self.agent is None else f"{self.kind}({self.agent})"

    @classmethod
    def spellings(cls) -> tuple[str, ...]:
        """How each kind is written, in table order: `mon`, `br(<agent>)`."""
        return tuple(f"{k}(<agent>)" if k in cls.AGENT_KINDS else k for k in cls.KINDS)

    @classmethod
    def parse(cls, text: str) -> "PropertyId":
        """The property `text` names, spelled exactly as `str` prints it: a
        bare kind, or a kind named with an agent and a decimal agent number
        without leading zeros, as in br(2)."""
        match = re.fullmatch(r"([a-z]+)(?:\(([1-9][0-9]*)\))?", text)
        if match and match[1] in _SCOPED:
            kind, agent = match[1], match[2]
            if (kind in cls.AGENT_KINDS) == (agent is not None):
                return cls(kind, None if agent is None else int(agent))
        *rest, last = cls.spellings()
        raise InvalidDomain(f"unknown property {text!r}; expected {', '.join(rest)} or {last}")


CITSOV = PropertyId("citsov")
NODICT = PropertyId("nodict")
DOM = PropertyId("dom")
MON = PropertyId("mon")
STRPROOF = PropertyId("strproof")


def BR(agent: int) -> PropertyId:
    return PropertyId("br", agent)


def property_formula(prop: PropertyId, n: int, outcomes: Sequence[str]) -> Formula:
    """The property's encoding over (n, K), built once per (property, n,
    outcome tuple) and shared by every later call."""
    return _property_formula(prop, n, tuple(outcomes))


@lru_cache(maxsize=None)
def _property_formula(prop: PropertyId, n: int, outcomes: tuple[str, ...]) -> Formula:
    # interned nodes are acyclic: a collector pass during the build frees nothing
    with _collector_paused():
        return _SCOPED[prop.kind](_formulas(n, outcomes), prop.agent)
