"""Formula builders: ballots, global preference, reified true profiles, the
characteristic formula of an SCF, and the named property encodings.

Every builder returns a plain core-grammar AST; nothing here consults a
model or evaluates a formula.

Formula nodes are interned when they are built (see `logic.Formula`), so
the formulas built here are DAGs in which equal subformulas, such as the
ballot labels and `better` expansions, are one shared node, and an
evaluator's slots hit them by identity.  `ballot_profile`, `better` and
`property_formula` are memoized with `lru_cache` as well.  Interning alone
would return the same nodes, but only after rebuilding each expansion at
every use: the caches of `ballot_profile` and `better` keep the build
linear in the distinct `better` links (without them strproof at (3,3)
takes about 70 times as long to build), so they stay.

The property table `_PROPERTIES` maps each property kind to its builder;
`PropertyId`, its spellings on the command line and in formulas, and
`property_formula` all come from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, Optional, Sequence

from .core import (
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfTable,
    all_profiles,
)
from .logic import (
    And,
    Box,
    Diamond,
    Formula,
    Implies,
    Out,
    Pref,
    Rep,
    TRUE,
    conj,
    disj,
    _collector_paused,
)

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


def _grand(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


def ballot_agent(agent: int, order: LinearOrder) -> Formula:
    """Reification of one agent's reported ranking: the chain of adjacent
    at-least-as-good atoms.  A single-outcome ranking reifies to truth."""
    pairs = [
        Rep(agent, order.ranking[k], order.ranking[k + 1])
        for k in range(len(order.ranking) - 1)
    ]
    if not pairs:
        return TRUE
    return conj(pairs)


@lru_cache(maxsize=None)
def ballot_profile(profile: Profile) -> Formula:
    """Reification of a whole reported profile; true at exactly one state."""
    return conj(
        ballot_agent(agent, order) for agent, order in enumerate(profile.orders, start=1)
    )


def better(
    n: int, outcomes: Sequence[str], agent: int, lo: Formula, hi: Formula
) -> Formula:
    """Global preference of `hi` over `lo` for `agent`: at every state, if
    `hi` holds there then every `lo`-state's outcome is truly at most as
    good for the agent as the current one.

    Expands over all profiles, so its size grows with (|K|!)^n.  Equal
    arguments give the same interned node, so `trueprofile` and `strproof`
    share n*|K|*(|K|-1) expansions; the memo on (n, outcome tuple, agent,
    lo, hi) builds each of them once, not once per use.  It keeps every
    distinct argument tuple, parser-supplied `lo`/`hi` included, for the
    life of the process.
    """
    return _better(n, tuple(outcomes), agent, lo, hi)


@lru_cache(maxsize=None)
def _better(n: int, outcomes: tuple[str, ...], agent: int, lo: Formula, hi: Formula) -> Formula:
    if not 1 <= agent <= n:
        raise InvalidDomain(f"agent {agent} out of range 1..{n}")
    grand = _grand(n)
    disjuncts = []
    for profile in all_profiles(n, outcomes):
        label = ballot_profile(profile)
        disjuncts.append(
            And(label, Implies(hi, Box(grand, Implies(lo, Pref(agent, label)))))
        )
    return Box(grand, disj(disjuncts))


def trueprofile(profile: Profile, outcomes: Sequence[str]) -> Formula:
    """Reification of a true preference profile: for every agent, each
    outcome is globally better than every outcome ranked below it.

    Every ordered pair is linked, not only adjacent ones: `better` is
    vacuous when either outcome is infeasible, so adjacent links alone
    would not order two feasible outcomes ranked around an infeasible one.

    `outcomes` fixes the canonical outcome order used by the expansion.
    """
    parts = []
    for agent, order in enumerate(profile.orders, start=1):
        ranking = order.ranking
        for k in range(len(ranking) - 1, 0, -1):
            for j in range(k - 1, -1, -1):
                parts.append(
                    better(profile.n, outcomes, agent, Out(ranking[k]), Out(ranking[j]))
                )
    return conj(parts)


def rho(table: ScfTable, form: str = "diamond") -> Formula:
    """Characteristic formula of an SCF.

    "diamond": conjunction of <N>(ballot(p) & F(p)) over all profiles —
    globally pins the whole outcome function.
    "implication": conjunction of ballot(p) -> F(p) — at each state pins
    the outcome of that state only.  Both are valid in exactly the models
    whose outcome function realizes the table.
    """
    if form not in ("diamond", "implication"):
        raise ValueError(f"unknown rho form {form!r}")
    grand = _grand(table.agents)
    parts = []
    for profile in table.profiles:
        label = ballot_profile(profile)
        value = Out(table(profile))
        if form == "diamond":
            parts.append(Diamond(grand, And(label, value)))
        else:
            parts.append(Implies(label, value))
    return conj(parts)


def citsov(n: int, outcomes: Sequence[str]) -> Formula:
    """Every outcome is reachable by the grand coalition."""
    grand = _grand(n)
    return conj(Diamond(grand, Out(x)) for x in outcomes)


def nodict(n: int, outcomes: Sequence[str]) -> Formula:
    """For every agent, some state's outcome is not that agent's reported top."""
    grand = _grand(n)
    parts = []
    for agent in range(1, n + 1):
        witness = disj(
            And(Out(x), disj(Rep(agent, y, x) for y in outcomes if y != x))
            for x in outcomes
        )
        parts.append(Diamond(grand, witness))
    return conj(parts)


def best_response(agent: int, n: int, outcomes: Sequence[str]) -> Formula:
    """The current outcome is truly at least as good, for the agent, as the
    outcome of any of its unilateral deviations."""
    if not 1 <= agent <= n:
        raise InvalidDomain(f"agent {agent} out of range 1..{n}")
    return disj(
        And(Out(x), Box(frozenset({agent}), Pref(agent, Out(x)))) for x in outcomes
    )


def dom(n: int, outcomes: Sequence[str]) -> Formula:
    """Dominant strategy equilibrium as a state property: every agent plays
    a best response however the others deviate."""
    return conj(
        Box(_grand(n) - {agent}, best_response(agent, n, outcomes))
        for agent in range(1, n + 1)
    )


def mon(n: int, outcomes: Sequence[str]) -> Formula:
    """Monotonicity, transcribed verbatim: if p chooses x and no outcome
    rises above x in any agent's report between p and p', then p' chooses x.

    No algebraic simplification is applied; the artifact checks this exact
    shape.  The conjunction is quadratic in the number of profiles.
    """
    grand = _grand(n)
    profiles = all_profiles(n, outcomes)
    labels = {p: ballot_profile(p) for p in profiles}
    parts = []
    for p in profiles:
        for p2 in profiles:
            for x in outcomes:
                chose_x = Diamond(grand, And(labels[p], Out(x)))
                still_x = Diamond(grand, And(labels[p2], Out(x)))
                kept: list[Formula] = []
                for agent in range(1, n + 1):
                    for y in outcomes:
                        kept.append(
                            Implies(
                                Diamond(grand, And(labels[p], Rep(agent, x, y))),
                                Diamond(grand, And(labels[p2], Rep(agent, x, y))),
                            )
                        )
                parts.append(Implies(And(chose_x, conj(kept)), still_x))
    return conj(parts)


def strproof(n: int, outcomes: Sequence[str]) -> Formula:
    """Strategy-proofness: under the reified true profile, truth-telling is
    a dominant strategy equilibrium."""
    dom_formula = dom(n, outcomes)
    names = tuple(outcomes)
    return conj(
        Implies(
            trueprofile(profile, names),
            Implies(ballot_profile(profile), dom_formula),
        )
        for profile in all_profiles(n, names)
    )


# property kind -> its builder over (agent, n, K); the agent is None but for
# the kinds named with one, as br(1) is.  Each row looks its builder up when
# called, so the builder functions above stay the one place to replace.
_PROPERTIES: dict[str, Callable[[Optional[int], int, tuple[str, ...]], Formula]] = {
    "citsov": lambda agent, n, outcomes: citsov(n, outcomes),
    "nodict": lambda agent, n, outcomes: nodict(n, outcomes),
    "dom": lambda agent, n, outcomes: dom(n, outcomes),
    "mon": lambda agent, n, outcomes: mon(n, outcomes),
    "strproof": lambda agent, n, outcomes: strproof(n, outcomes),
    "br": lambda agent, n, outcomes: best_response(agent, n, outcomes),
}


@dataclass(frozen=True)
class PropertyId:
    """Name of a checkable SCF property; `agent` is set for best-response."""

    kind: str
    agent: Optional[int] = None

    # the property kinds, and those named with an agent
    KINDS: ClassVar[tuple[str, ...]] = tuple(_PROPERTIES)
    AGENT_KINDS: ClassVar[frozenset[str]] = frozenset({"br"})

    def __post_init__(self) -> None:
        if self.kind not in _PROPERTIES:
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
        if match and match[1] in _PROPERTIES:
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
        return _PROPERTIES[prop.kind](prop.agent, n, outcomes)
