"""Independent checks for the benchmark's outputs.

Nothing here imports scflogic.  Every verdict the benchmark checks is
recomputed from the definitions:

* the domain: rankings are the permutations of K in itertools order,
  profiles are their n-fold products with agent 1 most significant, and
  models enumerate outcome functions in mixed-radix order over the
  profiles with the true profile innermost;
* strategy-proofness, dictatorship, citizen sovereignty, monotonicity,
  dominant-strategy implementation and the per-SCF `dom` / `br(i)`
  verdicts by brute force over profiles and deviations;
* a relational evaluator of the core grammar and the small macros over a
  benchmark-side formula syntax (nested tuples), built from the explicit
  relations "agrees outside coalition C" and "truly at least as good";
* closed-form instance counts for the axiom schemas.

A formula is a tuple whose first item names its kind:

    ("top",) ("rep", i, x, y) ("out", x) ("not", f) ("or", f, g)
    ("and", f, g) ("imp", f, g) ("iff", f, g) ("dia", C, f) ("box", C, f)
    ("pref", i, f) ("prefbox", i, f) ("ballot", i, ranking)
    ("ballotAll", profile) ("better", i, lo, hi) ("citsov",) ("nodict",)
    ("br", i) ("dom",)

with C a frozenset of agents, a ranking a tuple of outcomes and a profile
a tuple of rankings.  `render` prints one in the scflogic concrete syntax.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

# --- the domain -------------------------------------------------------------


@lru_cache(maxsize=None)
def orders(outcomes: tuple) -> tuple:
    return tuple(itertools.permutations(outcomes))


@lru_cache(maxsize=None)
def profiles(n: int, outcomes: tuple) -> tuple:
    return tuple(itertools.product(orders(outcomes), repeat=n))


@lru_cache(maxsize=None)
def profile_position(n: int, outcomes: tuple) -> dict:
    return {p: i for i, p in enumerate(profiles(n, outcomes))}


def prefers(order: tuple, x: str, y: str) -> bool:
    """x is at least as good as y in the ranking (most preferred first)."""
    return order.index(x) <= order.index(y)


def table_index(values: tuple, outcomes: tuple) -> int:
    """Position of an outcome function in enumeration order."""
    idx = 0
    for value in values:
        idx = idx * len(outcomes) + outcomes.index(value)
    return idx


def table_at(idx: int, n: int, outcomes: tuple) -> tuple:
    size = len(profiles(n, outcomes))
    digits = []
    for _ in range(size):
        idx, d = divmod(idx, len(outcomes))
        digits.append(outcomes[d])
    return tuple(reversed(digits))


def model_from_json(data: dict) -> tuple:
    """(values, truth index) of a model in the scflogic JSON format."""
    n = data["agents"]
    outcomes = tuple(data["outcomes"])
    where = profile_position(n, outcomes)
    values = [None] * len(where)
    for entry in data["map"]:
        values[where[tuple(tuple(r) for r in entry["profile"])]] = entry["outcome"]
    truth = where[tuple(tuple(r) for r in data["true_preferences"])]
    return tuple(values), truth


# --- SCF verdicts by brute force -------------------------------------------


def _deviations(n: int, outcomes: tuple, state: tuple, agent: int):
    for move in orders(outcomes):
        yield state[: agent - 1] + (move,) + state[agent:]


def is_strategy_proof(n: int, outcomes: tuple, values: tuple) -> bool:
    """No agent, under any true profile, gains by misreporting whatever
    the others report."""
    where = profile_position(n, outcomes)
    for state in profiles(n, outcomes):
        here = values[where[state]]
        for agent in range(1, n + 1):
            truth = state[agent - 1]
            for other in _deviations(n, outcomes, state, agent):
                if truth.index(values[where[other]]) < truth.index(here):
                    return False
    return True


def dictator(n: int, outcomes: tuple, values: tuple):
    """First agent whose reported top always wins, or None."""
    for agent in range(1, n + 1):
        if all(values[i] == p[agent - 1][0] for i, p in enumerate(profiles(n, outcomes))):
            return agent
    return None


def has_citsov(outcomes: tuple, values: tuple) -> bool:
    return set(values) == set(outcomes)


def is_monotonic(n: int, outcomes: tuple, values: tuple) -> bool:
    """If x is chosen at p and x does not fall relative to any outcome in
    any agent's report from p to q, then x is chosen at q."""
    where = profile_position(n, outcomes)
    every = profiles(n, outcomes)
    for p in every:
        x = values[where[p]]
        below = [
            {y for y in outcomes if prefers(p[i], x, y)} for i in range(n)
        ]
        for q in every:
            if values[where[q]] != x and all(
                prefers(q[i], x, y) for i in range(n) for y in below[i]
            ):
                return False
    return True


def _dominant(n: int, outcomes: tuple, values: tuple, truth: tuple, agent: int, act: tuple) -> bool:
    where = profile_position(n, outcomes)
    pref = truth[agent - 1]
    for rest in itertools.product(orders(outcomes), repeat=n - 1):
        base = rest[: agent - 1] + (act,) + rest[agent - 1 :]
        got = pref.index(values[where[base]])
        for alt in orders(outcomes):
            other = rest[: agent - 1] + (alt,) + rest[agent - 1 :]
            if pref.index(values[where[other]]) < got:
                return False
    return True


def dom_implements(n: int, outcomes: tuple, values: tuple) -> bool:
    """Under every true profile the direct mechanism has a dominant-strategy
    equilibrium, and every such equilibrium yields the SCF's outcome."""
    where = profile_position(n, outcomes)
    for truth in profiles(n, outcomes):
        per_agent = [
            [act for act in orders(outcomes) if _dominant(n, outcomes, values, truth, i, act)]
            for i in range(1, n + 1)
        ]
        equilibria = list(itertools.product(*per_agent))
        if not equilibria:
            return False
        target = values[where[truth]]
        if any(values[where[e]] != target for e in equilibria):
            return False
    return True


def best_response_everywhere(n: int, outcomes: tuple, values: tuple, agent: int) -> bool:
    """br(i) as an SCF property: at every state, under every truth, no
    unilateral deviation of the agent yields a truly better outcome."""
    where = profile_position(n, outcomes)
    for pref in orders(outcomes):
        for state in profiles(n, outcomes):
            here = pref.index(values[where[state]])
            for other in _deviations(n, outcomes, state, agent):
                if pref.index(values[where[other]]) < here:
                    return False
    return True


def dom_everywhere(n: int, outcomes: tuple, values: tuple) -> bool:
    """dom as an SCF property: every state is a dominant-strategy
    equilibrium under every truth, i.e. every agent's outcome is constant
    in its own report."""
    return all(best_response_everywhere(n, outcomes, values, i) for i in range(1, n + 1))


def property_verdict(prop: str, n: int, outcomes: tuple, values: tuple) -> bool:
    if prop == "citsov":
        return has_citsov(outcomes, values)
    if prop == "nodict":
        return dictator(n, outcomes, values) is None
    if prop == "dom":
        return dom_everywhere(n, outcomes, values)
    if prop.startswith("br(") and prop.endswith(")"):
        return best_response_everywhere(n, outcomes, values, int(prop[3:-1]))
    if prop == "strproof":
        return is_strategy_proof(n, outcomes, values)
    raise ValueError(f"no check for property {prop!r}")


# --- relational evaluator ---------------------------------------------------


class Frame:
    """States over (n, K) with the relations the modalities quantify over;
    sets of states are int masks, bit v for state v."""

    def __init__(self, n: int, outcomes: tuple):
        self.n = n
        self.outcomes = outcomes
        self.states = profiles(n, outcomes)
        self.full = (1 << len(self.states)) - 1
        self._classes: dict = {}

    def classes(self, coalition: frozenset) -> tuple:
        """Equivalence classes of "agrees with the state outside C"."""
        got = self._classes.get(coalition)
        if got is None:
            outside = [i for i in range(self.n) if i + 1 not in coalition]
            buckets: dict = {}
            for v, state in enumerate(self.states):
                key = tuple(state[i] for i in outside)
                buckets[key] = buckets.get(key, 0) | (1 << v)
            got = self._classes[coalition] = tuple(buckets.values())
        return got

    def select(self, pred) -> int:
        mask = 0
        for v, state in enumerate(self.states):
            if pred(state):
                mask |= 1 << v
        return mask


def _walk(formula: tuple):
    """Post-order over distinct nodes, without recursion."""
    seen = set()
    out = []
    stack = [(formula, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in _children(node):
            stack.append((child, False))
    return out


def _children(node: tuple) -> tuple:
    kind = node[0]
    if kind == "not":
        return (node[1],)
    if kind in ("or", "and", "imp", "iff"):
        return (node[1], node[2])
    if kind in ("dia", "box", "pref", "prefbox"):
        return (node[2],)
    if kind == "better":
        return (node[2], node[3])
    return ()


_PURE = frozenset({"top", "rep", "ballot", "ballotAll"})
_TABLE_ONLY = frozenset({"out", "citsov", "nodict"})


def dependence(formula: tuple) -> dict:
    """Per node id: 0 when its truth depends on the state only, 1 when also
    on the outcome function, 2 when also on the true profile."""
    dep: dict = {}
    for node in _walk(formula):
        kind = node[0]
        if kind in _PURE:
            level = 0
        elif kind in _TABLE_ONLY:
            level = 1
        elif kind in ("pref", "prefbox", "better", "br", "dom"):
            level = 2
        else:
            level = max(dep[id(c)] for c in _children(node))
        dep[id(node)] = level
    return dep


class Evaluator:
    """Truth masks of one formula in the models over one frame.  Nodes that
    depend on the state only are evaluated once; nodes that ignore the true
    profile once per outcome function."""

    def __init__(self, frame: Frame, formula: tuple):
        self.frame = frame
        self.formula = formula
        self.order = _walk(formula)
        self.dep = dependence(formula)
        self._pure: dict = {}
        self._table_key = None
        self._table: dict = {}

    def mask(self, values: tuple, truth: int) -> int:
        frame = self.frame
        if values != self._table_key:
            self._table_key = values
            self._table = {}
        truth_order = frame.states[truth]
        memo: dict = {}
        for node in self.order:
            key = id(node)
            level = self.dep[key]
            cache = self._pure if level == 0 else self._table if level == 1 else memo
            if key not in cache:
                cache[key] = self._node(node, values, truth_order, lambda c: _lookup(c, self, memo))
        return _lookup(self.formula, self, memo)

    def _node(self, node: tuple, values: tuple, truth: tuple, get) -> int:
        frame = self.frame
        full = frame.full
        kind = node[0]
        if kind == "top":
            return full
        if kind == "rep":
            _, i, x, y = node
            return frame.select(lambda s: prefers(s[i - 1], x, y))
        if kind == "out":
            return _outcome_mask(values, node[1])
        if kind == "not":
            return full ^ get(node[1])
        if kind == "or":
            return get(node[1]) | get(node[2])
        if kind == "and":
            return get(node[1]) & get(node[2])
        if kind == "imp":
            return (full ^ get(node[1])) | get(node[2])
        if kind == "iff":
            return full ^ (get(node[1]) ^ get(node[2]))
        if kind == "dia":
            child = get(node[2])
            return _union(c for c in frame.classes(node[1]) if c & child)
        if kind == "box":
            child = get(node[2])
            return _union(c for c in frame.classes(node[1]) if c & child == c)
        if kind in ("pref", "prefbox"):
            agent = node[1]
            child = get(node[2]) if kind == "pref" else full ^ get(node[2])
            ranks = _ranks(values, truth[agent - 1])
            # pref(i) f holds at s iff some f-state's outcome is truly at
            # least as good for i as the outcome at s
            best = min((ranks[v] for v in _bits(child)), default=None)
            sat = 0 if best is None else _union(1 << v for v, r in enumerate(ranks) if r >= best)
            return sat if kind == "pref" else full ^ sat
        if kind == "ballot":
            _, i, ranking = node
            return frame.select(lambda s: s[i - 1] == tuple(ranking))
        if kind == "ballotAll":
            want = tuple(tuple(r) for r in node[1])
            return frame.select(lambda s: s == want)
        if kind == "better":
            # global: every hi-state's outcome is truly at least as good
            # for i as every lo-state's outcome
            _, agent, lo, hi = node
            ranks = _ranks(values, truth[agent - 1])
            lo_best = min((ranks[v] for v in _bits(get(lo))), default=None)
            hi_worst = max((ranks[v] for v in _bits(get(hi))), default=None)
            holds = lo_best is None or hi_worst is None or hi_worst <= lo_best
            return full if holds else 0
        if kind == "citsov":
            return full if has_citsov(frame.outcomes, values) else 0
        if kind == "nodict":
            ok = all(
                any(values[v] != s[i][0] for v, s in enumerate(frame.states))
                for i in range(frame.n)
            )
            return full if ok else 0
        if kind == "br":
            return _best_response(frame, values, truth, node[1])
        if kind == "dom":
            result = full
            for i in range(1, frame.n + 1):
                others = frozenset(range(1, frame.n + 1)) - {i}
                br = _best_response(frame, values, truth, i)
                result &= _union(c for c in frame.classes(others) if c & br == c)
            return result
        raise ValueError(f"unknown formula kind {kind!r}")


def _lookup(node: tuple, ev: Evaluator, memo: dict) -> int:
    key = id(node)
    level = ev.dep[key]
    return ev._pure[key] if level == 0 else ev._table[key] if level == 1 else memo[key]


def _outcome_mask(values: tuple, name: str) -> int:
    mask = 0
    for v, value in enumerate(values):
        if value == name:
            mask |= 1 << v
    return mask


def _ranks(values: tuple, order: tuple) -> list:
    return [order.index(value) for value in values]


def _best_response(frame: Frame, values: tuple, truth: tuple, agent: int) -> int:
    """States whose outcome no unilateral deviation of the agent beats."""
    ranks = _ranks(values, truth[agent - 1])
    result = 0
    for cls in frame.classes(frozenset({agent})):
        members = list(_bits(cls))
        best = min(ranks[v] for v in members)
        for v in members:
            if ranks[v] == best:
                result |= 1 << v
    return result


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def first_hit(n: int, outcomes: tuple, formula: tuple, want: bool, limit: int):
    """First (model index, state index) in enumeration order where the
    formula's truth equals `want`, among the first `limit` models; None if
    there is none."""
    frame = frame_for(n, outcomes)
    ev = Evaluator(frame, formula)
    size = len(frame.states)
    for model in range(limit):
        table, truth = divmod(model, size)
        if table >= len(outcomes) ** size:
            return None
        mask = ev.mask(table_at(table, n, outcomes), truth)
        hits = mask if want else frame.full ^ mask
        if hits:
            return model, (hits & -hits).bit_length() - 1
    return None


def model_count(n: int, outcomes: tuple) -> int:
    size = factorial(len(outcomes)) ** n
    return len(outcomes) ** size * size


@lru_cache(maxsize=None)
def frame_for(n: int, outcomes: tuple) -> Frame:
    return Frame(n, outcomes)


# --- rendering --------------------------------------------------------------


def render(formula: tuple, n: int) -> str:
    """Concrete syntax, every binary connective parenthesized."""
    parts: dict = {}
    for node in _walk(formula):
        parts[id(node)] = _render_node(node, n, parts)
    return parts[id(formula)]


def _coalition(coalition: frozenset, n: int) -> str:
    if coalition == frozenset(range(1, n + 1)):
        return "N"
    return "{" + ",".join(str(i) for i in sorted(coalition)) + "}"


def _ranking(ranking: tuple) -> str:
    return "[" + ",".join(ranking) + "]"


_BINARY = {"or": "|", "and": "&", "imp": "->", "iff": "<->"}


def _render_node(node: tuple, n: int, parts: dict) -> str:
    kind = node[0]
    if kind == "top":
        return "true"
    if kind == "rep":
        return f"rep({node[1]},{node[2]},{node[3]})"
    if kind == "out":
        return node[1]
    if kind == "not":
        return "~" + parts[id(node[1])]
    if kind in _BINARY:
        return f"({parts[id(node[1])]} {_BINARY[kind]} {parts[id(node[2])]})"
    if kind == "dia":
        return f"<{_coalition(node[1], n)}> {parts[id(node[2])]}"
    if kind == "box":
        return f"[{_coalition(node[1], n)}] {parts[id(node[2])]}"
    if kind == "pref":
        return f"pref({node[1]}) {parts[id(node[2])]}"
    if kind == "prefbox":
        return f"Pref({node[1]}) {parts[id(node[2])]}"
    if kind == "ballot":
        return f"ballot({node[1]},{_ranking(node[2])})"
    if kind == "ballotAll":
        return "ballotAll([" + ",".join(_ranking(r) for r in node[1]) + "])"
    if kind == "better":
        return f"better({node[1]},{parts[id(node[2])]},{parts[id(node[3])]})"
    if kind in ("citsov", "nodict", "dom"):
        return kind
    if kind == "br":
        return f"br({node[1]})"
    raise ValueError(f"unknown formula kind {kind!r}")


# --- axiom schemas ----------------------------------------------------------


def schema_instances(schema: str, n: int, k: int, pool: int, disjoint_pairs: int) -> int:
    """Number of instances of a schema over n agents, k outcomes and a
    metavariable pool of the given size.  `disjoint_pairs` counts ordered
    pool pairs of modality-free reported-atom formulas whose agent sets are
    disjoint, the only pool property comp-At depends on."""
    coalitions = 2**n
    states = factorial(k) ** n
    return {
        "refl": n * k,
        "antisym-total": n * k * (k - 1),
        "trans": n * k**3,
        "K(i)": n * pool**2,
        "T(i)": n * pool,
        "B(i)": n * pool,
        "comp-union": coalitions**2 * pool,
        "confl": n * (n - 1) * pool,
        "empty": pool,
        "exclu": n * (n - 1) * n * k**2,
        "ballot": n * factorial(k),
        "comp-At": coalitions**2 * disjoint_pairs,
        "func1": 1,
        "func2": states * pool,
        "incl": n * pool,
        "K(pref)": n * pool**2,
        "4(pref)": n * pool,
        "antisym'": n * states**2,
        "total'": n * states**2,
        "unifPref": n * k**2,
    }[schema]


def disjoint_pairs(agent_sets: list) -> int:
    """Ordered pairs of pool members (None for members outside the
    reported-atom fragment) with disjoint agent sets."""
    inside = [a for a in agent_sets if a is not None]
    return sum(1 for a in inside for b in inside if not a & b)
