"""Per-layer tracing from outside the program.

`install` replaces public functions and classes of the scflogic modules
with wrappers, at the name each caller looks up (for example
`scflogic.decision.Evaluator` and `scflogic.decision.property_formula`).
Each wrapper records a span (name, start, end, parent, operation) in
memory and counts work at the same boundary.  A layer's self time is the
time of its spans minus the time of their child spans, so the self times
of all layers, plus the benchmark's own `op` spans, add up to the
operation time.

Node counting of built formulas runs outside every span: its time is
declared excluded on the shared clock.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array

import checks

# layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "cli.self_ms": ("cli",),
    "files.load_ms": ("files.load",),
    "parser.parse_ms": ("parser.parse",),
    "parser.format_ms": ("parser.format",),
    "encodings.build_ms": ("encodings.build",),
    "logic.eval_ms": ("logic.build", "logic.eval"),
    "decision.self_ms": ("decision",),
    "stacked.build_ms": ("stacked.build",),
    "stacked.check_ms": ("stacked.check",),
    "axioms.instantiate_ms": ("axioms.instantiate",),
    "axioms.soundness_ms": ("axioms.soundness",),
    "game.oracle_ms": ("game",),
}

ENCODING_BUILDERS = (
    "ballot_agent", "ballot_profile", "better", "trueprofile", "rho", "citsov",
    "nodict", "best_response", "dom", "mon", "strproof",
)
# the oracles cli calls; their calls among themselves stay unwrapped
GAME_ORACLES = (
    "dom_equilibria", "solution_set", "truthfully_implements", "is_strategy_proof",
    "is_monotonic", "is_dictatorial", "equivalence_audit",
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [-1]
        self.current_op = -1
        self.counts = {
            "files.loads": 0,
            "parser.chars": 0,
            "encodings.builds": 0,
            "encodings.nodes_by_identity": 0,
            "encodings.nodes_by_structure": 0,
            "logic.evaluators_built": 0,
            "decision.models_visited": 0,
            "decision.models_available": 0,
            "stacked.mask_bits": 0,
            "axioms.instances": 0,
            "game.oracle_calls": 0,
        }
        self.in_decision = 0  # depth of decision spans open

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock.now())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock.now()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result, args) counts at the boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def excluded(self, fn, *args):
        """Run benchmark-side bookkeeping with the clock stopped."""
        start = self.clock.now()
        try:
            return fn(*args)
        finally:
            self.clock.exclude(self.clock.now() - start)

    # --- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Per (op, span name): self time in seconds."""
        total = [e - s for s, e in zip(self.start, self.end)]
        own = list(total)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= total[idx]
        out: dict = {}
        for idx, secs in enumerate(own):
            key = (self.op[idx], self.names[self.name[idx]])
            out[key] = out.get(key, 0.0) + secs
        return out

    def write(self, path) -> None:
        data = {
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "counts": self.counts,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(data, handle)


# --- structure of built formulas -----------------------------------------------


def _node_fields(node) -> tuple:
    kind = type(node).__name__
    if kind == "Rep":
        return (kind, node.agent, node.left, node.right)
    if kind == "Out":
        return (kind, node.name)
    if kind == "Diamond":
        return (kind, tuple(sorted(node.coalition)))
    if kind == "Pref":
        return (kind, node.agent)
    return (kind,)


def node_counts(formula) -> tuple[int, int]:
    """(distinct nodes by identity, distinct nodes by structure) of a
    formula DAG, without recursion."""
    key_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    stack = [(formula, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            key = _node_fields(node) + tuple(key_of[id(c)] for c in node.children())
            key_of[id(node)] = interned.setdefault(key, len(interned))
            continue
        if id(node) in key_of:
            continue
        key_of[id(node)] = -1  # on the stack
        stack.append((node, True))
        for child in node.children():
            if id(child) not in key_of:
                stack.append((child, False))
    return len(key_of), len(interned)


# --- installation ------------------------------------------------------------------


class _Facade:
    """Stands in for a module at one caller: wrapped names first, the
    module's own attributes otherwise."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer, modules) -> None:
    """Patch the freshly imported scflogic modules (a namespace with cli,
    files, parser, decision, encodings, game, axioms, stacked attributes)."""
    cli, files, decision = modules.cli, modules.files, modules.decision
    encodings, game, axioms, stacked = (
        modules.encodings, modules.game, modules.axioms, modules.stacked,
    )
    counts = tracer.counts

    cli.main = tracer.wrap("cli", cli.main)

    def count_load(result, args):
        counts["files.loads"] += 1

    for name in ("load_scf", "load_model"):
        setattr(files, name, tracer.wrap("files.load", getattr(files, name), count_load))

    def count_chars(result, args):
        counts["parser.chars"] += len(args[0])

    cli.parse = tracer.wrap("parser.parse", cli.parse, count_chars)
    cli.format_formula = tracer.wrap("parser.format", cli.format_formula)

    def add_build(by_id, by_structure):
        counts["encodings.builds"] += 1
        counts["encodings.nodes_by_identity"] += by_id
        counts["encodings.nodes_by_structure"] += by_structure

    def count_build(result, args):
        add_build(*tracer.excluded(node_counts, result))

    # property_formula is a function of (property, n, K): count each
    # distinct call once and reuse its counts for the repeats
    known: dict = {}

    def count_property(result, args):
        if args not in known:
            known[args] = tracer.excluded(node_counts, result)
        add_build(*known[args])

    decision.property_formula = tracer.wrap(
        "encodings.build", decision.property_formula, count_property
    )
    # the parser reaches the builders through its module-level `encodings`
    # name; builders calling each other inside encodings stay unwrapped
    modules.parser.encodings = _Facade(
        encodings,
        {
            name: tracer.wrap("encodings.build", getattr(encodings, name), count_build)
            for name in ENCODING_BUILDERS
        },
    )

    real_evaluator = decision.Evaluator

    class TracedEvaluator:
        """Per-model evaluator seen through spans; the real one recurses
        into itself, so only the calls from outside the layer are timed."""

        def __init__(self, model):
            counts["logic.evaluators_built"] += 1
            if tracer.in_decision:
                counts["decision.models_visited"] += 1
            self._real = tracer.call("logic.build", real_evaluator, model)

        def truth_mask(self, formula):
            return tracer.call("logic.eval", self._real.truth_mask, formula)

        def __getattr__(self, name):
            return getattr(self._real, name)

    decision.Evaluator = TracedEvaluator
    cli.Evaluator = TracedEvaluator

    def in_decision(fn, available):
        """A decision procedure; models it visits are counted against the
        models or true profiles `available(args)` it could visit."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["decision.models_available"] += available(args)
            tracer.in_decision += 1
            try:
                return tracer.call("decision", fn, *args, **kwargs)
            finally:
                tracer.in_decision -= 1

        return wrapper

    whole_class = lambda args: checks.model_count(args[0], tuple(args[1]))
    for name in ("satisfiable", "valid"):
        setattr(decision, name, in_decision(getattr(decision, name), whole_class))
    decision.check_scf_property = in_decision(
        decision.check_scf_property, lambda args: len(args[0].profiles)
    )

    def count_oracle(result, args):
        counts["game.oracle_calls"] += 1

    cli.game = _Facade(
        game, {name: tracer.wrap("game", getattr(game, name), count_oracle) for name in GAME_ORACLES}
    )

    real_stacked = stacked.StackedEvaluator

    class TracedStacked:
        def __init__(self, models):
            self._real = tracer.call("stacked.build", real_stacked, models)
            counts["stacked.mask_bits"] = max(
                counts["stacked.mask_bits"], self._real.full.bit_length()
            )

        def first_failure(self, formula):
            return tracer.call("stacked.check", self._real.first_failure, formula)

        def __getattr__(self, name):
            return getattr(self._real, name)

    stacked.StackedEvaluator = TracedStacked

    def count_instances(result, args):
        counts["axioms.instances"] += len(result)

    axioms.instantiate = tracer.wrap("axioms.instantiate", axioms.instantiate, count_instances)
    axioms.soundness_check = tracer.wrap("axioms.soundness", axioms.soundness_check)
