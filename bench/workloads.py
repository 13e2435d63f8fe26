"""The three workloads: seeded inputs, operations and their checks.

A workload object is built from the seed and the number of rounds,
before any timing.  Then, per set-up, `write_inputs` writes its files and
`warm` does the program-side preparation every user pays once per run;
both are timed as set-up.  `ops` is the pass: a list of (label, run,
check) where run(sc) calls the program through the freshly imported
modules `sc` and check(output) returns None or the reason it is wrong.

Every check is computed here or in `checks`, never read from a stored
copy of earlier results.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import checks as C

K2 = ("a", "b")
K3 = ("a", "b", "c")
K4 = ("a", "b", "c", "d")


class CliOutput:
    def __init__(self, code: int, stdout: str):
        self.code = code
        self.stdout = stdout

    def payload(self) -> dict:
        return json.loads(self.stdout)


def call_cli(sc, argv: list) -> CliOutput:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = sc.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(code, out.getvalue())


def _expect_code(out: CliOutput, holds: bool):
    want = 0 if holds else 1
    if out.code != want:
        return f"exit code {out.code}, expected {want}"
    return None


def _scf_json(n: int, outcomes: tuple, values: tuple) -> dict:
    return {
        "agents": n,
        "outcomes": list(outcomes),
        "map": [
            {"profile": [list(r) for r in p], "outcome": v}
            for p, v in zip(C.profiles(n, outcomes), values)
        ],
    }


# --- property-check -------------------------------------------------------------


class PropertyCheck:
    """(2,3) SCFs; per table six `property` calls and one `audit`.  One
    table in sixteen is a full-range dictatorship, the others seeded random
    tables that are not strategy-proof."""

    name = "property-check"
    round_seconds = 32.0
    max_rounds = 2  # only two (2,3) dictatorships exist
    PROPS = ("citsov", "nodict", "dom", "br(1)", "br(2)", "strproof")
    TABLES_PER_ROUND = 16

    def __init__(self, seed: int, rounds: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        n, k = 2, K3
        first_dictator = rng.choice((1, 2))
        seen = set()
        self.tables = []
        for r in range(rounds):
            agent = first_dictator if r == 0 else 3 - first_dictator
            dictatorship = tuple(p[agent - 1][0] for p in C.profiles(n, k))
            chunk = []
            while len(chunk) < self.TABLES_PER_ROUND - 1:
                values = tuple(rng.choice(k) for _ in C.profiles(n, k))
                # a strategy-proof random table would sweep all true profiles
                # and change the cost class of its strproof and audit calls
                if values in seen or C.is_strategy_proof(n, k, values):
                    continue
                seen.add(values)
                chunk.append(values)
            chunk.insert(rng.randrange(len(chunk) + 1), dictatorship)
            self.tables += chunk
        self.n, self.k = n, k
        specs = []
        for t, values in enumerate(self.tables):
            for prop in self.PROPS:
                specs.append((t, prop))
            specs.append((t, "audit"))
        rng.shuffle(specs)
        self.specs = specs

    def path(self, t: int) -> Path:
        return self.workdir / f"scf{t:03d}.json"

    def write_inputs(self) -> None:
        for t, values in enumerate(self.tables):
            self.path(t).write_text(json.dumps(_scf_json(self.n, self.k, values)))

    def warm(self, sc) -> None:
        pass

    def ops(self):
        for t, what in self.specs:
            values = self.tables[t]
            if what == "audit":
                argv = ["audit", "--scf", str(self.path(t)), "--json"]
                check = self._audit_check(values)
            else:
                argv = ["property", "--scf", str(self.path(t)), what, "--json"]
                check = self._property_check(values, what)
            yield f"{what} t{t}", (lambda sc, argv=argv: call_cli(sc, argv)), check

    def _property_check(self, values: tuple, prop: str):
        def check(out: CliOutput):
            holds = C.property_verdict(prop, self.n, self.k, values)
            data = out.payload()
            if data["verdict"] != ("PASS" if holds else "FAIL"):
                return f"verdict {data['verdict']}, expected holds={holds}"
            if data["oracle"] != holds:
                return f"oracle {data['oracle']}, expected {holds}"
            return _expect_code(out, holds)

        return check

    def _audit_check(self, values: tuple):
        def check(out: CliOutput):
            n, k = self.n, self.k
            sp = C.is_strategy_proof(n, k, values)
            want = {
                "truthful_dom": sp,
                "dom_implement": C.dom_implements(n, k, values),
                "monotonic": C.is_monotonic(n, k, values),
                "strproof_encoding": sp,
            }
            data = out.payload()
            for key, value in want.items():
                if data[key] != value:
                    return f"audit {key}={data[key]}, expected {value}"
            agree = want["dom_implement"] == sp and want["monotonic"] == sp
            if data["all_agree"] != agree:
                return f"all_agree={data['all_agree']}, expected {agree}"
            return _expect_code(out, agree)

        return check


# --- formula-decide -------------------------------------------------------------


def _agents(n: int):
    return range(1, n + 1)


class FormulaGen:
    """Seeded formulas over (n, K) in the checks' tuple syntax."""

    def __init__(self, rng: random.Random, n: int, outcomes: tuple, better: bool):
        self.rng, self.n, self.k, self.better = rng, n, outcomes, better

    def agent(self) -> int:
        return self.rng.randint(1, self.n)

    def coalition(self) -> frozenset:
        while True:
            c = frozenset(i for i in _agents(self.n) if self.rng.random() < 0.5)
            if c:
                return c

    def out(self) -> tuple:
        return ("out", self.rng.choice(self.k))

    def rep(self) -> tuple:
        x, y = self.rng.sample(self.k, 2)
        return ("rep", self.agent(), x, y)

    def ranking(self) -> tuple:
        return tuple(self.rng.sample(self.k, len(self.k)))

    def leaf(self) -> tuple:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            return self.rep()
        if roll < 0.7:
            return self.out()
        kinds = ["ballot", "ballotAll", "citsov", "nodict", "br", "dom"]
        if self.better:
            kinds.append("better")
        kind = rng.choice(kinds)
        if kind == "ballot":
            return ("ballot", self.agent(), self.ranking())
        if kind == "ballotAll":
            return ("ballotAll", tuple(self.ranking() for _ in _agents(self.n)))
        if kind == "br":
            return ("br", self.agent())
        if kind == "better":
            x, y = rng.sample(self.k, 2)
            return ("better", self.agent(), ("out", x), ("out", y))
        return (kind,)

    def random(self, size: int) -> tuple:
        """A formula with `size` connectives or modalities."""
        if size == 0:
            return self.leaf()
        rng = self.rng
        kind = rng.choice(("not", "and", "or", "imp", "iff", "dia", "box", "pref", "prefbox"))
        if kind in ("and", "or", "imp", "iff"):
            left = rng.randint(0, size - 1)
            return (kind, self.random(left), self.random(size - 1 - left))
        child = self.random(size - 1)
        if kind == "not":
            return ("not", child)
        if kind in ("dia", "box"):
            return (kind, self.coalition(), child)
        return (kind, self.agent(), child)

    # fixed shapes, so that a template's cost does not depend on the seed
    def shape_a(self) -> tuple:
        return ("and", self.out(), ("dia", self.coalition(), self.rep()))

    def shape_b(self) -> tuple:
        return ("pref", self.agent(), ("or", self.out(), self.rep()))

    def shape_c(self) -> tuple:
        return ("box", self.coalition(), ("imp", self.rep(), self.out()))

    def tautology(self, template: int) -> tuple:
        """Valid formulas by construction; checked all the same."""
        if template == 0:  # K for [C]
            c, phi, psi = self.coalition(), self.shape_a(), self.shape_b()
            return ("imp", ("box", c, ("imp", phi, psi)), ("imp", ("box", c, phi), ("box", c, psi)))
        if template == 1:  # pref(i) is transitive
            i, phi = self.agent(), self.shape_c()
            return ("imp", ("pref", i, ("pref", i, phi)), ("pref", i, phi))
        if template == 2:  # [N] phi -> Pref(i) phi
            phi = ("and", self.shape_b(), self.shape_a())
            return ("imp", ("box", frozenset(_agents(self.n)), phi), ("prefbox", self.agent(), phi))
        if template == 3:  # global preference between outcomes is total
            i = self.agent()
            x, y = self.rng.sample(self.k, 2)
            return ("or", ("better", i, ("out", x), ("out", y)), ("better", i, ("out", y), ("out", x)))
        if template == 4:  # a dominant-strategy equilibrium is a best response
            phi = self.shape_c()
            return ("imp", ("and", ("dom",), phi), ("and", ("br", self.agent()), phi))
        raise ValueError(template)


class FormulaDecide:
    """`sat`, `valid` and `check --model` on seeded formula texts."""

    name = "formula-decide"
    round_seconds = 5.0
    max_rounds = 40
    ENUM_SCALES = ((2, K2), (3, K2), (1, K3))
    CHECK_SCALES = ((3, K3), (2, K4))
    EARLY_PER_SCALE = 20  # half sat, half valid
    EARLY_LIMIT = 8  # the witness or counterexample lies in the first 8 models
    TEMPLATES = 5
    SMALL_FULL = (0, 1, 4)  # templates fully enumerated at (2,2)
    CHECKS_PER_SCALE = 3

    def __init__(self, seed: int, rounds: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.models = []  # (n, K, values, truth) per check model file
        self.specs = []
        seen = set()
        for _ in range(rounds):
            chunk = []
            for n, k in self.ENUM_SCALES:
                gen = FormulaGen(rng, n, k, better=True)
                for j in range(self.EARLY_PER_SCALE):
                    chunk.append(self._early(gen, "sat" if j % 2 else "valid", seen))
                templates = self.SMALL_FULL if k == K2 and n == 2 else range(self.TEMPLATES)
                for t in templates:
                    while True:
                        f = gen.tautology(t)
                        if (n, k, f) not in seen:
                            break
                    seen.add((n, k, f))
                    # valid of the tautology or sat of its negation: both
                    # enumerate the whole class
                    if rng.random() < 0.5:
                        chunk.append(("valid", n, k, f, f"T{t}"))
                    else:
                        chunk.append(("sat", n, k, ("not", f), f"T{t}"))
            for n, k in self.CHECK_SCALES:
                gen = FormulaGen(rng, n, k, better=False)
                for _ in range(self.CHECKS_PER_SCALE):
                    size = len(C.profiles(n, k))
                    values = tuple(rng.choice(k) for _ in range(size))
                    truth = rng.randrange(size)
                    self.models.append((n, k, values, truth))
                    chunk.append(("check", n, k, gen.random(5), len(self.models) - 1))
            rng.shuffle(chunk)
            self.specs += chunk

    def _early(self, gen: FormulaGen, kind: str, seen: set) -> tuple:
        want = kind == "sat"
        while True:
            f = gen.random(gen.rng.randint(3, 6))
            for cand in (f, ("not", f)):
                key = (gen.n, gen.k, C.render(cand, gen.n), kind)
                if key in seen:
                    continue
                if C.first_hit(gen.n, gen.k, cand, want, self.EARLY_LIMIT) is not None:
                    seen.add(key)
                    return (kind, gen.n, gen.k, cand, "early")

    def path(self, m: int) -> Path:
        return self.workdir / f"model{m:03d}.json"

    def write_inputs(self) -> None:
        for m, (n, k, values, truth) in enumerate(self.models):
            data = _scf_json(n, k, values)
            data["true_preferences"] = [list(r) for r in C.profiles(n, k)[truth]]
            self.path(m).write_text(json.dumps(data))

    def warm(self, sc) -> None:
        pass

    def ops(self):
        for kind, n, k, f, tag in self.specs:
            text = C.render(f, n)
            if kind == "check":
                argv = ["check", "--model", str(self.path(tag)), text, "--json"]
                check = self._check_check(f, tag)
                tag = f"m{tag}"
            else:
                argv = [kind, "--agents", str(n), "--outcomes", ",".join(k), text, "--json"]
                check = self._decide_check(kind, n, k, f)
            yield f"{kind} ({n},{len(k)}) {tag}", (lambda sc, argv=argv: call_cli(sc, argv)), check

    def _decide_check(self, kind: str, n: int, k: tuple, f: tuple):
        want = kind == "sat"

        def check(out: CliOutput):
            data = out.payload()
            found = "witness" if want else "counterexample"
            total = C.model_count(n, k)
            if found not in data:
                # satisfiable/invalid never claimed: no model may have one
                if C.first_hit(n, k, f, want, total) is not None:
                    return f"{data['status']}, but a {found} exists"
                return _expect_code(out, not want)
            values, truth = C.model_from_json(data[found]["model"])
            where = C.profile_position(n, k)
            state = where[tuple(tuple(r) for r in data[found]["state"])]
            claimed = C.table_index(values, k) * len(where) + truth
            first = C.first_hit(n, k, f, want, claimed + 1)
            if first != (claimed, state):
                return f"{found} at (model {claimed}, state {state}), first is {first}"
            return _expect_code(out, want)

        return check

    def _check_check(self, f: tuple, m: int):
        n, k, values, truth = self.models[m]

        def check(out: CliOutput):
            frame = C.frame_for(n, k)
            mask = C.Evaluator(frame, f).mask(values, truth)
            data = out.payload()
            rows = data["states"]
            if len(rows) != len(frame.states):
                return f"{len(rows)} states, expected {len(frame.states)}"
            for v, row in enumerate(rows):
                if tuple(tuple(r) for r in row["state"]) != frame.states[v]:
                    return f"state {v} out of canonical order"
                if row["holds"] != bool(mask >> v & 1):
                    return f"truth at state {v} is {row['holds']}, expected {not row['holds']}"
            valid = mask == frame.full
            if data["valid"] != valid:
                return f"valid={data['valid']}, expected {valid}"
            return _expect_code(out, valid)

        return check


# --- axiom-sweep --------------------------------------------------------------------


def agent_set(formula):
    """Agents of the reported atoms of a modality-free, outcome-free
    scflogic formula; None outside that fragment."""
    agents = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        if kind in ("Diamond", "Pref", "Out"):
            return None
        if kind == "Rep":
            agents.add(node.agent)
        stack.extend(node.children())
    return frozenset(agents)


class AxiomSweep:
    """Each axiom schema at each scale through `axioms.instantiate` and
    `axioms.soundness_check`, plus one planted unsound formula per scale."""

    name = "axiom-sweep"
    round_seconds = 16.0
    max_rounds = 1  # a second pass would repeat the fully enumerated scales
    SAMPLED = 1000
    # (label, n, K, sampled?)
    SCALES = (
        ("(2,2)", 2, K2, False),
        ("(3,2)", 3, K2, False),
        ("(2,3)a", 2, K3, True),
        ("(2,3)b", 2, K3, True),
        ("(1,3)", 1, K3, False),
    )

    def __init__(self, seed: int, rounds: int, workdir: Path):
        rng = random.Random(seed)
        sampled = [label for label, _, _, s in self.SCALES if s]
        self.sample_seeds = dict(zip(sampled, rng.sample(range(2**31), len(sampled))))
        self.planted = {}
        for label, n, k, _ in self.SCALES:
            i, x = rng.randint(1, n), rng.choice(k)
            shape = rng.randrange(3)
            if shape == 0:  # i can reach x, so x holds
                f = ("imp", ("dia", frozenset({i}), ("out", x)), ("out", x))
            elif shape == 1:  # something as good as x for i, so x holds
                f = ("imp", ("pref", i, ("out", x)), ("out", x))
            else:  # x holds, so i cannot move away from it
                f = ("imp", ("out", x), ("box", frozenset({i}), ("out", x)))
            self.planted[label] = f
        self.specs = [(label, s) for label, *_ in self.SCALES for s in range(21)]
        rng.shuffle(self.specs)
        self.scales = {}

    def write_inputs(self) -> None:
        pass

    def warm(self, sc) -> None:
        """Models, metavariable pool and planted formula per scale, as the
        `axioms` command prepares them once per run."""
        self.scales = {}
        for label, n, k, sampled in self.SCALES:
            if sampled:
                models = sc.decision.sample_models(n, k, self.SAMPLED, seed=self.sample_seeds[label])
            else:
                models = list(sc.decision.enumerate_models(n, k))
            pool = sc.axioms.default_pool(n, k)
            planted = sc.parser.parse(C.render(self.planted[label], n), (n, k))
            self.scales[label] = (n, k, models, pool, planted)

    def ops(self):
        for label, s in self.specs:
            if s < len(self.SCHEMAS):
                schema = self.SCHEMAS[s]
                run = lambda sc, label=label, schema=schema: self._sweep(sc, label, schema)
                yield f"{schema} {label}", run, self._schema_check(label, schema)
            else:
                run = lambda sc, label=label: self._planted(sc, label)
                yield f"planted {label}", run, self._planted_check(label)

    SCHEMAS = (
        "refl", "antisym-total", "trans", "K(i)", "T(i)", "B(i)", "comp-union",
        "confl", "empty", "exclu", "ballot", "comp-At", "func1", "func2", "incl",
        "K(pref)", "4(pref)", "antisym'", "total'", "unifPref",
    )

    def _sweep(self, sc, label: str, schema: str):
        n, k, models, pool, _ = self.scales[label]
        instances = sc.axioms.instantiate(schema, n, k, pool)
        return sc.axioms.soundness_check(instances, models)

    def _planted(self, sc, label: str):
        n, k, models, _, planted = self.scales[label]
        instance = sc.axioms.AxiomInstance("planted", {}, planted)
        return sc.axioms.soundness_check([instance], models)

    def _schema_check(self, label: str, schema: str):
        def check(report):
            n, k, models, pool, _ = self.scales[label]
            pairs = C.disjoint_pairs([agent_set(f) for f in pool])
            count = C.schema_instances(schema, n, len(k), len(pool), pairs)
            results = report.results
            if count == 0:
                return None if not results else f"{len(results)} results for no instances"
            if len(results) != 1:
                return f"{len(results)} results, expected 1"
            r = results[0]
            if (r.schema, r.instances, r.models) != (schema, count, len(models)):
                return f"{r.schema}: {r.instances} instances on {r.models} models, expected {count} on {len(models)}"
            if not r.ok or not report.ok:
                return f"schema {schema} reported unsound"
            return None

        return check

    def _planted_check(self, label: str):
        def check(report):
            n, k, models, _, _ = self.scales[label]
            frame = C.frame_for(n, k)
            where = C.profile_position(n, k)
            ev = C.Evaluator(frame, self.planted[label])
            first = None
            for m, model in enumerate(models):
                values = tuple(model.table.values)
                truth = where[tuple(o.ranking for o in model.truth.orders)]
                bad = frame.full ^ ev.mask(values, truth)
                if bad:
                    first = (m, (bad & -bad).bit_length() - 1)
                    break
            if first is None:
                return "planted formula holds in every model"
            if report.ok or len(report.results) != 1:
                return "planted formula not reported unsound"
            _, model, state = report.results[0].counterexample
            got_model = next(m for m, x in enumerate(models) if x is model)
            got = (got_model, where[tuple(o.ranking for o in state.orders)])
            if got != first:
                return f"first failure at {got}, expected {first}"
            return None

        return check


WORKLOADS = {w.name: w for w in (PropertyCheck, FormulaDecide, AxiomSweep)}
