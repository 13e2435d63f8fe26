"""Command-line front end.

Subcommands: check, property, sat, valid, encode, equilibria, audit,
axioms.  All output is line-oriented plain text; --json switches every
subcommand to a machine-readable verdict object.  Exit codes: 0 when the
queried property holds (valid / satisfiable / PASS), 1 when it does not,
2 on usage or input errors and on any unexpected error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import decision, encodings, files, game
from ._stacked import Evaluator
from .core import InvalidDomain, Profile, ScfModel, all_profiles, scf_as_game_form
from .parser import ParseError, format_formula, parse

__all__ = ["main"]


class _ProfileJson(tuple):
    """A profile in a payload, the tuple of its rankings: `json.dumps`
    writes it as the array of arrays it stands for, and `_json` joins it
    in one step."""

    __slots__ = ()


def _profile_json(profile: Profile) -> _ProfileJson:
    return _ProfileJson([order.ranking for order in profile.orders])


class _StatesJson(list):
    """`check`'s per-state rows, each {"state": a `_ProfileJson`, "holds": a
    bool}: `json.dumps` writes it as the list of objects it is, and `_json`
    joins it in one step from `texts`, the row texts of its (n, K)
    (`_state_rows`), which `check` sets, its rows being the states of (n,
    K) in order.  Rows made otherwise have none, and `_json` writes them as
    any list."""

    __slots__ = ("texts",)

    def __init__(self, rows=(), texts: Optional[tuple[str, ...]] = None):
        super().__init__(rows)
        self.texts = texts


def _model_lines(model: ScfModel) -> list[str]:
    lines = [f"truth: {model.truth}"]
    for state in model.states:
        lines.append(f"  out {state} -> {model.out(state)}")
    return lines


def _parse_outcomes(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _formula_arg(args: argparse.Namespace) -> str:
    positional = getattr(args, "formula_pos", None)
    flagged = getattr(args, "formula", None)
    if positional is None and flagged is None:
        raise InvalidDomain("no formula given: give it positionally or via --formula")
    if positional is not None and flagged is not None:
        raise InvalidDomain("give the formula either positionally or via --formula, not both")
    return positional if positional is not None else flagged


_string = json.encoder.encode_basestring_ascii
# the C encoder `json.dumps` runs when it does not indent; it returns chunks
_compact = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _string, None, ": ", ", ", False, False, True
)


def _profile_text(profile: _ProfileJson, indent: str) -> str:
    inner = indent + "  "
    name = "," + inner + "  "
    rankings = ["[" + name[1:] + name.join(map(_string, r)) + inner + "]" for r in profile]
    return "[" + inner + ("," + inner).join(rankings) + indent + "]"


# the line break and indentation that close a payload's values
_VALUE = "\n  "


@lru_cache(maxsize=None)
def _state_rows(n: int, outcomes: tuple[str, ...]) -> tuple[tuple[_ProfileJson, ...], tuple[str, ...]]:
    """Per state of (n, K), in order: its `_ProfileJson`, and the text of its
    row in a payload's `_StatesJson` value up to the "holds" value, as
    `_json` writes it, built once per (n, K)."""
    profiles = tuple(map(_profile_json, all_profiles(n, outcomes)))
    field = _VALUE + "    "
    texts = tuple(
        "{" + field + '"state": ' + _profile_text(profile, field) + "," + field + '"holds": '
        for profile in profiles
    )
    return profiles, texts


def _json(value: object, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for the payloads'
    types: lists, tuples, dicts with string keys, strings and scalars.
    `indent` is the line break and indentation that close `value`.
    `json.dumps` takes its pure-Python path whenever it indents; here
    containers are joined level by level with `str.join`, strings go to
    the C string encoder and other scalars to the C compact encoder.  A
    `_ProfileJson` (`check` has one per state) is joined in one step, its
    outcome names straight through the C string encoder: a profile and its
    rankings are never empty.  So is `check`'s `_StatesJson` as a
    payload's value: each row is its state's text, kept per (n, K)
    (`_state_rows`), and its "holds" value and closing brace, as a model
    has at least one state."""
    if isinstance(value, str):
        return _string(value)
    if type(value) is _ProfileJson:
        return _profile_text(value, indent)
    if type(value) is _StatesJson and value.texts is not None and indent == _VALUE:
        inner = indent + "  "
        yes, no = "true" + inner + "}", "false" + inner + "}"
        rows = [text + (yes if row["holds"] else no) for text, row in zip(value.texts, value)]
        return "[" + inner + ("," + inner).join(rows) + indent + "]"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = ("," + inner).join([_json(item, inner) for item in value])
        return "[" + inner + items + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = ("," + inner).join(
            [_string(key) + ": " + _json(item, inner) for key, item in value.items()]
        )
        return "{" + inner + items + indent + "}"
    return "".join(_compact(value, 0))


def _emit(
    args: argparse.Namespace,
    payload: Callable[[], dict],
    lines: Callable[[], list[str]],
) -> None:
    """Print the JSON payload or the text lines; only the one printed is built."""
    if args.json:
        print(_json(payload()))
    else:
        for line in lines():
            print(line)


def cmd_check(args: argparse.Namespace) -> int:
    model = files.load_model(args.model)
    text = _formula_arg(args)
    formula = parse(text, (model.n, model.outcomes))
    ev = Evaluator(model)
    mask = ev.truth_mask(formula)
    # state v's truth is bit v of the mask, digit v of its binary text read from the end
    holds = [bit == "1" for bit in reversed(f"{mask:0{len(model.states)}b}")]
    valid = mask == ev.full

    def payload() -> dict:
        profiles, texts = _state_rows(model.n, model.outcomes)
        rows = [{"state": state, "holds": h} for state, h in zip(profiles, holds)]
        return {"command": "check", "formula": text, "states": _StatesJson(rows, texts), "valid": valid}

    _emit(
        args,
        payload,
        lambda: [f"{'state':<6} {'profile':<24} holds"]
        + [
            f"{idx:<6} {str(state):<24} {str(h).lower()}"
            for idx, (state, h) in enumerate(zip(model.states, holds))
        ]
        + [f"valid in model: {'yes' if valid else 'no'}"],
    )
    return 0 if valid else 1


def cmd_property(args: argparse.Namespace) -> int:
    table = files.load_scf(args.scf)
    prop = encodings.PropertyId.parse(args.property)
    verdict = decision.check_scf_property(table, prop, args.budget)
    holds = verdict.status == "valid"
    oracle, detail = game.property_oracle(table, prop)

    def lines() -> list[str]:
        text = [f"property {prop}: {'PASS' if holds else 'FAIL'}"]
        if not holds:
            if detail:
                text.append(f"  {detail}")
            assert verdict.counterexample is not None
            model, state = verdict.counterexample
            text.append(f"  encoding fails at state {state} with truth {model.truth}")
        if oracle != holds:
            text.append(
                "  DISAGREEMENT: game-theoretic oracle says"
                f" {'PASS' if oracle else 'FAIL'} (reported, not reconciled)"
            )
        return text

    _emit(
        args,
        lambda: {
            "command": "property",
            "property": str(prop),
            "verdict": "PASS" if holds else "FAIL",
            "oracle": oracle,
            "agrees": oracle == holds,
            "detail": detail or None,
            "counterexample": _state_truth_json(verdict.counterexample),
        },
        lines,
    )
    return 0 if holds else 1


def _state_truth_json(pair: Optional[tuple[ScfModel, Profile]]) -> Optional[dict]:
    if pair is None:
        return None
    model, state = pair
    return {"state": _profile_json(state), "truth": _profile_json(model.truth)}


def _verdict_payload(verdict: decision.Verdict) -> dict:
    payload: dict = {"status": verdict.status}
    pair = verdict.witness or verdict.counterexample
    if pair is not None:
        model, state = pair
        key = "witness" if verdict.witness else "counterexample"
        payload[key] = {"model": files.model_to_dict(model), "state": _profile_json(state)}
    return payload


def _verdict_lines(verdict: decision.Verdict, headline: str) -> list[str]:
    lines = [headline]
    pair = verdict.witness or verdict.counterexample
    if pair is not None:
        model, state = pair
        label = "witness" if verdict.witness else "counterexample"
        lines.append(f"{label} state: {state}")
        lines += [f"{label} {line}" for line in _model_lines(model)]
    return lines


_HEADLINES = {
    "satisfiable": "SAT",
    "unsatisfiable": "UNSAT",
    "valid": "VALID",
    "invalid": "INVALID",
}


def cmd_decide(args: argparse.Namespace) -> int:
    """sat and valid: decide the formula over the whole model class."""
    outcomes = _parse_outcomes(args.outcomes)
    formula = parse(_formula_arg(args), (args.agents, outcomes))
    decide = decision.satisfiable if args.command == "sat" else decision.valid
    verdict = decide(args.agents, outcomes, formula, args.budget)
    _emit(
        args,
        lambda: {"command": args.command, **_verdict_payload(verdict)},
        lambda: _verdict_lines(verdict, _HEADLINES[verdict.status]),
    )
    return 0 if verdict else 1


def cmd_encode(args: argparse.Namespace) -> int:
    table = files.load_scf(args.scf)
    text = format_formula(encodings.rho(table, args.form))
    _emit(args, lambda: {"command": "encode", "form": args.form, "formula": text}, lambda: [text])
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    model = files.load_model(args.model)
    concept = game.SolutionConcept(args.concept)
    direct = scf_as_game_form(model.table)
    found = game.solution_set(direct, model.truth, concept)
    _emit(
        args,
        lambda: {
            "command": "equilibria",
            "concept": concept.name,
            "equilibria": [
                {"profile": _profile_json(Profile(combo)), "outcome": direct.outcome(combo)}
                for combo in found
            ],
        },
        lambda: [f"{concept.name} equilibria under truth {model.truth}: {len(found)}"]
        + [f"  {Profile(combo)} -> {direct.outcome(combo)}" for combo in found],
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    table = files.load_scf(args.scf)
    report = game.equivalence_audit(table)
    _emit(
        args,
        lambda: {
            "command": "audit",
            "truthful_dom": report.truthful_dom,
            "dom_implement": report.dom_implement,
            "monotonic": report.monotonic,
            "strproof_encoding": report.strproof_encoding,
            "all_agree": report.all_agree,
        },
        lambda: [
            f"truthful DOM-implementation : {report.truthful_dom}",
            f"DOM-implementation          : {report.dom_implement}",
            f"monotonic                   : {report.monotonic}",
            f"strategy-proofness encoding : {report.strproof_encoding}",
            f"truthful = implement        : {report.truthful_vs_implement}",
            f"monotonic = truthful        : {report.monotonic_vs_truthful}",
            f"encoding = truthful         : {report.encoding_vs_truthful}",
            f"all agree                   : {report.all_agree}",
        ],
    )
    return 0 if report.all_agree else 1


def _failure_json(counterexample: Optional[tuple]) -> Optional[dict]:
    if counterexample is None:
        return None
    inst, model, state = counterexample
    return {"instance": inst.describe(), **_state_truth_json((model, state))}


def cmd_axioms(args: argparse.Namespace) -> int:
    from . import axioms  # here, so that the other commands do not load it

    outcomes = _parse_outcomes(args.outcomes)
    try:
        models = decision.enumerate_models(args.agents, outcomes, args.budget)
        source = f"all {len(models)} models"
    except decision.BudgetExceeded as exc:
        models = decision.sample_models(args.agents, outcomes, 1000, args.seed, args.budget)
        source = f"{len(models)} sampled models (seed {args.seed}; class has {exc.models})"
    axioms.check_sweep_size(args.agents, outcomes, models)
    report = axioms.soundness_check(axioms.instantiate_all(args.agents, outcomes), models)
    _emit(
        args,
        lambda: {
            "command": "axioms",
            "models": source,
            "ok": report.ok,
            "schemas": [
                {
                    "schema": r.schema,
                    "instances": r.instances,
                    "models": r.models,
                    "ok": r.ok,
                    "first_failure": _failure_json(r.counterexample),
                }
                for r in report.results
            ],
        },
        lambda: [
            f"checking {sum(r.instances for r in report.results)} instances against {source}",
            report.render(),
        ],
    )
    return 0 if report.ok else 1


def _add_formula_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("formula_pos", nargs="?", metavar="FORMULA", help="formula text")
    sub.add_argument("--formula", help="formula text (alternative to the positional)")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every `main` call reuses it."""
    top = argparse.ArgumentParser(
        prog="scflogic",
        description="Model checking and property verification for social choice functions.",
    )
    subs = top.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="per-state truth table of a formula in a model")
    check.add_argument("--model", required=True, help="model JSON file")
    _add_formula_args(check)

    prop = subs.add_parser("property", help="check an SCF property via its encoding")
    prop.add_argument("--scf", required=True, help="SCF JSON file")
    prop.add_argument("property", help=" | ".join(encodings.PropertyId.spellings()))
    prop.add_argument(
        "--budget",
        type=int,
        default=decision.PROPERTY_BUDGET,
        help="largest estimated work of the check, in bit operations",
    )

    budget_help = "maximum number of models to enumerate"
    for name, help_text in (
        ("sat", "satisfiability by model enumeration"),
        ("valid", "validity by model enumeration"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--agents", type=int, required=True)
        sub.add_argument("--outcomes", required=True, help="comma-separated names")
        sub.add_argument(
            "--budget",
            type=int,
            default=decision.DEFAULT_BUDGET,
            help=f"{budget_help}; of outcome functions for a formula without pref",
        )
        _add_formula_args(sub)

    encode = subs.add_parser("encode", help="characteristic formula of an SCF")
    encode.add_argument("--scf", required=True)
    encode.add_argument("--form", choices=("diamond", "implication"), default="diamond")

    equilibria = subs.add_parser("equilibria", help="equilibria of the induced direct mechanism")
    equilibria.add_argument("--model", required=True)
    equilibria.add_argument(
        "--concept",
        choices=[concept.value for concept in game.SolutionConcept],
        default=game.SolutionConcept.NE.value,
    )

    audit = subs.add_parser("audit", help="strategy-proofness equivalence audit")
    audit.add_argument("--scf", required=True)

    ax = subs.add_parser("axioms", help="soundness sweep of the axiom schemas")
    ax.add_argument("--agents", type=int, required=True)
    ax.add_argument("--outcomes", required=True)
    ax.add_argument("--budget", type=int, default=decision.DEFAULT_BUDGET, help=budget_help)
    ax.add_argument("--seed", type=int, default=0, help="seed when sampling models")

    for sub in subs.choices.values():
        sub.add_argument("--json", action="store_true", help="emit a JSON verdict")
    return top


_HANDLERS = {
    "check": cmd_check,
    "property": cmd_property,
    "sat": cmd_decide,
    "valid": cmd_decide,
    "encode": cmd_encode,
    "equilibria": cmd_equilibria,
    "audit": cmd_audit,
    "axioms": cmd_axioms,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (
        ParseError,
        files.FileFormatError,
        InvalidDomain,
        decision.BudgetExceeded,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # usually raised with no message: name what ran out of memory
        print(f"error: out of memory while running {args.command}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is never "does not hold": report it on one line, exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
