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
import re
import sys
from typing import Optional, Sequence

from . import axioms as axioms_mod
from . import decision, encodings, files, game
from .core import InvalidDomain, Profile, ScfModel, ScfTable, all_profiles, scf_as_game_form
from .logic import Evaluator
from .parser import Context, ParseError, format_formula, parse

__all__ = ["main"]


def _profile_json(profile: Profile) -> list[list[str]]:
    return [list(order.ranking) for order in profile.orders]


def _model_lines(model: ScfModel) -> list[str]:
    lines = [f"truth: {model.truth}"]
    for state in model.states:
        lines.append(f"  out {state} -> {model.out(state)}")
    return lines


def _model_json(model: ScfModel) -> dict:
    return files.model_to_dict(model)


def _parse_outcomes(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _parse_property(text: str) -> encodings.PropertyId:
    match = re.fullmatch(r"br\(?(\d+)\)?", text)
    if match:
        return encodings.BR(int(match.group(1)))
    try:
        return encodings.PropertyId(text)
    except ValueError as exc:
        raise InvalidDomain(str(exc)) from None


def _formula_arg(args: argparse.Namespace) -> str:
    positional = getattr(args, "formula_pos", None)
    flagged = getattr(args, "formula", None)
    if (positional is None) == (flagged is None):
        raise InvalidDomain("give the formula either positionally or via --formula, not both")
    return positional if positional is not None else flagged


def _context(n: int, outcomes: Sequence[str]) -> Context:
    return Context(n, tuple(outcomes), scf_loader=files.load_scf)


def _budget(args: argparse.Namespace) -> decision.EnumerationBudget:
    if getattr(args, "budget", None) is None:
        return decision.EnumerationBudget()
    return decision.EnumerationBudget(max_models=args.budget)


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_check(args: argparse.Namespace) -> int:
    model = files.load_model(args.model)
    ctx = _context(model.n, model.outcomes)
    formula = parse(_formula_arg(args), ctx)
    ev = Evaluator(model)
    mask = ev.truth_mask(formula)
    rows = []
    for idx, state in enumerate(model.states):
        rows.append((idx, state, bool(mask >> idx & 1)))
    valid = mask == ev.space.full_mask
    lines = [f"{'state':<6} {'profile':<24} holds"]
    lines += [f"{idx:<6} {str(state):<24} {str(holds).lower()}" for idx, state, holds in rows]
    lines.append(f"valid in model: {'yes' if valid else 'no'}")
    payload = {
        "command": "check",
        "formula": format_formula(formula),
        "states": [
            {"state": _profile_json(state), "holds": holds} for _, state, holds in rows
        ],
        "valid": valid,
    }
    _emit(args, payload, lines)
    return 0 if valid else 1


def _oracle_verdict(table: ScfTable, prop: encodings.PropertyId) -> tuple[bool, str]:
    """Independent game-theoretic verdict plus a failure explanation."""
    if prop.kind == "citsov":
        missing = sorted(set(table.outcomes) - table.feasible_outcomes())
        return not missing, f"outcome {', '.join(missing)} unreachable" if missing else ""
    if prop.kind == "nodict":
        dictatorial, agent = game.is_dictatorial(table)
        return not dictatorial, f"dictator {agent}" if dictatorial else ""
    if prop.kind == "mon":
        report = game.is_monotonic(table)
        if report.ok:
            return True, ""
        return False, (
            f"outcome {report.outcome} chosen at {report.profile} but dropped at"
            f" {report.profile_after}"
        )
    if prop.kind == "strproof":
        if game.is_strategy_proof(table):
            return True, ""
        failure = game.truthfully_implements(
            scf_as_game_form(table), table, game.SolutionConcept.DOMEQ
        )
        return False, f"truth-telling not dominant at true profile {failure.profile}"
    if prop.kind == "dom":
        direct = scf_as_game_form(table)
        for truth in table.profiles:
            winners = set(game.dom_equilibria(direct, truth))
            for state in table.profiles:
                if state.orders not in winners:
                    return False, f"state {state} not dominant under truth {truth}"
        return True, ""
    if prop.kind == "br":
        agent = prop.agent
        assert agent is not None
        for truth in table.profiles:
            order = truth.order(agent)
            for state in table.profiles:
                current = table(state)
                for move in all_profiles(1, table.outcomes):
                    deviated = state.replace(agent, move.orders[0])
                    if order.strictly_better(table(deviated), current):
                        return False, f"agent {agent} improves by deviating at {state}"
        return True, ""
    raise InvalidDomain(f"no oracle for property {prop}")


def cmd_property(args: argparse.Namespace) -> int:
    table = files.load_scf(args.scf)
    prop = _parse_property(args.property)
    verdict = decision.check_scf_property(table, prop)
    holds = verdict.status == "valid"
    oracle, detail = _oracle_verdict(table, prop)
    lines = [f"property {prop}: {'PASS' if holds else 'FAIL'}"]
    if not holds:
        if detail:
            lines.append(f"  {detail}")
        assert verdict.counterexample is not None
        model, state = verdict.counterexample
        lines.append(f"  encoding fails at state {state} with truth {model.truth}")
    if oracle != holds:
        lines.append(
            "  DISAGREEMENT: game-theoretic oracle says"
            f" {'PASS' if oracle else 'FAIL'} (reported, not reconciled)"
        )
    payload = {
        "command": "property",
        "property": str(prop),
        "verdict": "PASS" if holds else "FAIL",
        "oracle": oracle,
        "agrees": oracle == holds,
        "detail": detail or None,
    }
    _emit(args, payload, lines)
    return 0 if holds else 1


def _verdict_payload(verdict: decision.Verdict) -> dict:
    payload: dict = {"status": verdict.status}
    pair = verdict.witness or verdict.counterexample
    if pair is not None:
        model, state = pair
        key = "witness" if verdict.witness else "counterexample"
        payload[key] = {"model": _model_json(model), "state": _profile_json(state)}
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


def cmd_sat(args: argparse.Namespace) -> int:
    outcomes = _parse_outcomes(args.outcomes)
    ctx = _context(args.agents, outcomes)
    formula = parse(_formula_arg(args), ctx)
    verdict = decision.satisfiable(args.agents, outcomes, formula, _budget(args))
    lines = _verdict_lines(verdict, "SAT" if verdict.status == "satisfiable" else "UNSAT")
    _emit(args, {"command": "sat", **_verdict_payload(verdict)}, lines)
    return 0 if verdict.status == "satisfiable" else 1


def cmd_valid(args: argparse.Namespace) -> int:
    outcomes = _parse_outcomes(args.outcomes)
    ctx = _context(args.agents, outcomes)
    formula = parse(_formula_arg(args), ctx)
    verdict = decision.valid(args.agents, outcomes, formula, _budget(args))
    lines = _verdict_lines(verdict, "VALID" if verdict.status == "valid" else "INVALID")
    _emit(args, {"command": "valid", **_verdict_payload(verdict)}, lines)
    return 0 if verdict.status == "valid" else 1


def cmd_encode(args: argparse.Namespace) -> int:
    table = files.load_scf(args.scf)
    text = format_formula(encodings.rho(table, args.form))
    _emit(args, {"command": "encode", "form": args.form, "formula": text}, [text])
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    model = files.load_model(args.model)
    concept = game.SolutionConcept.NE if args.concept == "ne" else game.SolutionConcept.DOMEQ
    direct = scf_as_game_form(model.table)
    found = game.solution_set(direct, model.truth, concept)
    lines = [f"{concept.name} equilibria under truth {model.truth}: {len(found)}"]
    for combo in found:
        profile = Profile(combo)
        lines.append(f"  {profile} -> {direct.outcome(combo)}")
    payload = {
        "command": "equilibria",
        "concept": concept.name,
        "equilibria": [
            {"profile": _profile_json(Profile(combo)), "outcome": direct.outcome(combo)}
            for combo in found
        ],
    }
    _emit(args, payload, lines)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    table = files.load_scf(args.scf)
    report = game.equivalence_audit(table)
    lines = [
        f"truthful DOM-implementation : {report.truthful_dom}",
        f"DOM-implementation          : {report.dom_implement}",
        f"monotonic                   : {report.monotonic}",
        f"strategy-proofness encoding : {report.strproof_encoding}",
        f"truthful = implement        : {report.truthful_vs_implement}",
        f"monotonic = truthful        : {report.monotonic_vs_truthful}",
        f"encoding = truthful         : {report.encoding_vs_truthful}",
        f"all agree                   : {report.all_agree}",
    ]
    payload = {
        "command": "audit",
        "truthful_dom": report.truthful_dom,
        "dom_implement": report.dom_implement,
        "monotonic": report.monotonic,
        "strproof_encoding": report.strproof_encoding,
        "all_agree": report.all_agree,
    }
    _emit(args, payload, lines)
    return 0 if report.all_agree else 1


def cmd_axioms(args: argparse.Namespace) -> int:
    outcomes = _parse_outcomes(args.outcomes)
    budget = _budget(args)
    count, states = decision.model_class_size(args.agents, outcomes)
    if count <= budget.max_models and states <= budget.max_states:
        models = list(decision.enumerate_models(args.agents, outcomes, budget))
        source = f"all {count} models"
    else:
        models = decision.sample_models(args.agents, outcomes, 1000, seed=args.seed)
        source = f"1000 sampled models (seed {args.seed}; class has {count})"
    instances = axioms_mod.instantiate_all(args.agents, outcomes)
    report = axioms_mod.soundness_check(instances, models)
    lines = [f"checking {len(instances)} instances against {source}", report.render()]
    payload = {
        "command": "axioms",
        "models": source,
        "ok": report.ok,
        "schemas": [
            {
                "schema": r.schema,
                "instances": r.instances,
                "models": r.models,
                "ok": r.ok,
            }
            for r in report.results
        ],
    }
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def _add_formula_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("formula_pos", nargs="?", metavar="FORMULA", help="formula text")
    sub.add_argument("--formula", help="formula text (alternative to the positional)")


def build_parser() -> argparse.ArgumentParser:
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
    prop.add_argument(
        "property",
        help="citsov | nodict | dom | mon | strproof | br(i)",
    )

    for name, help_text in (
        ("sat", "satisfiability by model enumeration"),
        ("valid", "validity by model enumeration"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--agents", type=int, required=True)
        sub.add_argument("--outcomes", required=True, help="comma-separated names")
        sub.add_argument("--budget", type=int, help="maximum number of models to enumerate")
        _add_formula_args(sub)

    encode = subs.add_parser("encode", help="characteristic formula of an SCF")
    encode.add_argument("--scf", required=True)
    encode.add_argument("--form", choices=("diamond", "implication"), default="diamond")

    equilibria = subs.add_parser("equilibria", help="equilibria of the induced direct mechanism")
    equilibria.add_argument("--model", required=True)
    equilibria.add_argument("--concept", choices=("ne", "dom"), default="ne")

    audit = subs.add_parser("audit", help="strategy-proofness equivalence audit")
    audit.add_argument("--scf", required=True)

    ax = subs.add_parser("axioms", help="soundness sweep of the axiom schemas")
    ax.add_argument("--agents", type=int, required=True)
    ax.add_argument("--outcomes", required=True)
    ax.add_argument("--budget", type=int, help="maximum number of models to enumerate")
    ax.add_argument("--seed", type=int, default=0, help="seed when sampling models")

    for sub in subs.choices.values():
        sub.add_argument("--json", action="store_true", help="emit a JSON verdict")
    return top


_HANDLERS = {
    "check": cmd_check,
    "property": cmd_property,
    "sat": cmd_sat,
    "valid": cmd_valid,
    "encode": cmd_encode,
    "equilibria": cmd_equilibria,
    "audit": cmd_audit,
    "axioms": cmd_axioms,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (files.FileFormatError, InvalidDomain, decision.BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is never "does not hold": report it on one line, exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
