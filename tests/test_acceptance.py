"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall-clock time and asserting the stated limit.

Run with `pytest tests/test_acceptance.py -v -s` to watch the per-criterion
lines, or `-rA` to collect them in the summary.
"""

from __future__ import annotations

import itertools
import time

import pytest

from scflogic import (
    Evaluator,
    ScfModel,
    ScfTable,
    all_profiles,
    check_scf_property,
    dom_equilibria,
    enumerate_models,
    eval_kripke,
    has_citsov,
    implements,
    is_dictatorial,
    is_monotonic,
    is_strategy_proof,
    kripke_view,
    nash_equilibria,
    sample_models,
    scf_as_game_form,
    truthfully_implements,
    valid,
    valid_in_model,
)
from scflogic.axioms import instantiate_all, soundness_check
from scflogic.cli import main as cli_main
from scflogic.encodings import (
    CITSOV,
    MON,
    NODICT,
    STRPROOF,
    ballot_profile,
    better,
    rho,
)
from scflogic.files import save_scf
from scflogic.game import SolutionConcept
from scflogic.logic import Iff, Not, Out, Rep, conj
from scflogic.parser import Context, format_formula, parse

from conftest import AB, BA, K2, K3, make_formula_sampler, profile


class _Timer:
    def __init__(self, criterion: str, limit: float):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.criterion}] {verdict} in {elapsed:.2f}s (limit {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.criterion} exceeded {self.limit}s"
        return False


def test_criterion_1_implementation_verdict_matrix(h_table, j_table, p_table, g_j_minus, g_p_matrix):
    with _Timer("criterion 1: implementation verdicts", 1.0):
        g_h = scf_as_game_form(h_table)
        assert truthfully_implements(g_h, h_table, SolutionConcept.NE).ok
        failure = implements(g_h, h_table, SolutionConcept.NE)
        assert not failure.ok
        assert failure.profile == profile(("b", "a"), ("b", "a"))

        g_j = scf_as_game_form(j_table)
        assert implements(g_j, j_table, SolutionConcept.NE).ok
        assert truthfully_implements(g_j, j_table, SolutionConcept.NE).ok

        assert implements(g_j_minus, j_table, SolutionConcept.NE).ok
        assert not truthfully_implements(g_j_minus, j_table, SolutionConcept.NE).ok

        assert not implements(g_p_matrix, p_table, SolutionConcept.NE).ok
        assert not truthfully_implements(g_p_matrix, p_table, SolutionConcept.NE).ok


def test_criterion_2_ballot_characterization():
    with _Timer("criterion 2: ballot biconditional", 1.0):
        ctx = Context(2, K3)
        lhs = parse("ballot(1,[a,c,b]) & ballot(2,[c,a,b])", ctx)
        rhs = parse(
            "rep(1,a,a) & rep(1,b,b) & rep(1,c,c) & rep(1,a,c) & rep(1,c,b) & rep(1,a,b)"
            " & ~rep(1,c,a) & ~rep(1,b,c) & ~rep(1,b,a)"
            " & rep(2,a,a) & rep(2,b,b) & rep(2,c,c) & rep(2,c,a) & rep(2,a,b) & rep(2,c,b)"
            " & ~rep(2,a,c) & ~rep(2,b,a) & ~rep(2,b,c)",
            ctx,
        )
        assert valid(2, K3, Iff(lhs, rhs)).status == "valid"


def test_criterion_3_rho_forms():
    with _Timer("criterion 3: characteristic formula forms", 5.0):
        models = list(enumerate_models(2, K2))
        for values in itertools.product(K2, repeat=4):
            table = ScfTable(2, K2, values)
            diamond = rho(table, "diamond")
            implication = rho(table, "implication")
            for model in models:
                matches = model.table.values == values
                assert valid_in_model(model, diamond)[0] == matches
                assert valid_in_model(model, implication)[0] == matches
        # compact characterizations from the worked example, checked
        # pointwise against the implication form
        h_compact = parse("b <-> (rep(1,b,a) & rep(2,b,a))", Context(2, K2))
        j_compact = parse("a <-> rep(1,a,b)", Context(2, K2))
        p_compact = parse("a", Context(2, K2))
        for values, compact_f in (
            (("a", "a", "a", "b"), h_compact),
            (("a", "a", "b", "b"), j_compact),
            (("a", "a", "a", "a"), p_compact),
        ):
            table = ScfTable(2, K2, values)
            implication = rho(table, "implication")
            for model in models:
                assert valid_in_model(model, Iff(implication, compact_f))[0]


def test_criterion_4_axiom_soundness():
    with _Timer("criterion 4: axiom soundness", 120.0):
        report = soundness_check(
            instantiate_all(2, K2), list(enumerate_models(2, K2))
        )
        assert report.ok, report.render()
        report = soundness_check(
            instantiate_all(3, K2), list(enumerate_models(3, K2))
        )
        assert report.ok, report.render()
        report = soundness_check(
            instantiate_all(2, K3), sample_models(2, K3, 1000, seed=0)
        )
        assert report.ok, report.render()


def test_criterion_5_dom_against_oracle():
    from scflogic.encodings import dom as dom_formula

    with _Timer("criterion 5: dominance formula vs oracle", 60.0):
        for n in (1, 2, 3):
            formula = dom_formula(n, K2)
            game_cache: dict[tuple, object] = {}
            for model in enumerate_models(n, K2):
                ev = Evaluator(model)
                mask = ev.truth_mask(formula)
                game = game_cache.get(model.table.values)
                if game is None:
                    game = scf_as_game_form(model.table)
                    game_cache[model.table.values] = game
                winners = set(dom_equilibria(game, model.truth))
                for idx, state in enumerate(model.states):
                    assert bool(mask >> idx & 1) == (state.orders in winners)


def test_criterion_6_property_encodings_vs_oracles():
    with _Timer("criterion 6: encodings vs oracles, 16+256 SCFs", 120.0):
        for n, size in ((2, 4), (3, 8)):
            for values in itertools.product(K2, repeat=size):
                table = ScfTable(n, K2, values)
                enc_citsov = check_scf_property(table, CITSOV).status == "valid"
                enc_nodict = check_scf_property(table, NODICT).status == "valid"
                enc_mon = check_scf_property(table, MON).status == "valid"
                enc_sp = check_scf_property(table, STRPROOF).status == "valid"
                assert enc_citsov == has_citsov(table)
                assert enc_nodict == (not is_dictatorial(table)[0])
                assert enc_mon == is_monotonic(table).ok
                assert enc_sp == is_strategy_proof(table)
                assert enc_mon == enc_sp
                direct = scf_as_game_form(table)
                truthful = truthfully_implements(direct, table, SolutionConcept.DOMEQ).ok
                assert truthful == implements(direct, table, SolutionConcept.DOMEQ).ok
                assert is_monotonic(table).ok == truthful


def test_criterion_7_majority_strproof_via_cli(tmp_path, majority_table, capsys):
    with _Timer("criterion 7: majority strategy-proof via CLI", 1.0):
        path = tmp_path / "majority.json"
        save_scf(majority_table, path)
        code = cli_main(["property", "--scf", str(path), "strproof"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out


def test_criterion_8_infeasible_outcome_vacuity():
    with _Timer("criterion 8: infeasible-outcome vacuity", 5.0):
        table = ScfTable.from_function(
            2, K3, lambda p: "a" if p.order(1).top == "a" else "b"
        )
        assert "c" not in table.feasible_outcomes()
        model = ScfModel(table, all_profiles(2, K3)[17])
        for agent in (1, 2):
            for x in K3:
                assert valid_in_model(model, better(2, K3, agent, Out(x), Out("c")))[0]
                assert valid_in_model(model, better(2, K3, agent, Out("c"), Out(x)))[0]


def test_criterion_9_semantics_agreement():
    with _Timer("criterion 9: direct vs relational semantics", 60.0):
        draw = make_formula_sampler(2, K2, seed=2024)
        pool = draw(500, max_depth=8)
        for model in enumerate_models(2, K2):
            km = kripke_view(model)
            ev = Evaluator(model)
            for formula in pool:
                mask = ev.truth_mask(formula)
                for idx, state in enumerate(model.states):
                    direct = bool(mask >> idx & 1)
                    assert direct == eval_kripke(km, idx, formula)


def test_criterion_10_parser_roundtrip():
    with _Timer("criterion 10: parser round-trip", 30.0):
        contexts = [Context(1, ("a",)), Context(2, K2), Context(3, K3)]
        samplers = [
            make_formula_sampler(ctx.n, ctx.outcomes, seed=99 + i)
            for i, ctx in enumerate(contexts)
        ]
        for i in range(10000):
            ctx = contexts[i % 3]
            formula = samplers[i % 3](1, max_depth=8)[0]
            assert parse(format_formula(formula), ctx) == formula
