import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scflogic import (
    ScfModel,
    ScfTable,
    all_profiles,
    dom_equilibria,
    enumerate_models,
    scf_as_game_form,
    valid_in_model,
)
from scflogic import axioms, cli
from scflogic._stacked import StackedEvaluator
from scflogic.axioms import AxiomInstance
from scflogic.cli import main
from scflogic.encodings import MON, dom, property_formula
from scflogic.files import save_model, save_scf
from scflogic.logic import Iff, Out
from scflogic.parser import Context, parse

from conftest import K2, K3, profile


def _same_text(got: str, want: str, *context) -> None:
    """Fail unless `got == want`, byte for byte, naming the first offset
    where they differ and a short window of each there: a whole-text diff
    of a 100 KB `check --json` payload takes pytest minutes."""
    if got == want:
        return
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    window = slice(max(0, at - 40), at + 40)
    pytest.fail(
        f"texts of {len(got)} and {len(want)} characters differ at offset {at}:"
        f" {got[window]!r} != {want[window]!r} {context}",
        pytrace=False,
    )


def test_a_text_mismatch_names_its_first_offset():
    """`_same_text` passes equal texts and fails on a 100 KB pair at once,
    naming the first differing offset, or the shorter length where one
    text is the other's prefix, with a window of each."""
    text = "x" * 100_000
    _same_text(text, "x" * 100_000)
    started = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match=r"differ at offset 60000: 'x{40}yx{39}' != 'x{80}'"):
        _same_text(text[:60000] + "y" + text[60001:], text)
    with pytest.raises(pytest.fail.Exception, match=r"100000 and 99999 characters differ at offset 99999:"):
        _same_text(text, text[1:], "argv")
    assert time.perf_counter() - started < 5


@pytest.fixture()
def h_files(tmp_path, h_table):
    scf = tmp_path / "h.json"
    model = tmp_path / "h_model.json"
    save_scf(h_table, scf)
    save_model(ScfModel(h_table, profile(("b", "a"), ("b", "a"))), model)
    return scf, model


def test_check_dom_marks_equilibrium_states(capsys, h_files, h_table):
    _, model_path = h_files
    code = main(["check", "--model", str(model_path), "dom"])
    out = capsys.readouterr().out
    model = ScfModel(h_table, profile(("b", "a"), ("b", "a")))
    winners = {c for c in dom_equilibria(scf_as_game_form(h_table), model.truth)}
    for idx, state in enumerate(model.states):
        expect = "true" if state.orders in winners else "false"
        assert out.splitlines()[idx + 1].endswith(expect)
    assert code == 1  # not valid at every state
    assert "valid in model: no" in out


def test_check_true_exits_zero(capsys, h_files):
    _, model_path = h_files
    assert main(["check", "--model", str(model_path), "true"]) == 0
    assert "valid in model: yes" in capsys.readouterr().out


def test_property_strproof_majority(capsys, tmp_path, majority_table):
    path = tmp_path / "maj.json"
    save_scf(majority_table, path)
    assert main(["property", "--scf", str(path), "strproof"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_property_nodict_dictator(capsys, tmp_path, j_table):
    path = tmp_path / "j.json"
    save_scf(j_table, path)
    assert main(["property", "--scf", str(path), "nodict"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "dictator 1" in out


def test_property_citsov_unreachable(capsys, tmp_path, p_table):
    path = tmp_path / "p.json"
    save_scf(p_table, path)
    assert main(["property", "--scf", str(path), "citsov"]) == 1
    out = capsys.readouterr().out
    assert "outcome b unreachable" in out


def test_property_mon_pass(capsys, tmp_path, majority_table):
    path = tmp_path / "maj.json"
    save_scf(majority_table, path)
    assert main(["property", "--scf", str(path), "mon"]) == 0


def test_property_json_payload(capsys, tmp_path, j_table):
    path = tmp_path / "j.json"
    save_scf(j_table, path)
    main(["property", "--scf", str(path), "nodict", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "FAIL"
    assert payload["agrees"] is True


def test_property_json_carries_the_counterexample_the_text_prints(
    capsys, tmp_path, j_table, majority_table
):
    """A FAIL payload's counterexample is the state and truth of the text
    line "encoding fails at state ... with truth ..."; a PASS payload's
    is null."""
    keys = {"command", "property", "verdict", "oracle", "agrees", "detail", "counterexample"}
    j_path, maj_path = tmp_path / "j.json", tmp_path / "maj.json"
    save_scf(j_table, j_path)
    save_scf(majority_table, maj_path)
    assert main(["property", "--scf", str(j_path), "nodict"]) == 1
    (line,) = [x for x in capsys.readouterr().out.splitlines() if "encoding fails" in x]
    assert main(["property", "--scf", str(j_path), "nodict", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == keys and payload["verdict"] == "FAIL"
    found = payload["counterexample"]
    assert set(found) == {"state", "truth"}
    state, truth = (
        "(" + ",".join(f"[{','.join(ranking)}]" for ranking in found[key]) + ")"
        for key in ("state", "truth")
    )
    assert line == f"  encoding fails at state {state} with truth {truth}"
    assert main(["property", "--scf", str(maj_path), "strproof", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == keys and payload["counterexample"] is None


def test_valid_and_sat_commands(capsys):
    assert main(["valid", "--agents", "2", "--outcomes", "a,b", "rep(1,a,b) <-> ~rep(1,b,a)"]) == 0
    assert "VALID" in capsys.readouterr().out
    assert main(["sat", "--agents", "2", "--outcomes", "a,b", "rep(1,a,b) & rep(1,b,a)"]) == 1
    assert "UNSAT" in capsys.readouterr().out
    # the global readings of monotonicity and strategy-proofness coincide
    assert (
        main(["valid", "--agents", "2", "--outcomes", "a,b", "[N] mon <-> [N] strproof"]) == 0
    )
    capsys.readouterr()


def test_sat_witness_and_valid_counterexample_output(capsys):
    """The exact text and --json output of a sat with a witness and a
    valid with a counterexample, on the same first model of (2,2)."""
    model = {
        "agents": 2,
        "outcomes": ["a", "b"],
        "map": [
            {"profile": [["a", "b"], ["a", "b"]], "outcome": "a"},
            {"profile": [["a", "b"], ["b", "a"]], "outcome": "a"},
            {"profile": [["b", "a"], ["a", "b"]], "outcome": "a"},
            {"profile": [["b", "a"], ["b", "a"]], "outcome": "b"},
        ],
        "true_preferences": [["a", "b"], ["a", "b"]],
    }
    model_lines = (
        "{0} truth: ([a,b],[a,b])\n"
        "{0}   out ([a,b],[a,b]) -> a\n"
        "{0}   out ([a,b],[b,a]) -> a\n"
        "{0}   out ([b,a],[a,b]) -> a\n"
        "{0}   out ([b,a],[b,a]) -> b\n"
    )
    sat = ["sat", "--agents", "2", "--outcomes", "a,b", "b & <{1}>a"]
    assert main(sat) == 0
    assert capsys.readouterr().out == (
        "SAT\nwitness state: ([b,a],[b,a])\n" + model_lines.format("witness")
    )
    assert main(sat + ["--json"]) == 0
    witness = {"model": model, "state": [["b", "a"], ["b", "a"]]}
    _same_text(
        capsys.readouterr().out,
        json.dumps({"command": "sat", "status": "satisfiable", "witness": witness}, indent=2) + "\n",
    )

    valid = ["valid", "--agents", "2", "--outcomes", "a,b", "<{1}>b -> pref(2) b"]
    assert main(valid) == 1
    assert capsys.readouterr().out == (
        "INVALID\ncounterexample state: ([a,b],[b,a])\n"
        + model_lines.format("counterexample")
    )
    assert main(valid + ["--json"]) == 1
    counterexample = {"model": model, "state": [["a", "b"], ["b", "a"]]}
    _same_text(
        capsys.readouterr().out,
        json.dumps({"command": "valid", "status": "invalid", "counterexample": counterexample}, indent=2)
        + "\n",
    )


def test_sat_with_scf_macro(capsys, h_files):
    scf_path, _ = h_files
    code = main(["sat", "--agents", "2", "--outcomes", "a,b", f"scf('{scf_path}') & citsov"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("SAT")
    assert "witness" in out


def test_budget_flag(capsys):
    code = main(["valid", "--agents", "2", "--outcomes", "a,b", "--budget", "10", "a | ~a"])
    assert code == 2
    assert "budget" in capsys.readouterr().err
    # a budget below one model is refused by sat/valid and by axioms alike
    for budget in ("0", "-3"):
        for command, formula in (("sat", ["a"]), ("axioms", [])):
            argv = [command, "--agents", "2", "--outcomes", "a,b", "--budget", budget]
            assert main(argv + formula) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: the model budget must be positive\n"


def test_encode_roundtrips(capsys, h_files, h_table):
    scf_path, _ = h_files
    assert main(["encode", "--scf", str(scf_path), "--form", "implication"]) == 0
    text = capsys.readouterr().out.strip()
    parsed = parse(text, Context(2, K2))
    for model in [ScfModel(h_table, t) for t in all_profiles(2, K2)]:
        assert valid_in_model(model, parsed)[0]


def test_encode_constant_is_equivalent_to_atom(capsys, tmp_path, p_table):
    path = tmp_path / "p.json"
    save_scf(p_table, path)
    main(["encode", "--scf", str(path), "--form", "implication"])
    text = capsys.readouterr().out.strip()
    parsed = parse(text, Context(2, K2))
    for truth in all_profiles(2, K2):
        ok, _ = valid_in_model(ScfModel(p_table, truth), Iff(parsed, Out("a")))
        assert ok


def test_equilibria_ne(capsys, h_files):
    _, model_path = h_files
    assert main(["equilibria", "--model", str(model_path), "--concept", "ne"]) == 0
    out = capsys.readouterr().out
    assert "NE equilibria" in out and ": 2" in out.splitlines()[0]
    assert "([a,b],[a,b]) -> a" in out
    assert "([b,a],[b,a]) -> b" in out


def test_equilibria_constant_matrix(capsys, tmp_path):
    from scflogic import ScfTable

    const_b = ScfTable.from_function(2, K2, lambda p: "b")
    model_path = tmp_path / "const.json"
    save_model(ScfModel(const_b, profile(("a", "b"), ("a", "b"))), model_path)
    assert main(["equilibria", "--model", str(model_path)]) == 0
    assert ": 4" in capsys.readouterr().out.splitlines()[0]


def test_equilibria_dom_concept(capsys, tmp_path, majority_table):
    model_path = tmp_path / "maj_model.json"
    save_model(ScfModel(majority_table, all_profiles(3, K2)[0]), model_path)
    assert main(["equilibria", "--model", str(model_path), "--concept", "dom"]) == 0
    assert "DOMEQ equilibria" in capsys.readouterr().out


def test_audit_command(capsys, tmp_path, majority_table, inverting_table):
    good = tmp_path / "maj.json"
    save_scf(majority_table, good)
    assert main(["audit", "--scf", str(good)]) == 0
    out = capsys.readouterr().out
    assert "all agree                   : True" in out
    bad = tmp_path / "inv.json"
    save_scf(inverting_table, bad)
    assert main(["audit", "--scf", str(bad)]) == 0
    out = capsys.readouterr().out
    assert out.count("False") >= 4 and "all agree                   : True" in out


def test_axioms_command(capsys):
    assert main(["axioms", "--agents", "2", "--outcomes", "a,b"]) == 0
    out = capsys.readouterr().out
    assert "all 64 models" in out
    assert "all schemas sound" in out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["2", "a,b"], "05b89ce4b93da08ea691a34b483a2eff494b45ee91fcb69e1b5dfa7ad7cd2959"),
        (["2", "a,b", "--json"], "638f3e06de27ca7e7473ce982ffb5af1ef3988d7256d768c967c85992558e5bb"),
        (["3", "a,b", "--json"], "29a45a72b71b6138626f6f82afdfaf5424ac7f6131e505abfa808b53544f36b7"),
    ],
    ids=["(2,{a,b})", "(2,{a,b}) --json", "(3,{a,b}) --json"],
)
def test_axioms_output_over_an_enumerated_class_is_pinned(capsys, argv, digest):
    """The sweep over a whole enumerated class prints, byte for byte, the
    report pinned here: schemas, instance and model counts, verdicts."""
    agents, outcomes, *rest = argv
    assert main(["axioms", "--agents", agents, "--outcomes", outcomes, *rest]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_error_exits(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["property", "--scf", str(missing), "citsov"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": 2}', encoding="utf-8")
    assert main(["property", "--scf", str(bad), "citsov"]) == 2
    assert "missing field" in capsys.readouterr().err
    good = tmp_path / "good.json"
    save_scf(ScfTable(1, K2, ("a", "b")), good)
    assert main(["property", "--scf", str(good), "frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown property 'frobnicate'")
    # property names are exact: br(<agent>) or one of the five keywords
    for spelling in ("br1", "br(1", "br1)", "br(01)", "br(0)", "br", "BR(1)", " mon"):
        assert main(["property", "--scf", str(good), spelling]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: unknown property {spelling!r}")
    assert main(["valid", "--agents", "2", "--outcomes", "a,b", "rep(9,a,b)"]) == 2
    assert "unknown agent token" in capsys.readouterr().err
    assert main(["property", "--scf", str(good), "br(2)"]) == 2
    assert capsys.readouterr().err == "error: agent 2 out of range 1..1\n"


def test_formula_flag_alternative(capsys):
    assert main(["valid", "--agents", "2", "--outcomes", "a,b", "--formula", "true"]) == 0
    capsys.readouterr()
    assert main(["valid", "--agents", "2", "--outcomes", "a,b"]) == 2  # no formula at all
    assert capsys.readouterr().err == (
        "error: no formula given: give it positionally or via --formula\n"
    )
    argv = ["valid", "--agents", "2", "--outcomes", "a,b", "true", "--formula", "true"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: give the formula either positionally or via --formula, not both\n"
    )


def test_crash_is_exit_2_not_1(capsys, monkeypatch):
    # 3000 leading negations parse and decide without recursion
    argv = ["sat", "--agents", "1", "--outcomes", "a,b", "~" * 3000 + "a"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("SAT\n")

    # any other exception in a handler is one error line and exit 2
    def broken(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._HANDLERS, "sat", broken)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: ZeroDivisionError: boom\n"
    assert "Traceback" not in err


def test_running_out_of_memory_names_the_command(capsys, monkeypatch):
    """A MemoryError, which usually carries no message, is reported as
    one line naming the command, with exit 2."""

    def exhausted(args):
        raise MemoryError()

    for command in ("sat", "property"):
        monkeypatch.setitem(cli._HANDLERS, command, exhausted)
    assert main(["sat", "--agents", "1", "--outcomes", "a,b", "a"]) == 2
    assert main(["property", "--scf", "x.json", "mon"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: out of memory while running sat\n"
        "error: out of memory while running property\n"
    )


def test_check_mon_at_2_3_prints_every_state(capsys, tmp_path):
    """The mon formula at (2,3) is about 11,700 nodes deep; `check` walks it
    without recursion and prints one row per state in canonical order."""
    table = ScfTable.from_function(2, K3, lambda p: p.order(1).top)
    model = ScfModel(table, all_profiles(2, K3)[0])
    path = tmp_path / "dict_model.json"
    save_model(model, path)
    code = main(["check", "--model", str(path), "mon", "--json"])
    payload = json.loads(capsys.readouterr().out)
    mask = StackedEvaluator([model]).truth_mask(property_formula(MON, 2, K3))
    rows = payload["states"]
    assert len(rows) == 36
    assert [row["state"] for row in rows] == [
        [list(order.ranking) for order in state.orders] for state in model.states
    ]
    assert [row["holds"] for row in rows] == [bool(mask >> i & 1) for i in range(36)]
    assert code == (0 if payload["valid"] else 1)
    assert payload["valid"] == (mask == (1 << 36) - 1)


def test_property_at_2_3_agrees_with_oracle(capsys, tmp_path):
    table = ScfTable.from_function(2, ("a", "b", "c"), lambda p: p.order(2).top)
    path = tmp_path / "dict.json"
    save_scf(table, path)
    for prop in ("citsov", "nodict", "dom", "br(1)", "br(2)", "mon", "strproof"):
        code = main(["property", "--scf", str(path), prop, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["agrees"], prop
        assert code == (0 if payload["verdict"] == "PASS" else 1)
        failing = ("nodict", "dom", "br(2)")  # state properties fail off the truth
        assert payload["verdict"] == ("FAIL" if prop in failing else "PASS"), prop


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    # the parser is built once per process and a failed parse leaves it usable
    assert cli.build_parser() is cli.build_parser()
    assert main(["sat", "--agents", "1", "--outcomes", "a,b", "a & ~a"]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_equal_deep_disjuncts_are_one_node(capsys):
    """Both sides of `~...~a | ~...~a` parse to one object, so no memo
    lookup compares two deep trees."""
    side = "~" * 3000 + "a"
    assert main(["sat", "--agents", "1", "--outcomes", "a,b", f"{side} | {side}"]) == 0
    assert capsys.readouterr().out.startswith("SAT\n")


def test_deeply_nested_better_is_decided(capsys):
    """`better` arguments nested 5,000 deep are parsed on the parser's
    explicit level stack, without recursion, and decided."""
    text = "better(1," * 5000 + "a" + ",b)" * 5000
    assert main(["sat", "--agents", "1", "--outcomes", "a,b", text]) == 0
    assert capsys.readouterr().out.startswith("SAT\n")


def test_state_determined_valid_beyond_the_budget(capsys):
    """(2,3) has about 5.4e18 models, but a formula without outcome atoms or
    pref modalities is decided on one of them."""
    argv = ["valid", "--agents", "2", "--outcomes", "a,b,c", "rep(1,a,b) | rep(1,b,a)"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_check_text_mode_does_not_format_the_formula(capsys, monkeypatch, h_files):
    """Neither output formats the formula, whose printed form can be
    exponentially larger than its DAG: the JSON payload carries the text
    as given."""
    _, model_path = h_files

    def no_format(formula):
        raise AssertionError("formatted")

    monkeypatch.setattr(cli, "format_formula", no_format)
    assert main(["check", "--model", str(model_path), "dom"]) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 6 and "valid in model: no" in out
    assert main(["check", "--model", str(model_path), "dom", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["formula"] == "dom"


def test_axioms_samples_beyond_the_budget(capsys):
    argv = ["axioms", "--agents", "1", "--outcomes", "a,b", "--budget", "4"]
    source = "1000 sampled models (seed 0; class has 8)"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("checking 2028 instances against " + source + "\n")
    assert "all schemas sound" in out
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["models"] == source and payload["ok"] is True


def test_axioms_json_reports_the_first_failure(capsys, monkeypatch):
    """A failing schema's first failure, which the text line prints, is
    in its JSON entry too: the instance, the state and the truth; a
    passing schema's entry has it null."""
    bogus = AxiomInstance("func1", {}, Out("a"))
    monkeypatch.setattr(axioms, "instantiate_all", lambda n, outcomes: iter([bogus]))
    argv = ["axioms", "--agents", "1", "--outcomes", "a,b"]
    model, state = next(
        (m, s) for m in enumerate_models(1, K2) for s in m.states if m.out(s) != "a"
    )
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("checking 1 instances against all 8 models\n")
    assert f"first failure: func1[] at state {state} truth {model.truth}" in out
    assert main(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (entry,) = payload["schemas"]
    assert entry["first_failure"] == {
        "instance": "func1[]",
        "state": [list(order.ranking) for order in state.orders],
        "truth": [list(order.ranking) for order in model.truth.orders],
    }
    monkeypatch.undo()
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["first_failure"] is None for entry in payload["schemas"])


def test_property_reports_oracle_disagreement(capsys, monkeypatch, tmp_path, j_table):
    """A disagreeing oracle is reported; the exit code follows the encoding."""
    path = tmp_path / "j.json"
    save_scf(j_table, path)
    monkeypatch.setattr(cli.game, "property_oracle", lambda table, prop: (True, ""))
    assert main(["property", "--scf", str(path), "nodict"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("property nodict: FAIL\n")
    assert "DISAGREEMENT: game-theoretic oracle says PASS (reported, not reconciled)" in out
    assert main(["property", "--scf", str(path), "nodict", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "FAIL" and payload["oracle"] is True
    assert payload["agrees"] is False


def test_budget_refusal_is_one_immediate_line(capsys):
    """A class far beyond the budget is refused from its state count, in
    one short line, without computing its model count in full."""
    for agents, states in (("6", "46656"), ("10", "60466176")):
        start = time.perf_counter()
        assert main(["sat", "--agents", agents, "--outcomes", "a,b,c", "a"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: enumeration needs") and f"over {states} states" in line
    # the axioms sampling fallback refuses models with more states than
    # the budget allows
    assert main(["axioms", "--agents", "3", "--outcomes", "a,b,c", "--budget", "100"]) == 2
    assert capsys.readouterr().err == "error: one model has 216 states, budget allows 100 models\n"


def test_axioms_refuses_a_sweep_beyond_the_size_limit(capsys):
    """(2,4) passes the budget through 1152 sampled models, but its sweep
    is refused in one line before any instance is built."""
    start = time.perf_counter()
    assert main(["axioms", "--agents", "2", "--outcomes", "a,b,c,d"]) == 2
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: axiom sweep too large: ")


def test_check_json_prints_the_formula_as_given(capsys, tmp_path):
    """A 16-deep nested better prints as megabytes of core grammar; the
    payload carries the text that was parsed."""
    model = ScfModel(ScfTable(1, K2, ("a", "b")), profile(("b", "a")))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = "better(1," * 16 + "a" + ",b)" * 16
    code = main(["check", "--model", str(path), text, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["formula"] == text
    assert code == (0 if payload["valid"] else 1)


def test_json_output_is_the_standard_encoders_byte_for_byte(
    capsys, monkeypatch, tmp_path, h_files, majority_table
):
    """Every subcommand's `--json` output is `json.dumps(payload,
    indent=2)` and a line break: with and without witnesses and
    counterexamples, with null, bool and int values, and with control and
    non-ASCII characters in the formula text.  The emitter itself is
    checked on empty containers, scalars and names no input file may hold."""
    payloads = []
    emit = cli._emit

    def spy(args, payload, lines):
        payloads.append(payload())
        emit(args, payload, lines)

    monkeypatch.setattr(cli, "_emit", spy)
    scf, model = h_files
    majority = tmp_path / "maj.json"
    save_scf(majority_table, majority)
    # whitespace outside tokens is ASCII only, so non-ASCII text sits in a path
    h_copy = tmp_path / "h\u65e5\u00e9.json"
    h_copy.write_bytes(scf.read_bytes())
    runs = [
        ["check", "--model", model, "dom"],
        ["check", "--model", model, f'\x0c\tscf("{h_copy}")\x0b\n'],
        ["property", "--scf", scf, "nodict"],
        ["property", "--scf", majority, "strproof"],
        ["sat", "--agents", "2", "--outcomes", "a,b", "b & <{1}> a"],
        ["sat", "--agents", "1", "--outcomes", "a,b", "false"],
        ["valid", "--agents", "2", "--outcomes", "a,b", "pref(1) a"],
        ["valid", "--agents", "1", "--outcomes", "a,b", "true"],
        ["encode", "--scf", scf],
        ["equilibria", "--model", model],
        ["audit", "--scf", scf],
        ["axioms", "--agents", "1", "--outcomes", "a,b"],
    ]
    for argv in runs:
        main([*map(str, argv), "--json"])
        _same_text(capsys.readouterr().out, json.dumps(payloads[-1], indent=2) + "\n", argv)
    assert len(payloads) == len(runs)

    odd = ["é", "日本", "\x00\x07\x1f\x7f", " ", '"\\/', "\ud800", ""]
    values = [
        [],
        {},
        None,
        True,
        False,
        0,
        -7,
        2**70,
        [[]],
        [{}, []],
        {"a": [], "b": {}},
        {name: name for name in odd},
        {"command": "equilibria", "concept": "NE", "equilibria": []},
        {"verdict": "FAIL", "detail": None, "counterexample": {"state": [odd, odd[::-1]]}},
        (odd, (1, False)),
    ]
    for value in values:
        _same_text(cli._json(value), json.dumps(value, indent=2), value)


# `cli.main` on each argv of the JSON list argv[1], in a process where
# `json.encoder.c_make_encoder` is None, as the standard library leaves it
# when the `_json` accelerator is missing: per run, the printed text and
# `json.dumps(payload, indent=2)` of the payload it printed
_WITHOUT_C_ENCODER = """
import contextlib, io, json, json.encoder, sys
json.encoder.c_make_encoder = None
from scflogic import cli
payloads, emit = [], cli._emit
def spy(args, payload, lines):
    payloads.append(payload())
    emit(args, payload, lines)
cli._emit = spy
texts = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([*argv, "--json"])
    texts.append([out.getvalue(), json.dumps(payloads[-1], indent=2) + "\\n"])
print(json.dumps(texts))
"""


def test_json_output_needs_no_c_encoder(h_files):
    """`scflogic.cli` imports, and `check --json` and `sat --json` print
    `json.dumps(payload, indent=2)` byte for byte, where the standard
    library has no C encoder (`json.encoder.c_make_encoder` is None
    without the `_json` accelerator): with bool and int values, a witness,
    and an unsatisfiable verdict."""
    _, model = h_files
    runs = [
        ["check", "--model", str(model), "dom"],
        ["sat", "--agents", "2", "--outcomes", "a,b", "b & <{1}> a"],
        ["sat", "--agents", "1", "--outcomes", "a,b", "false"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_C_ENCODER, json.dumps(runs)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert done.returncode == 0, done.stderr
    texts = json.loads(done.stdout)
    assert len(texts) == len(runs)
    for argv, (printed, want) in zip(runs, texts):
        _same_text(printed, want, argv)
    assert '"holds": true' in texts[0][0] and '"valid": false' in texts[0][0]
    assert '"witness": {' in texts[1][0] and '"agents": 2' in texts[1][0]
    assert texts[2][0] == '{\n  "command": "sat",\n  "status": "unsatisfiable"\n}\n'


def test_json_profiles_render_as_the_standard_encoder_at_every_depth(
    capsys, monkeypatch, tmp_path
):
    """Profiles and `check`'s state rows are joined by their own paths in
    `_json`: `check` at (2,4) and (3,3) and a `sat` witness print
    `json.dumps(payload, indent=2)`, the same bytes on a repeated call; one
    profile at three depths of a payload, and rows at two, are right at
    each; and scalar tuples that compare equal, such as
    (True,), (1,) and (1.0,), stay apart."""
    payloads = []
    emit = cli._emit

    def spy(args, payload, lines):
        payloads.append(payload())
        emit(args, payload, lines)

    monkeypatch.setattr(cli, "_emit", spy)
    runs = []
    for n, outcomes in ((2, ("a", "b", "c", "d")), (3, K3)):
        states = all_profiles(n, outcomes)
        values = tuple(outcomes[k * 7 % len(outcomes)] for k in range(len(states)))
        path = tmp_path / f"model{n}.json"
        save_model(ScfModel(ScfTable(n, outcomes, values), states[-1]), path)
        runs.append(["check", "--model", str(path), "<{1}> a -> pref(2) b"])
    runs.append(["sat", "--agents", "1", "--outcomes", "a,b,c", "pref(1) b & ~b & <{1}> c"])
    for argv in runs:
        printed = []
        for _ in range(2):
            main([*argv, "--json"])
            printed.append(capsys.readouterr().out)
            _same_text(printed[-1], json.dumps(payloads[-1], indent=2) + "\n", argv)
        assert printed[0] == printed[1]
    assert "witness" in payloads[-1]
    assert all(type(p["states"]) is cli._StatesJson for p in payloads[:2])

    state = all_profiles(2, K3)[17]
    rendered = cli._profile_json(state)
    rows = cli._StatesJson({"state": rendered, "holds": holds} for holds in (True, False))
    value = {"state": rendered, "deeper": [{"states": [rendered, rendered]}], "at": [rendered]}
    value["rows"] = [rows, cli._StatesJson(rows[1:])]
    for _ in range(2):
        for each in (value, rendered, rows):
            _same_text(cli._json(each), json.dumps(each, indent=2))
    for scalars in ([(True,), (1,), (1.0,)], [(1.0,), (1,), (True,)]):
        for each in (scalars, *scalars):
            _same_text(cli._json(each), json.dumps(each, indent=2), each)


def test_check_rows_kept_per_domain_carry_each_models_own_truths(capsys, monkeypatch, tmp_path):
    """`check --json` at (3,{a,b,c}) and (2,{a,b,c,d}) prints
    `json.dumps(payload, indent=2)` with its rows joined from the texts
    kept per (n, K) (`_state_rows`): two seeded models of one (n, K),
    whose truth masks differ, checked in turn in one process, and then
    again, each print their own "holds" values, those `valid_in_model`
    finds, and the same bytes each time."""
    payloads = []
    emit = cli._emit

    def spy(args, payload, lines):
        payloads.append(payload())
        emit(args, payload, lines)

    monkeypatch.setattr(cli, "_emit", spy)
    text = "<{1}> a -> pref(2) b"
    for n, outcomes in ((3, K3), (2, ("a", "b", "c", "d"))):
        states = all_profiles(n, outcomes)
        rng = random.Random(n)
        models, paths = [], []
        for m in range(2):
            values = tuple(rng.choice(outcomes) for _ in states)
            models.append(ScfModel(ScfTable(n, outcomes, values), states[rng.randrange(len(states))]))
            paths.append(tmp_path / f"model{n}{m}.json")
            save_model(models[-1], paths[-1])
        printed, holds = {}, {}
        for m in (0, 1, 0, 1):
            main(["check", "--model", str(paths[m]), text, "--json"])
            out = capsys.readouterr().out
            _same_text(out, json.dumps(payloads[-1], indent=2) + "\n")
            assert payloads[-1]["states"].texts is cli._state_rows(n, outcomes)[1]
            assert printed.setdefault(m, out) == out
            bad = set(valid_in_model(models[m], parse(text, (n, outcomes)))[1])
            holds[m] = [row["holds"] for row in json.loads(out)["states"]]
            assert holds[m] == [state not in bad for state in states]
        assert holds[0] != holds[1] and True in holds[0] and False in holds[0]
        # the kept texts are written at a payload value's depth only
        rows = payloads[-1]["states"]
        for value in (rows, [rows], {"deeper": {"states": rows}}):
            _same_text(cli._json(value), json.dumps(value, indent=2))


def test_a_property_check_past_its_budget_is_one_immediate_line(capsys, tmp_path):
    """`property` and `audit` on the (3,{a,b,c,d}) and (2,{a,b,c,d,e})
    dictatorships are refused before anything is emitted, in one line
    naming the estimated work; `property --budget` sets the limit, and a
    budget below one is refused."""
    for n, outcomes, states, work in ((3, "abcd", 13824, "1.3e+14"), (2, "abcde", 14400, "1.5e+14")):
        path = tmp_path / f"dictator{n}{outcomes}.json"
        save_scf(ScfTable.from_function(n, tuple(outcomes), lambda p: p.order(1).top), path)
        for argv in (["property", "--scf", str(path), "strproof"], ["property", "--scf", str(path), "mon"],
                     ["audit", "--scf", str(path)]):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            kind = "mon" if "mon" in argv else "strproof"
            assert captured.err == (
                f"error: checking {kind} needs {work} bit operations over {states} states,"
                " budget allows 10000000000 bit operations\n"
            )
    path = tmp_path / "dictator23.json"
    save_scf(ScfTable.from_function(2, K3, lambda p: p.order(1).top), path)
    assert main(["property", "--scf", str(path), "strproof", "--budget", "839807"]) == 2
    assert capsys.readouterr().err == (
        "error: checking strproof needs 8.4e+05 bit operations over 36 states, budget allows 839807 bit operations\n"
    )
    assert main(["property", "--scf", str(path), "strproof", "--budget", "839808"]) == 0
    capsys.readouterr()
    for budget in ("0", "-3"):
        assert main(["property", "--scf", str(path), "citsov", "--budget", budget]) == 2
        assert capsys.readouterr().err == "error: the property budget must be positive\n"
    # a best response of an agent past n is refused as the builder refuses it
    assert main(["property", "--scf", str(path), "br(3)"]) == 2
    assert capsys.readouterr().err == "error: agent 3 out of range 1..2\n"
