import json

import pytest

from scflogic import (
    Evaluator,
    ScfModel,
    ScfTable,
    all_profiles,
    dom_equilibria,
    scf_as_game_form,
    valid_in_model,
)
from scflogic.cli import main
from scflogic.encodings import dom
from scflogic.files import save_model, save_scf
from scflogic.logic import Iff, Out
from scflogic.parser import Context, parse

from conftest import K2, profile


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


def test_sat_with_scf_macro(capsys, h_files):
    scf_path, _ = h_files
    code = main(["sat", "--agents", "2", "--outcomes", "a,b", f"scf('{scf_path}') & citsov"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("SAT")
    assert "witness" in out


def test_budget_flag(capsys):
    code = main(["valid", "--agents", "2", "--outcomes", "a,b", "--budget", "10", "true"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_encode_roundtrips(capsys, h_files, h_table):
    scf_path, _ = h_files
    assert main(["encode", "--scf", str(scf_path), "--form", "implication"]) == 0
    text = capsys.readouterr().out.strip()
    parsed = parse(text, Context(2, K2))
    for model in [ScfModel(h_table, t) for t in all_profiles(2, K2)]:
        ev = Evaluator(model)
        assert ev.valid(parsed)


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


def test_error_exits(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["property", "--scf", str(missing), "citsov"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": 2}', encoding="utf-8")
    assert main(["property", "--scf", str(bad), "citsov"]) == 2
    assert "missing field" in capsys.readouterr().err
    assert main(["valid", "--agents", "2", "--outcomes", "a,b", "rep(9,a,b)"]) == 2
    assert "unknown agent token" in capsys.readouterr().err


def test_formula_flag_alternative(capsys):
    assert main(["valid", "--agents", "2", "--outcomes", "a,b", "--formula", "true"]) == 0
    capsys.readouterr()
    assert main(["valid", "--agents", "2", "--outcomes", "a,b"]) == 2  # no formula at all
    capsys.readouterr()


def test_crash_is_exit_2_not_1(capsys):
    # 3000 leading negations exceed the parser's recursion limit
    code = main(["sat", "--agents", "1", "--outcomes", "a,b", "~" * 3000 + "a"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: RecursionError: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
