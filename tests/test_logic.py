import pytest

from scflogic import (
    Evaluator,
    FormulaDomainMismatch,
    KripkeScf,
    Profile,
    ScfModel,
    ScfTable,
    all_profiles,
    enumerate_models,
    eval_kripke,
    evaluate,
    kripke_view,
    representative_model,
    sample_models,
    state_atoms,
    valid_in_model,
)
from scflogic.logic import (
    FALSE,
    TRUE,
    And,
    Box,
    Diamond,
    Iff,
    Not,
    Or,
    Out,
    Pref,
    Rep,
    conj,
    disj,
)
from scflogic._stacked import StackedEvaluator
from scflogic.encodings import dom, rho

from conftest import AB, BA, K2, K3, make_formula_sampler, profile


@pytest.fixture(scope="module")
def h_model(h_table) -> ScfModel:
    return ScfModel(h_table, profile(("b", "a"), ("b", "a")))


def test_eval_examples(h_model):
    bb = profile(("b", "a"), ("b", "a"))
    aa = profile(("a", "b"), ("a", "b"))
    assert evaluate(h_model, bb, TRUE)
    assert evaluate(h_model, bb, Out("b"))
    assert evaluate(h_model, aa, Diamond({1, 2}, Out("b")))
    assert not evaluate(h_model, aa, Out("b"))


def test_eval_domain_mismatch(h_model):
    s = h_model.states[0]
    with pytest.raises(FormulaDomainMismatch):
        evaluate(h_model, s, Rep(3, "a", "b"))
    with pytest.raises(FormulaDomainMismatch):
        evaluate(h_model, s, Out("z"))
    with pytest.raises(FormulaDomainMismatch):
        evaluate(h_model, s, Diamond({1, 5}, TRUE))
    with pytest.raises(FormulaDomainMismatch):
        evaluate(h_model, s, Pref(9, TRUE))


def test_valid_in_model_examples(h_model, p_table):
    ok, bad = valid_in_model(h_model, Or(Out("a"), Not(Out("a"))))
    assert ok and bad == []
    p_model = ScfModel(p_table, profile(("b", "a"), ("a", "b")))
    ok, bad = valid_in_model(p_model, Out("a"))
    assert ok and bad == []
    ok, bad = valid_in_model(h_model, Out("b"))
    assert not ok
    assert bad == [
        profile(("a", "b"), ("a", "b")),
        profile(("a", "b"), ("b", "a")),
        profile(("b", "a"), ("a", "b")),
    ]


def test_connective_sugar(h_model):
    s = h_model.states[0]
    assert evaluate(h_model, s, And(TRUE, TRUE))
    assert not evaluate(h_model, s, And(TRUE, FALSE))
    assert evaluate(h_model, s, Iff(FALSE, FALSE))
    assert evaluate(h_model, s, conj([]))
    assert not evaluate(h_model, s, disj([]))


def test_exactly_one_outcome_atom_everywhere():
    one_of = disj(
        conj([Out(x)] + [Not(Out(y)) for y in K2 if y != x]) for x in K2
    )
    for model in enumerate_models(2, K2):
        ok, _ = valid_in_model(model, one_of)
        assert ok


def test_empty_coalition_is_identity(h_model):
    for s in h_model.states:
        for f in (Out("a"), Rep(1, "a", "b"), Diamond({2}, Out("b"))):
            assert evaluate(h_model, s, Diamond(frozenset(), f)) == evaluate(h_model, s, f)


def test_pref_reflexive(h_model):
    for s in h_model.states:
        for agent in (1, 2):
            assert evaluate(h_model, s, Pref(agent, Out(h_model.out(s))))


def test_rep_only_formulas_ignore_out_and_truth():
    f = Or(And(Rep(1, "a", "b"), Not(Rep(2, "b", "a"))), Diamond({1}, Rep(1, "b", "a")))
    masks = {Evaluator(m).truth_mask(f) for m in enumerate_models(2, K2)}
    assert len(masks) == 1


def test_kripke_view_equivalence_classes(h_table):
    km = kripke_view(representative_model(2, K2))
    classes = {km.r_edges[0][v] for v in range(4)}
    assert len(classes) == 2
    assert all(len(c) == 2 for c in classes)


def test_kripke_view_p1_for_h(h_table):
    # independent expectation built straight from the definition
    truth_aa = profile(("a", "b"), ("a", "b"))
    model = ScfModel(h_table, truth_aa)
    km = kripke_view(model)
    outs = [model.out(s) for s in model.states]
    order = truth_aa.order(1)
    for v in range(4):
        expected = tuple(
            u for u in range(4) if order.at_least_as_good(outs[u], outs[v])
        )
        assert km.p_edges[0][v] == expected
    # every state reaches every a-state; the b-state also reaches itself
    a_states = {u for u in range(4) if outs[u] == "a"}
    for v in range(4):
        reach = set(km.p_edges[0][v])
        assert a_states <= reach
    b_state = next(u for u in range(4) if outs[u] == "b")
    assert b_state in km.p_edges[0][b_state]


def test_kripke_view_single_state():
    model = representative_model(1, ("a",))
    km = kripke_view(model)
    assert km.states == all_profiles(1, ("a",))
    assert km.r_edges[0][0] == (0,)
    assert km.p_edges[0][0] == (0,)


def test_eval_kripke_agrees_on_h_characterization(h_table):
    rho_h = rho(h_table, "diamond")
    for truth in all_profiles(2, K2):
        model = ScfModel(h_table, truth)
        km = kripke_view(model)
        ev = Evaluator(model)
        for s in model.states:
            assert ev.holds(s, TRUE) == eval_kripke(km, s, TRUE)
            assert ev.holds(s, rho_h) == eval_kripke(km, s, rho_h)


def test_eval_kripke_agrees_on_dom(majority_table):
    model = ScfModel(majority_table, all_profiles(3, K2)[0])
    km = kripke_view(model)
    ev = Evaluator(model)
    formula = dom(3, K2)
    for s in model.states:
        assert ev.holds(s, formula) == eval_kripke(km, s, formula)


def test_semantics_agreement_small_classes():
    # every model over the tiny domains, random formula pool
    for n, outcomes in ((1, ("a",)), (1, K2), (2, K2)):
        draw = make_formula_sampler(n, outcomes, seed=11)
        pool = draw(40, max_depth=5)
        for model in enumerate_models(n, outcomes):
            km = kripke_view(model)
            ev = Evaluator(model)
            for f in pool:
                for s in model.states:
                    assert ev.holds(s, f) == eval_kripke(km, s, f)


def test_semantics_agreement_sampled_k3():
    draw = make_formula_sampler(2, K3, seed=13)
    pool = draw(15, max_depth=4)
    for model in sample_models(2, K3, 8, seed=5):
        km = kripke_view(model)
        ev = Evaluator(model)
        for f in pool:
            for s in model.states:
                assert ev.holds(s, f) == eval_kripke(km, s, f)


def test_stacked_evaluator_matches_per_model():
    for n, outcomes, count in ((2, K2, 12), (3, K2, 6), (2, K3, 4), (1, K2, 3)):
        models = sample_models(n, outcomes, count, seed=3)
        stacked = StackedEvaluator(models)
        draw = make_formula_sampler(n, outcomes, seed=29)
        for f in draw(60, max_depth=6):
            whole = stacked.truth_mask(f)
            for m, model in enumerate(models):
                small = (whole >> (m * stacked.block)) & stacked.block_ones
                assert small == Evaluator(model).truth_mask(f)


def test_stacked_evaluator_handles_deep_formulas():
    models = sample_models(2, K2, 6, seed=3)
    stacked = StackedEvaluator(models)
    chain = Out("a")
    for _ in range(20001):
        chain = Not(chain)
    assert stacked.truth_mask(chain) == stacked.full ^ stacked.truth_mask(Out("a"))
    wide = conj([Diamond({1}, Rep(1, "a", "b"))] * 5000 + [Pref(2, Out("b"))])
    expected = stacked.truth_mask(Diamond({1}, Rep(1, "a", "b"))) & stacked.truth_mask(
        Pref(2, Out("b"))
    )
    assert stacked.truth_mask(wide) == expected


def test_evaluate_rejects_foreign_state(h_model):
    with pytest.raises(Exception):
        evaluate(h_model, profile(("a", "b"), ("a", "c")), TRUE)
