import pytest

from scflogic import (
    KripkeScf,
    Profile,
    all_profiles,
    enumerate_models,
    eval_kripke,
    kripke_view,
    representative_model,
    sample_models,
    state_atoms,
)
from scflogic.axioms import (
    SCHEMAS,
    default_pool,
    instantiate,
    instantiate_all,
    pref_necessitation_holds,
    soundness_check,
)
from scflogic.logic import And, Box, Diamond, Iff, Not, Or, Out, Pref, PrefBox, Rep, TRUE
from scflogic.axioms import AxiomInstance

from conftest import K2, K3


SMALL_POOL = (Out("a"), Rep(1, "a", "b"), Not(Rep(2, "b", "a")), Or(Out("b"), Rep(2, "a", "b")))


def test_schema_list_is_complete():
    assert len(SCHEMAS) == 20


def test_instantiate_counts():
    assert len(instantiate("refl", 2, K2, SMALL_POOL)) == 4
    assert len(instantiate("ballot", 2, K2, SMALL_POOL)) == 4
    assert len(instantiate("antisym-total", 2, K2, SMALL_POOL)) == 4
    assert len(instantiate("confl", 2, K2, SMALL_POOL)) == 2 * len(SMALL_POOL)
    assert len(instantiate("func1", 2, K2, SMALL_POOL)) == 1
    assert len(instantiate("K(i)", 2, K2, SMALL_POOL)) == 2 * len(SMALL_POOL) ** 2


def test_empty_schema_shape():
    (inst,) = instantiate("empty", 2, K2, (Out("a"),))
    assert inst.formula == Iff(Box(frozenset(), Out("a")), Out("a"))


def test_ballot_schema_shape():
    from scflogic.encodings import ballot_agent
    from scflogic import all_linear_orders

    instances = instantiate("ballot", 2, K2, ())
    orders = all_linear_orders(K2)
    assert instances[0].formula == Diamond({1}, ballot_agent(1, orders[0]))


def test_comp_at_filter_excludes_shared_agents_and_outcomes():
    pool = (Rep(1, "a", "b"), Rep(1, "b", "a"), Rep(2, "a", "b"), Out("a"), Out("b"))
    instances = instantiate("comp-At", 2, K2, pool)
    for inst in instances:
        d1, d2 = inst.bindings["delta1"], inst.bindings["delta2"]
        agents1 = {node.agent for node in d1.subformulas() if type(node) is Rep}
        agents2 = {node.agent for node in d2.subformulas() if type(node) is Rep}
        assert not agents1 & agents2
        assert not d1.uses_outcome and not d2.uses_outcome
    # the pair (rep(1,a,b), rep(1,b,a)) shares an agent: never instantiated,
    # and rightly so, since <1>p & <1>q -> <1>(p & q) fails for it
    assert all(
        {inst.bindings["delta1"], inst.bindings["delta2"]} != {pool[0], pool[1]}
        for inst in instances
    )


def test_confl_skips_same_agent():
    instances = instantiate("confl", 3, K2, (Out("a"),))
    assert all(inst.bindings["i"] != inst.bindings["j"] for inst in instances)
    assert len(instances) == 6


def test_default_pool_mixes_categories():
    pool = default_pool(2, K2)
    assert len(pool) <= 200
    kinds = {type(f) for f in pool}
    assert {Out, Rep, Not, Or} <= kinds
    assert any(f.uses_outcome for f in pool)
    # deterministic
    assert default_pool(2, K2) == pool


def test_soundness_all_64_models_small_pool():
    instances = instantiate_all(2, K2, SMALL_POOL)
    report = soundness_check(instances, list(enumerate_models(2, K2)))
    assert report.ok
    lines = report.render().splitlines()
    assert len(lines) == len(SCHEMAS) + 1
    assert all("PASS" in line for line in lines[:-1])


def test_soundness_detects_invalid_instance(h_table):
    from scflogic import ScfModel

    bogus = AxiomInstance("func1", {}, Out("a"))
    models = [ScfModel(h_table, p) for p in all_profiles(2, K2)]
    report = soundness_check([bogus], models)
    assert not report.ok
    (result,) = report.results
    inst, model, state = result.counterexample
    assert inst is bogus
    assert model.out(state) != "a"
    assert "FAIL" in report.render()


def test_func1_fails_on_two_valued_outcome_fixture():
    """Negative control: break the one-outcome-per-state invariant and watch
    the functionality axiom fail in the relational semantics."""
    model = representative_model(2, K2)
    km = kripke_view(model)
    doctored = KripkeScf(
        outcomes=km.outcomes,
        states=km.states,
        r_edges=km.r_edges,
        p_edges=km.p_edges,
        atoms=km.atoms,
        outcome_labels=(frozenset({"a", "b"}),) + km.outcome_labels[1:],
    )
    (func1,) = instantiate("func1", 2, K2, ())
    assert eval_kripke(km, 0, func1.formula)
    assert not eval_kripke(doctored, 0, func1.formula)


def test_pref_necessitation_on_pool():
    models = list(enumerate_models(2, K2))
    assert pref_necessitation_holds(models, SMALL_POOL + (TRUE,))


def test_soundness_sampled_k3_small():
    instances = []
    for schema in ("refl", "trans", "ballot", "unifPref", "incl", "4(pref)"):
        instances.extend(instantiate(schema, 2, K3, SMALL_POOL[:2]))
    report = soundness_check(instances, sample_models(2, K3, 40, seed=1))
    assert report.ok


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        instantiate("modus-ponens", 2, K2, SMALL_POOL)


def _necessitation_scan(models, pool, box):
    """Per-model relational reading of the rule: (holds, number of
    premises met, i.e. (model, pool formula) pairs with the formula valid)."""
    premises = 0
    for model in models:
        km = kripke_view(model)
        states = range(len(km.states))
        for phi in pool:
            if all(eval_kripke(km, v, phi) for v in states):
                premises += 1
                for agent in range(1, model.n + 1):
                    if not all(eval_kripke(km, v, box(agent, phi)) for v in states):
                        return False, premises
    return True, premises


def test_pref_necessitation_holds_on_whole_classes(monkeypatch):
    """The rule is sound: it holds on every (2,2) and (1,3) model with the
    default pool, as a per-model scan confirms, and the scan and the
    batched check also agree on a broken box that makes the rule fail."""
    from scflogic import axioms

    def broken_box(agent, phi):
        return Pref(agent, Not(phi))

    for n, outcomes in ((2, K2), (1, K3)):
        models = list(enumerate_models(n, outcomes))
        pool = default_pool(n, outcomes)
        holds, premises = _necessitation_scan(models, pool, PrefBox)
        assert holds and premises > 0
        assert pref_necessitation_holds(models, pool)
        assert not _necessitation_scan(models, pool, broken_box)[0]
        with monkeypatch.context() as patch:
            patch.setattr(axioms, "PrefBox", broken_box)
            assert not pref_necessitation_holds(models, pool)
