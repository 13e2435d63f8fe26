import itertools
import random

import pytest

from scflogic import (
    BudgetExceeded,
    EnumerationBudget,
    Evaluator,
    InvalidDomain,
    ScfModel,
    ScfTable,
    Verdict,
    all_profiles,
    check_scf_property,
    enumerate_models,
    has_citsov,
    is_dictatorial,
    is_monotonic,
    is_strategy_proof,
    model_class_size,
    representative_model,
    sample_models,
    satisfiable,
    valid,
    valid_state_formula,
)
from scflogic.encodings import (
    BR,
    CITSOV,
    DOM,
    MON,
    NODICT,
    STRPROOF,
    ballot_agent,
    citsov,
    mon,
    property_formula,
    rho,
    strproof,
)
from scflogic.logic import And, Box, Iff, Implies, Not, Or, Out, Pref, Rep, TRUE

from conftest import K2, K3, make_formula_sampler, profile


def test_model_class_sizes():
    assert model_class_size(2, K2) == (64, 4)
    assert model_class_size(3, K2) == (2048, 8)
    count, states = model_class_size(2, K3)
    assert count == 3**36 * 36 and states == 36


def test_enumerate_models_counts_and_order():
    models = list(enumerate_models(2, K2))
    assert len(models) == 64
    assert len(list(enumerate_models(3, K2))) == 2048
    # outcome functions mixed-radix outer, true profiles inner
    first = models[0]
    assert first.table.values == ("a", "a", "a", "a")
    assert first.truth == all_profiles(2, K2)[0]
    assert models[1].table.values == ("a", "a", "a", "a")
    assert models[1].truth == all_profiles(2, K2)[1]
    assert models[4].table.values == ("a", "a", "a", "b")


def test_budget_exceeded_at_k3():
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_models(2, K3))
    assert err.value.required_models == 3**36 * 36
    with pytest.raises(BudgetExceeded):
        list(enumerate_models(2, K2, EnumerationBudget(max_models=10)))


def test_satisfiable_examples(h_table):
    v = satisfiable(2, K2, And(rho(h_table, "diamond"), citsov(2, K2)))
    assert v.status == "satisfiable"
    model, state = v.witness
    assert model.table.values == h_table.values
    assert v

    v = satisfiable(2, K2, And(Out("a"), Out("b")))
    assert v.status == "unsatisfiable" and v.witness is None and not v

    v = satisfiable(2, K2, And(ballot_agent(1, all_profiles(1, K2)[0].orders[0]), Rep(1, "b", "a")))
    assert v.status == "unsatisfiable"


def test_valid_examples():
    v = valid(2, K2, Iff(Rep(1, "a", "b"), Not(Rep(1, "b", "a"))))
    assert v.status == "valid" and v.counterexample is None
    v = valid(2, K2, Out("a"))
    assert v.status == "invalid"
    model, state = v.counterexample
    assert model.out(state) != "a"
    # the first counterexample is canonical: the constant-a table never
    # falsifies, so the first failing model is the second table
    assert model.table.values == ("a", "a", "a", "b")
    assert model.truth == all_profiles(2, K2)[0]
    assert state == all_profiles(2, K2)[3]


def test_prop_4_6_formulations():
    """Monotonicity and strategy-proofness coincide as model-level
    properties; the raw state-level biconditional is falsifiable because
    the strategy-proofness formula is vacuously true away from the
    truth-telling state."""
    mon_f, sp_f = mon(2, K2), strproof(2, K2)
    raw = valid(2, K2, Iff(mon_f, sp_f))
    assert raw.status == "invalid"
    model, state = raw.counterexample
    assert model.table.values == ("a", "a", "b", "a")
    assert model.truth == all_profiles(2, K2)[0]
    assert state == all_profiles(2, K2)[1]
    # global readings agree everywhere
    grand = frozenset({1, 2})
    boxed = valid(2, K2, Iff(Box(grand, mon_f), Box(grand, sp_f)))
    assert boxed.status == "valid"
    for m in enumerate_models(2, K2):
        ev = Evaluator(m)
        assert ev.valid(mon_f) == ev.valid(sp_f)


def test_check_scf_property_examples(majority_table, h_table, j_table):
    assert check_scf_property(majority_table, STRPROOF).status == "valid"
    assert check_scf_property(h_table, CITSOV).status == "valid"
    verdict = check_scf_property(j_table, NODICT)
    assert verdict.status == "invalid"
    model, state = verdict.counterexample
    assert model.table.values == j_table.values


def test_check_scf_property_equals_full_enumeration():
    """The out-restricted check coincides with validity of rho -> property
    over the entire 64-model class, for every SCF and property."""
    props = (CITSOV, NODICT, DOM, MON, STRPROOF, BR(1))
    for values in itertools.product(K2, repeat=4):
        table = ScfTable(2, K2, values)
        characteristic = rho(table, "diamond")
        for prop in props:
            restricted = check_scf_property(table, prop).status == "valid"
            full = (
                valid(2, K2, Implies(characteristic, property_formula(prop, 2, K2))).status
                == "valid"
            )
            assert restricted == full, (values, prop)


def test_check_scf_property_agrees_with_oracles_16():
    for values in itertools.product(K2, repeat=4):
        table = ScfTable(2, K2, values)
        assert (check_scf_property(table, CITSOV).status == "valid") == has_citsov(table)
        assert (check_scf_property(table, NODICT).status == "valid") == (
            not is_dictatorial(table)[0]
        )
        assert (check_scf_property(table, MON).status == "valid") == is_monotonic(table).ok
        assert (check_scf_property(table, STRPROOF).status == "valid") == is_strategy_proof(
            table
        )


def test_duality_on_random_pool():
    draw = make_formula_sampler(2, K2, seed=23)
    for formula in draw(40, max_depth=5):
        sat = satisfiable(2, K2, formula).status == "satisfiable"
        refutable = valid(2, K2, Not(formula)).status == "valid"
        assert sat != refutable


def test_valid_state_formula_matches_full_enumeration():
    draw = make_formula_sampler(2, K2, seed=31)
    pool = [f for f in draw(60, max_depth=5) if not (f.uses_outcome or f.uses_pref)]
    assert pool, "sampler must produce some reported-atom formulas"
    for formula in pool:
        fast = valid_state_formula(2, K2, formula).status
        slow = valid(2, K2, formula).status
        assert fast == slow


def test_valid_state_formula_rejects_model_dependent():
    with pytest.raises(InvalidDomain):
        valid_state_formula(2, K2, Out("a"))
    with pytest.raises(InvalidDomain):
        valid_state_formula(2, K2, Pref(1, TRUE))


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict("satisfiable")
    with pytest.raises(ValueError):
        Verdict("valid", witness=(None, None))
    with pytest.raises(ValueError):
        Verdict("maybe")


def test_sample_models_deterministic():
    first = sample_models(2, K3, 5, seed=4)
    second = sample_models(2, K3, 5, seed=4)
    assert [(m.table.values, m.truth) for m in first] == [
        (m.table.values, m.truth) for m in second
    ]
    truths = [m.truth for m in sample_models(2, K2, 8, seed=0)]
    assert truths == list(all_profiles(2, K2)) * 2


def test_representative_model_shape():
    model = representative_model(2, K3)
    assert model.table.values == ("a",) * 36
    assert model.truth == all_profiles(2, K3)[0]


def _per_model_scan(table, prop):
    """The model-by-model scan that check_scf_property stands for: true
    profiles in canonical order, the lowest falsified state of the first
    model that falsifies the property."""
    formula = property_formula(prop, table.agents, table.outcomes)
    for truth in table.profiles:
        bad = Evaluator(ScfModel(table, truth)).falsifying_states(formula)
        if bad:
            return truth, bad[0]
    return None


def _checked(table, prop):
    verdict = check_scf_property(table, prop)
    if verdict.status == "valid":
        return None
    model, state = verdict.counterexample
    assert model.table == table
    return model.truth, state


def _seeded_tables(n, outcomes, count, seed):
    rng = random.Random(seed)
    size = len(all_profiles(n, outcomes))
    tables = [
        ScfTable.from_function(n, outcomes, lambda p: p.order(n).top),
        ScfTable(n, outcomes, (outcomes[-1],) * size),
    ]
    for _ in range(count):
        feasible = rng.sample(outcomes, rng.randint(1, len(outcomes)))
        tables.append(ScfTable(n, outcomes, [rng.choice(feasible) for _ in range(size)]))
    return tables


def _props(n, with_mon=True):
    base = (CITSOV, NODICT, DOM, MON, STRPROOF) if with_mon else (CITSOV, NODICT, DOM, STRPROOF)
    return base + tuple(BR(i) for i in range(1, n + 1))


def test_check_scf_property_counterexample_is_canonical():
    cases = [(2, K2, [ScfTable(2, K2, v) for v in itertools.product(K2, repeat=4)])]
    cases.append((3, K2, _seeded_tables(3, K2, 30, seed=5)))
    cases.append((1, K3, _seeded_tables(1, K3, 30, seed=6)))
    verdicts = set()
    for n, outcomes, tables in cases:
        for table in tables:
            for prop in _props(n):
                expected = _per_model_scan(table, prop)
                assert _checked(table, prop) == expected, (table.values, prop)
                verdicts.add((prop, expected is None))
    # both verdicts occur for every property
    assert len(verdicts) == 2 * len(_props(3))


def test_check_scf_property_counterexample_is_canonical_k3():
    for table in _seeded_tables(2, K3, 3, seed=8):
        for prop in _props(2, with_mon=False):
            assert _checked(table, prop) == _per_model_scan(table, prop), (table.values, prop)


def test_mon_at_2_3_agrees_with_oracle():
    """The mon formula at (2,3) is about 11,700 nodes deep; the stacked
    evaluator walks it without recursion."""
    tables = [ScfTable.from_function(2, K3, lambda p: p.order(1).top)]
    rng = random.Random(12)
    for _ in range(2):
        tables.append(ScfTable(2, K3, [rng.choice(K3) for _ in all_profiles(2, K3)]))
    verdicts = [check_scf_property(table, MON).status == "valid" for table in tables]
    assert verdicts == [is_monotonic(table).ok for table in tables]
    assert verdicts[0]  # the dictatorship is monotonic
