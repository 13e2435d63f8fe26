import functools
import itertools
import math
import random

import pytest

from scflogic import _stacked, axioms, core, decision
from scflogic import (
    BudgetExceeded,
    ScfModel,
    ScfTable,
    Verdict,
    all_profiles,
    check_scf_properties,
    check_scf_property,
    enumerate_models,
    eval_kripke,
    has_citsov,
    is_dictatorial,
    is_monotonic,
    is_strategy_proof,
    kripke_view,
    representative_model,
    sample_models,
    satisfiable,
    valid,
    valid_in_model,
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
from scflogic.core import _bounded_size
from scflogic._stacked import _CHUNK_BITS
from scflogic.logic import TRUE, And, Box, Diamond, Iff, Implies, Not, Or, Out, Pref, PrefBox, Rep
from scflogic.parser import parse

from conftest import K2, K3, make_formula_sampler, profile


def test_model_class_sizes():
    assert _bounded_size(2, 2, 10**30) == (64, 4)
    assert _bounded_size(3, 2, 10**30) == (2048, 8)
    count, states = _bounded_size(2, 3, 10**30)
    assert count == 3**36 * 36 and states == 36
    # k! >= 2^(k-1) refuses a huge k before any factorial is taken
    assert _bounded_size(1, 10**5, 10**30) == (None, None)
    assert _bounded_size(10**9, 1, 10**30) == (1, 1)


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
        list(enumerate_models(2, K2, 10))


def test_enumerate_models_is_the_class_in_order():
    """`enumerate_models` is the class's `TableGrid`, and its length, order,
    tables and truths are those of a nested build: outcome functions in
    mixed-radix order over the canonical states, each with every true
    profile, truths inner."""
    for n, outcomes in ((1, K2), (2, K2), (1, K3), (3, K2)):
        grid = enumerate_models(n, outcomes)
        assert type(grid) is _stacked.TableGrid
        profiles = all_profiles(n, outcomes)
        built = [
            (ScfTable(n, outcomes, values), truth)
            for values in itertools.product(outcomes, repeat=len(profiles))
            for truth in profiles
        ]
        assert len(grid) == len(built)
        assert [(model.table, model.truth) for model in grid] == built
        assert [(grid[i].table, grid[i].truth) for i in range(0, len(grid), 7)] == built[::7]


def test_enumerate_models_lays_out_no_row():
    """The class's rows are computed from their index: a grid of 4^24
    rows at (1,{a,b,c,d}) comes back at once, reads its last model and
    narrows to its first row within 256 KiB; its rows index, slice and
    iterate as the product does."""
    import tracemalloc

    outcomes = ("a", "b", "c", "d")
    tracemalloc.start()
    try:
        grid = enumerate_models(1, outcomes, 10**20)
        last = grid[len(grid) - 1]
        first_row = grid.narrowed(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert len(grid) == 4**24 * 24 and len(grid.rows) == 4**24
    assert last == ScfModel(ScfTable(1, outcomes, ("d",) * 24), all_profiles(1, outcomes)[-1])
    assert grid[-1] == last and list(first_row.rows) == [("a",) * 24]
    rows = enumerate_models(2, K2).rows
    product = list(itertools.product(K2, repeat=4))
    assert len(rows) == 16 and list(rows) == product and rows[-3] == product[-3]
    assert list(rows[:1]) == product[:1] and list(rows[3:11:2]) == product[3:11:2]
    assert list(rows[5:9]) == product[5:9] and len(rows[5:9]) == 4


def test_grid_models_are_the_checked_models(monkeypatch):
    """A grid builds its models without re-checking that each truth is a
    state, and they equal the models the checking constructor builds,
    read by index or by iteration, on the class and on a sample."""
    checks = []
    post_init = ScfModel.__post_init__
    monkeypatch.setattr(ScfModel, "__post_init__", lambda model: checks.append(model) or post_init(model))
    for grid in (enumerate_models(3, K2), _stacked.TableGrid(2, K3, _sample_rows(2, K3))):
        listed = list(grid)
        assert checks == []
        checked = [
            ScfModel(ScfTable(grid.n, grid.outcomes, values), truth)
            for values in grid.rows
            for truth in grid.truths
        ]
        assert listed == checked and [grid[i] for i in range(0, len(grid), 5)] == checked[::5]
        assert all(type(model) is ScfModel and model.n == grid.n for model in listed)
        del checks[:]


def _sample_rows(n, outcomes):
    return sorted({model.table.values for model in sample_models(n, outcomes, 200, seed=3)})


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
        assert valid_in_model(m, mon_f)[0] == valid_in_model(m, sp_f)[0]


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


def _state_determined(n, outcomes, seed, count):
    draw = make_formula_sampler(n, outcomes, seed=seed)
    pool = [f for f in draw(count, max_depth=5) if f.state_determined]
    assert pool, "sampler must produce some reported-atom formulas"
    return pool


def test_state_determined_formulas_beyond_the_budget():
    assert _bounded_size(2, 3, 10**30)[0] > decision.DEFAULT_BUDGET
    assert valid(2, K3, Or(Rep(1, "a", "b"), Rep(1, "b", "a"))).status == "valid"
    rep_ab = Rep(1, "a", "b")
    assert satisfiable(2, K3, And(rep_ab, Not(rep_ab))).status == "unsatisfiable"
    verdict = valid(3, K3, rep_ab)
    assert verdict.status == "invalid"
    model, state = verdict.counterexample
    assert model == representative_model(3, K3)
    km = kripke_view(model)
    falsified = [i for i in range(len(km.states)) if not eval_kripke(km, i, rep_ab)]
    assert state == km.states[falsified[0]]


def test_valid_state_formula_matches_full_enumeration():
    """valid decides state-determined formulas on one model; its verdict
    and counterexample equal those of a scan of the whole class."""
    for formula in _state_determined(2, K2, 31, 60):
        verdict = valid(2, K2, formula)
        slow = _relational_scan(2, K2, formula, False)
        assert verdict.counterexample == slow, formula
        assert verdict.status == ("valid" if slow is None else "invalid"), formula


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


def test_sample_models_draws_whole_rows():
    """ceil(count/S) seeded outcome functions, each with every true profile
    in canonical order: table outer, truth inner."""
    for n, outcomes, count, tables in ((2, K3, 1000, 28), (2, K3, 36, 1), (1, K2, 1000, 500)):
        profiles = all_profiles(n, outcomes)
        models = sample_models(n, outcomes, count, seed=6)
        assert len(models) == tables * len(profiles)
        for start in range(0, len(models), len(profiles)):
            run = models[start : start + len(profiles)]
            assert [m.truth for m in run] == list(profiles)
            assert len({m.table for m in run}) == 1
    assert sample_models(2, K3, 0) == []


def test_representative_model_shape():
    model = representative_model(2, K3)
    assert model.table.values == ("a",) * 36
    assert model.truth == all_profiles(2, K3)[0]
    for n, outcomes in ((1, K2), (2, K2), (1, K3), (3, K2)):
        assert representative_model(n, outcomes) == enumerate_models(n, outcomes)[0]


def test_sample_models_draws_the_seeded_rows():
    """A sample's rows are the seeded generator's draws, one outcome per
    state, row after row, each row with every true profile in order."""
    for seed in (0, 4):
        for n, outcomes, count in ((2, K3, 100), (2, K2, 9), (1, K3, 6)):
            profiles = all_profiles(n, outcomes)
            rng = random.Random(seed)
            rows = [tuple(rng.choice(outcomes) for _ in profiles) for _ in range(-(-count // len(profiles)))]
            models = sample_models(n, outcomes, count, seed=seed)
            assert [(m.table.values, m.truth) for m in models] == [(row, t) for row in rows for t in profiles]


def _per_model_scan(table, prop):
    """The model-by-model scan that check_scf_property stands for: true
    profiles in canonical order, the lowest falsified state of the first
    model that falsifies the property."""
    formula = property_formula(prop, table.agents, table.outcomes)
    for truth in table.profiles:
        _, bad = valid_in_model(ScfModel(table, truth), formula)
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


@functools.lru_cache(maxsize=None)
def _relational_class(n, outcomes):
    return [(model, kripke_view(model)) for model in enumerate_models(n, outcomes)]


def _relational_scan(n, outcomes, formula, want):
    """The per-model scan that satisfiable (want=True) and valid
    (want=False) stand for: models in enumeration order, states in
    canonical order, each evaluated by the relational semantics."""
    for model, km in _relational_class(n, outcomes):
        for idx, state in enumerate(km.states):
            if eval_kripke(km, idx, formula) == want:
                return model, state
    return None


def _chunk_starts(n, outcomes, truths):
    """Indices of the outcome functions that open each chunk of the
    stacked enumeration, each outcome function stacked with `truths` true
    profiles, and whether the last chunk is partial."""
    states = len(all_profiles(n, outcomes))
    tables = len(outcomes) ** states
    most = max(1, _CHUNK_BITS // (states * truths))
    starts, start, size = [], 0, 1
    while start < tables:
        starts.append(start)
        start += size
        size = min(2 * size, most)
    return starts, start > tables


def _first_hit_formula(n, outcomes, table_index, reads_pref=False):
    """A formula satisfiable exactly in the models whose outcome function
    is the `table_index`-th one in enumeration order, and the first of
    those models.  With `reads_pref` the formula also reads a true
    preference (through a pref(1) that always holds), so the enumeration
    stacks every true profile of an outcome function, not only the first."""
    states = len(all_profiles(n, outcomes))
    values = itertools.product(outcomes, repeat=states)
    table = ScfTable(n, outcomes, next(itertools.islice(values, table_index, None)))
    first = next(itertools.islice(enumerate_models(n, outcomes), table_index * states, None))
    assert first.table == table
    formula = rho(table, "diamond")
    return (And(formula, Pref(1, TRUE)) if reads_pref else formula), first


def test_sat_and_valid_return_the_canonical_first_hit():
    """Witnesses and counterexamples are the first model in enumeration
    order and its lowest state, whatever the chunking of the enumeration."""
    cases = []
    for n, outcomes, seed in ((1, K2, 41), (2, K2, 42), (1, K3, 43)):
        draw = make_formula_sampler(n, outcomes, seed=seed)
        cases += [(n, outcomes, f) for f in draw(12, max_depth=4)]
        # chunks of one true profile per outcome function (a pref-free
        # formula) and of every true profile
        for truths in (1, len(all_profiles(n, outcomes))):
            starts, partial = _chunk_starts(n, outcomes, truths)
            assert len(starts) >= 3 and partial
            # first hits on the first model of the second and of the last chunk
            for t in (starts[1], starts[-1]):
                formula, first = _first_hit_formula(n, outcomes, t, reads_pref=truths > 1)
                assert (formula.reads > 1) == (truths > 1)
                assert satisfiable(n, outcomes, formula).witness[0] == first
                assert valid(n, outcomes, Not(formula)).counterexample[0] == first
                cases.append((n, outcomes, formula))
    # state-determined formulas, decided on the first model alone
    for n, outcomes, seed in ((1, K2, 44), (2, K2, 45), (1, K3, 46)):
        cases += [(n, outcomes, f) for f in _state_determined(n, outcomes, seed, 30)]
    # a full sweep of every chunk at (1,3): unsatisfiable and valid
    cases.append((1, K3, And(Out("a"), Out("b"))))
    cases.append((1, K3, Implies(Out("c"), Pref(1, Out("c")))))
    statuses = set()
    for n, outcomes, formula in cases:
        sat = satisfiable(n, outcomes, formula)
        assert sat.witness == _relational_scan(n, outcomes, formula, True), formula
        val = valid(n, outcomes, formula)
        assert val.counterexample == _relational_scan(n, outcomes, formula, False), formula
        statuses.add((sat.status, val.status))
    assert {("unsatisfiable", "invalid"), ("satisfiable", "valid")} <= statuses


def test_pref_free_formulas_enumerate_outcome_functions():
    """A formula without pref modalities is decided on one model per
    outcome function, and the budget counts those: at (4,2) `<N> a -> a`
    needs 65,536 of them where the class has 1,048,576 models.  Its
    counterexample is the first model of the second outcome function, at
    the one state that function maps to b."""
    grand = range(1, 5)
    formula = Implies(Diamond(grand, Out("a")), Out("a"))
    profiles = all_profiles(4, K2)
    verdict = valid(4, K2, formula)
    assert verdict.counterexample == (
        ScfModel(ScfTable(4, K2, ("a",) * 15 + ("b",)), profiles[0]),
        profiles[15],
    )
    assert satisfiable(4, K2, Not(formula)).witness == verdict.counterexample
    with pytest.raises(BudgetExceeded) as err:
        valid(4, K2, formula, budget=2**16 - 1)
    assert str(err.value) == (
        "enumeration needs 65536 outcome functions over 16 states,"
        " budget allows 65535 outcome functions"
    )
    with pytest.raises(BudgetExceeded) as err:
        valid(4, K2, Or(formula, Pref(1, Out("b"))))
    assert str(err.value) == (
        "enumeration needs 1048576 models over 16 states, budget allows 1000000 models"
    )
    # beyond 10^30 the count is written as a power
    with pytest.raises(BudgetExceeded) as err:
        valid(3, K3, Out("a"))
    assert str(err.value).startswith("enumeration needs 3^216 outcome functions over 216 states")


ONE_AGENT_FORMULAS = (
    "pref(2) a -> b",
    "pref(1) b -> b",
    "pref(2) (b & rep(1,a,b))",
    "~pref(1) a | <{2}> b",
    "[{1,2}] (pref(2) b -> <{1}> b)",
    "pref(1) pref(1) a -> pref(1) a",
)


def _stacked_truths(monkeypatch):
    """The truths per row of every grid the decision procedures stack."""
    seen = []
    init = decision._stacked.StackedEvaluator.__init__

    def recording(self, models):
        if isinstance(models, decision._stacked.TableGrid):
            seen.append(len(models.truths))
        init(self, models)

    monkeypatch.setattr(decision._stacked.StackedEvaluator, "__init__", recording)
    return seen


@pytest.mark.parametrize("n", [2, 3])
def test_one_agent_formulas_return_the_canonical_first_hit(monkeypatch, n):
    """A formula reading one agent's true preference is enumerated with the
    first truth of each of that agent's rankings per outcome function, two
    of the (2!)^n, and its witness and counterexample are still the first
    model in enumeration order, at its lowest state, that the relational
    semantics finds model by model: fixed and seeded formulas at (n,{a,b}),
    both verdicts occurring."""
    draw = make_formula_sampler(n, K2, seed=61 + n)
    sampled = [f for f in draw(300, max_depth=5) if (f.reads >> 1).bit_count() == 1][:10]
    fixed = [parse(text, (n, K2)) for text in ONE_AGENT_FORMULAS]
    formulas = fixed + sampled + [Implies(Out("b"), Pref(n, Out("b")))]
    seen = _stacked_truths(monkeypatch)
    ramps = _stacked._space(n, K2).ramps
    statuses = set()
    for formula in formulas:
        del seen[:]
        # each walk builds its chunks afresh, so that `seen` records them
        ramps.clear()
        sat = satisfiable(n, K2, formula)
        assert sat.witness == _relational_scan(n, K2, formula, True), formula
        ramps.clear()
        val = valid(n, K2, formula)
        assert val.counterexample == _relational_scan(n, K2, formula, False), formula
        assert seen and set(seen) == {2}, formula
        statuses.add((sat.status, val.status))
    assert {("satisfiable", "invalid"), ("satisfiable", "valid")} <= statuses


def _walked_afresh(query, n, outcomes, formula, budget=decision.DEFAULT_BUDGET):
    """`query` on a state space whose kept ramps are cleared for the call,
    so that every chunk it walks is built anew; the keep is put back."""
    space = _stacked._space(n, outcomes)
    kept, space.ramps = space.ramps, {}
    try:
        return query(n, outcomes, formula, budget)
    finally:
        space.ramps = kept


def _by_shape(n, outcomes, seed, per_shape):
    """Seeded formulas over (n, K), `per_shape` of each read-set shape that
    occurs among them: none, outcome atoms only, one agent's pref, and
    every agent's; each also as a disjunction with its negation, which is
    valid and so walks every chunk."""
    draw = make_formula_sampler(n, outcomes, seed=seed)
    shapes = {}
    for formula in draw(400, max_depth=5):
        shape = _stacked._shape(n, formula.reads)
        if shape in (-1, 0, 1) or (shape >> 1).bit_count() == 1:
            if len(shapes.setdefault(shape, [])) < per_shape:
                shapes[shape].append(formula)
    return shapes, [f for fs in shapes.values() for f in fs + [Or(fs[0], Not(fs[0]))]]


def test_the_kept_ramps_give_the_walks_canonical_answers():
    """Satisfiability and validity calls at (2,2), (3,2) and (1,3),
    interleaved in a seeded order over formulas of every read-set shape,
    each walking the ramps that earlier calls kept and extending them:
    every witness and counterexample is the model-by-model scan's, and the
    one a walk with the keep cleared returns."""
    calls = []
    for n, outcomes, seed in ((2, K2, 91), (3, K2, 92), (1, K3, 93)):
        shapes, formulas = _by_shape(n, outcomes, seed, 3)
        assert {0, 1, -1} <= set(shapes) and len(shapes) >= 3 + (n > 1), shapes
        calls += [(query, n, outcomes, f) for f in formulas for query in (satisfiable, valid)]
    random.Random(94).shuffle(calls)
    for space in {_stacked._space(n, outcomes) for _, n, outcomes, _ in calls}:
        space.ramps.clear()
    statuses = set()
    for query, n, outcomes, formula in calls:
        verdict = query(n, outcomes, formula)
        found = verdict.witness if query is satisfiable else verdict.counterexample
        assert found == _relational_scan(n, outcomes, formula, query is satisfiable), formula
        assert verdict == _walked_afresh(query, n, outcomes, formula), formula
        statuses.add(verdict.status)
    assert statuses == {"satisfiable", "unsatisfiable", "valid", "invalid"}
    # each shape's ramp is the whole class at these scales, kept by the
    # walk of the shape's valid formula
    for n, outcomes, seed in ((2, K2, 91), (3, K2, 92), (1, K3, 93)):
        ramps = _stacked._space(n, outcomes).ramps
        assert set(ramps) == set(_by_shape(n, outcomes, seed, 3)[0])
        for shape, ramp in ramps.items():
            rows = sum(len(chunk.grid.rows) for chunk in ramp)
            assert rows == (1 if shape == 0 else len(outcomes) ** len(all_profiles(n, outcomes)))


def test_a_walk_over_a_kept_ramp_builds_no_evaluator(monkeypatch):
    """Once a walk has kept a shape's ramp, later satisfiability and
    validity calls of formulas of that shape, their chunks within it,
    build no `StackedEvaluator`: neither a chunk's nor, for a formula that
    reads nothing, the first model's."""
    built = []
    init = _stacked.StackedEvaluator.__init__

    def counted(self, models):
        built.append(models)
        init(self, models)

    monkeypatch.setattr(_stacked.StackedEvaluator, "__init__", counted)
    _stacked._space(2, K2).ramps.clear()
    one_agent = parse("pref(1) a | ~pref(1) a", (2, K2))
    every_agent = parse("pref(1) pref(2) b -> pref(1) pref(2) b", (2, K2))
    reads_nothing = parse("rep(1,a,b) | rep(1,b,a)", (2, K2))
    outcome_only = parse("<{1}> a | ~a", (2, K2))
    first = [valid(2, K2, f).status for f in (one_agent, every_agent, reads_nothing, outcome_only)]
    assert first == ["valid"] * 4 and len(built) >= 4
    built.clear()
    # other formulas of the same shapes, with hits early, late or none
    again = [
        valid(2, K2, parse("pref(1) b -> b", (2, K2))),
        satisfiable(2, K2, parse("~(pref(1) a | ~pref(1) a)", (2, K2))),
        valid(2, K2, parse("pref(2) a -> pref(1) a", (2, K2))),
        satisfiable(2, K2, parse("rep(2,b,a) & ~rep(1,a,b)", (2, K2))),
        valid(2, K2, parse("<{2}> b -> b", (2, K2))),
        valid(2, K2, outcome_only),
    ]
    statuses = ["invalid", "unsatisfiable", "invalid", "satisfiable", "invalid", "valid"]
    assert [verdict.status for verdict in again] == statuses
    assert built == []


# state-determined formulas over outcomes a and b and agents 1 and n, each
# with its truth at a state, read off the state's profile
STATE_DETERMINED = (
    ("rep(1,a,b) | rep(1,b,a)", lambda p, n: True),
    ("rep(1,a,b) -> rep({n},a,b)", lambda p, n: not _rep(p, 1, "a", "b") or _rep(p, n, "a", "b")),
    ("rep(1,b,a) & rep({n},b,a)", lambda p, n: _rep(p, 1, "b", "a") and _rep(p, n, "b", "a")),
    ("<{{1}}> (rep(1,b,a) & rep({n},b,a))", lambda p, n: n == 1 or _rep(p, n, "b", "a")),
    ("[{{1}}] rep(1,a,b) | false", lambda p, n: False),
)


def _rep(p, agent, x, y):
    """rep(agent, x, y) at the state whose profile is `p`."""
    return p.order(agent).at_least_as_good(x, y)


@pytest.mark.parametrize("n, outcomes", [(2, K2), (1, K3), (3, K2), (3, ("a", "b", "c", "d"))])
def test_a_state_determined_query_is_decided_on_the_first_chunk(monkeypatch, n, outcomes):
    """Satisfiability and validity of a formula that reads nothing walk the
    enumeration's chunks like any other and stop at the first, the class's
    first model, at any scale: the first call over (n, K) builds one
    `StackedEvaluator` and later calls, repeats and other formulas of that
    shape, none; no per-model `Evaluator` is built; each witness and
    counterexample is `representative_model(n, K)` at the lowest state
    where the formula holds or fails.  (3,{a,b,c,d}) has 4^13,824 outcome
    functions, and its one model fits the default budget."""
    model = representative_model(n, outcomes)
    formulas = [(parse(text.format(n=n), (n, outcomes)), holds) for text, holds in STATE_DETERMINED]
    built = []
    init = _stacked.StackedEvaluator.__init__

    def counted(self, models):
        built.append(models)
        init(self, models)

    def refused(self, model):
        raise AssertionError("a per-model Evaluator was built")

    monkeypatch.setattr(_stacked.StackedEvaluator, "__init__", counted)
    monkeypatch.setattr(_stacked.Evaluator, "__init__", refused)
    monkeypatch.setattr(_stacked._space(n, outcomes), "ramps", {})
    statuses = set()
    for attempt in range(2):
        for formula, holds in formulas:
            assert formula.reads == 0, formula
            truths = [holds(state, n) for state in model.states]
            sat, val = satisfiable(n, outcomes, formula), valid(n, outcomes, formula)
            assert sat.witness == (None if True not in truths else (model, model.states[truths.index(True)]))
            assert val.counterexample == (None if False not in truths else (model, model.states[truths.index(False)]))
            assert len(built) == 1, (attempt, formula)
            statuses |= {sat.status, val.status}
    assert statuses == {"satisfiable", "unsatisfiable", "valid", "invalid"}
    assert len(built[0]) == 1 and built[0][0] == model


def test_a_walk_past_the_ramp_keeps_only_the_ramp():
    """A whole-class walk at (4,{a,b}), 65,536 outcome functions, goes past
    the ramp; afterwards each kept shape holds under 2 * `_CHUNK_BITS`
    bits, its chunks doubling from one row up to the first chunk of full
    width, and no kept grid holds its rows laid out.  A first hit past the
    ramp is still the first model of its outcome function."""
    ramps = _stacked._space(4, K2).ramps
    ramps.clear()
    assert valid(4, K2, Or(Out("a"), Out("b"))).status == "valid"
    # the ramp of a pref-free formula holds outcome functions 0..4094; hits
    # on the first row of the first chunk past it, inside the next, and on
    # the last row of the class
    profiles = all_profiles(4, K2)
    rows = list(itertools.product(K2, repeat=16))
    for t in (4095, 4095 + 2048 + 5, 2**16 - 1):
        table = ScfTable(4, K2, rows[t])
        assert satisfiable(4, K2, rho(table, "diamond")).witness[0] == ScfModel(table, profiles[0])
    pref_either = Or(Pref(1, Out("a")), Pref(1, Out("b")))
    assert valid(4, K2, pref_either, budget=2 * 10**6).status == "valid"
    assert set(ramps) == {1, 3}
    for shape, ramp in ramps.items():
        truths = len(ramp[0].grid.truths)
        most = _CHUNK_BITS // (16 * truths)
        assert [len(chunk.grid.rows) for chunk in ramp] == [1 << k for k in range(most.bit_length())]
        assert sum(chunk.full.bit_length() for chunk in ramp) < 2 * _CHUNK_BITS
        assert sum(len(chunk.grid.rows) for chunk in ramp) < 2**16
        assert all(type(chunk.grid.rows) is _stacked._ClassRows for chunk in ramp)


def test_best_response_checks_stack_one_truth_per_ranking(monkeypatch):
    """check_scf_property(br(i)) at (2,3) stacks the first truth of each of
    agent i's 6 rankings, and strproof every one of the 36 truths, in
    chunks: the first truth alone, then the rest at once, so a table that
    fails at its first truth stacks one.  The counterexamples are the
    model-by-model scan's, on the (2,3) pools of these tests and on every
    dictatorship.  At (3,3) a passing strproof check stacks its 216 truths
    in chunks of 1, 151 and 64."""
    tables = _seeded_tables(2, K3, 6, seed=8) + _seeded_tables(2, K3, 6, seed=27)
    tables += [ScfTable.from_function(2, K3, lambda p, i=i: p.order(i).top) for i in (1, 2)]
    first = all_profiles(2, K3)[0]
    seen = _stacked_truths(monkeypatch)
    verdicts, chunks = set(), set()
    for table in tables:
        for prop in (BR(1), BR(2), STRPROOF):
            del seen[:]
            expected = _per_model_scan(table, prop)
            assert _checked(table, prop) == expected, (table.values, prop)
            if expected is not None and expected[0] == first:
                assert seen == [1], (table.values, prop)
            else:
                assert seen == [1, 35 if prop == STRPROOF else 5], (table.values, prop)
            verdicts.add((prop, expected is None))
            chunks.add((prop, len(seen)))
    assert len(verdicts) == 6
    # both chunk sequences occur for every property
    assert len(chunks) == 6
    # 216 truths at (3,{a,b,c}): one, then as many as fit in `_CHUNK_BITS`
    del seen[:]
    assert check_scf_property(ScfTable.from_function(3, K3, lambda p: p.order(1).top), STRPROOF).status == "valid"
    assert seen == [1, 151, 64]


def _scanned(verdict, table):
    """(truth, state) of a verdict's counterexample, as `_per_model_scan`
    gives it, or None; the counterexample's table is the checked one."""
    if verdict.status == "valid":
        return None
    model, state = verdict.counterexample
    assert model.table is table
    return model.truth, state


def test_many_tables_check_as_each_table_alone(monkeypatch):
    """`check_scf_properties` gives each table's own `check_scf_property`
    verdict, for all six kinds, its counterexample the model-by-model
    scan's: on every (1,3) table, on seeded (2,2), (2,3) and (3,2) tables
    and on both (2,3) dictatorships, both verdicts occurring for every kind
    at every scale.  So it does with `_CHUNK_BITS` cut to 97 bits, which
    splits each chunk's tables across many grids and checks a (2,3) table
    that passes one truth per chunk after the first."""
    cases = [(1, K3, [ScfTable(1, K3, values) for values in itertools.product(K3, repeat=6)])]
    for n, outcomes, count, seed in ((2, K2, 20, 85), (2, K3, 8, 86), (3, K2, 20, 87)):
        cases.append((n, outcomes, _seeded_tables(n, outcomes, count, seed)))
    cases[2][2].append(ScfTable.from_function(2, K3, lambda p: p.order(1).top))
    for n, outcomes, tables in cases:
        verdicts = set()
        for prop in _props(n):
            alone = [check_scf_property(table, prop) for table in tables]
            for table, verdict in zip(tables, alone):
                assert _scanned(verdict, table) == _per_model_scan(table, prop), (table.values, prop)
                verdicts.add((prop, verdict.status))
            assert check_scf_properties(tables, prop) == alone, prop
            with monkeypatch.context() as patch:
                patch.setattr(_stacked, "_CHUNK_BITS", 97)
                assert check_scf_properties(tables, prop) == alone, prop
        assert len(verdicts) == 2 * len(_props(n)), (n, outcomes)


def test_a_batch_check_refuses_as_the_single_check(monkeypatch):
    """An empty list has no verdicts; tables over two (n, K), a budget below
    one, and a check whose estimated work exceeds its budget are refused
    before anything is emitted."""

    def no_emit(*args):
        raise AssertionError("a residual program was emitted")

    monkeypatch.setattr(decision, "_residual", no_emit)
    assert check_scf_properties([], STRPROOF) == []
    tables = _seeded_tables(2, K3, 2, seed=88)
    for other in (ScfTable(2, K2, "abab"), ScfTable(1, K3, "abcabc"), ScfTable(2, ("b", "a", "c"), tables[0].values)):
        with pytest.raises(core.InvalidDomain, match="all checked tables must share"):
            check_scf_properties(tables + [other], CITSOV)
    with pytest.raises(core.InvalidDomain, match="the property budget must be positive"):
        check_scf_properties(tables, CITSOV, 0)
    work = decision._property_work("strproof", 2, 3, 36)
    with pytest.raises(BudgetExceeded) as err:
        check_scf_properties(tables, STRPROOF, work - 1)
    assert str(err.value).startswith(f"checking strproof needs {work:.1e} bit operations over 36 states")
    big = ScfTable.from_function(3, ("a", "b", "c", "d"), lambda p: p.order(1).top)
    with pytest.raises(BudgetExceeded):
        check_scf_properties([big, big], MON)


def test_the_kept_programs_are_those_of_one_domain():
    """Residual programs are kept for one (n, K) at a time: `mon` at
    (3,{a,b,c}) keeps its 64,106-entry program, megabytes, until a check
    over (2,{a,b,c}) starts, which drops it; that check leaves under half a
    MiB more than there was before `mon`."""
    import gc
    import tracemalloc

    tables = [ScfTable.from_function(n, K3, lambda p: p.order(1).top) for n in (3, 2)]
    for table in tables:  # each state space, and a small program of each domain
        check_scf_property(table, CITSOV)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check_scf_property(tables[0], MON)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
        check_scf_property(tables[1], CITSOV)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept > 2**21, kept
    assert left < 2**19, left
    assert list(decision._programs) == [(2, K3)]


def test_enumeration_builds_no_model_per_visited_model(monkeypatch):
    """Enumeration stacks outcome functions as tables, and only the model
    of a witness or counterexample is ever built, whether through the
    checking constructor or as a grid's model, which skips the check."""
    late, first = _first_hit_formula(1, K3, _chunk_starts(1, K3, 1)[0][-1])
    dictatorship = ScfTable.from_function(2, K3, lambda p: p.order(1).top)
    built = []
    post_init, grid_model = ScfModel.__post_init__, _stacked._model

    def counted(model):
        built.append(model)
        post_init(model)

    monkeypatch.setattr(ScfModel, "__post_init__", counted)
    monkeypatch.setattr(_stacked, "_model", lambda *args: built.append(grid_model(*args)) or built[-1])
    assert valid(1, K3, Implies(Out("c"), Pref(1, Out("c")))).status == "valid"
    assert built == []
    assert satisfiable(1, K3, late).witness[0] == first
    assert built == [first]
    built.clear()
    for prop in (STRPROOF, CITSOV):
        assert check_scf_property(dictatorship, prop).status == "valid"
    assert built == []


def test_budget_exceeded_before_any_model_is_built(monkeypatch):
    def no_models(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(decision, "ScfModel", no_models)
    monkeypatch.setattr(decision, "ScfTable", no_models)
    # 64 models at (2,2); a pref-free formula needs its 16 outcome functions
    excluded_middle = Or(Out("a"), Not(Out("a")))
    pref_middle = Or(Pref(1, Out("a")), Not(Pref(1, Out("a"))))
    for query in (satisfiable, valid):
        with pytest.raises(BudgetExceeded):
            query(2, K2, pref_middle, 63)
        with pytest.raises(BudgetExceeded):
            query(2, K2, excluded_middle, 15)
        for formula in (excluded_middle, pref_middle):
            with pytest.raises(BudgetExceeded):
                query(2, K3, formula)


def test_budget_refusals_are_immediate_and_short_at_any_size(monkeypatch):
    """Every refusal is decided from the state count before any state is
    built, and names the sizes in text of bounded length."""

    def no_states(*args):
        raise AssertionError("a state was built")

    def no_rows(*args):
        raise AssertionError("a row was laid out")

    monkeypatch.setattr(core, "_profiles", no_states)
    monkeypatch.setattr(decision._stacked, "TableGrid", no_rows)
    small = 100
    rep_ab = Rep(1, "a", "b")
    # a state-determined formula needs one model: 216 states at (3,3)
    for query in (satisfiable, valid):
        with pytest.raises(BudgetExceeded) as err:
            query(3, K3, rep_ab, small)
        assert str(err.value) == "one model has 216 states, budget allows 100 models"
    with pytest.raises(BudgetExceeded):
        sample_models(3, K3, 10, budget=small)
    for n, outcomes, budget in ((2, K2, 10), (1, K3, small)):
        with pytest.raises(BudgetExceeded):
            enumerate_models(n, outcomes, budget)
    # (10,3) has 3^60466176 * 60466176 models; (1000,3) more states than
    # fit in a short decimal
    for n, states in ((10, "60466176"), (1000, "3!^1000")):
        with pytest.raises(BudgetExceeded) as err:
            valid(n, K3, Out("a"))
        message = str(err.value)
        assert f"over {states} states" in message and len(message) < 120
        assert err.value.required_models is None
    # the axioms pool size reads the class size through the same bound
    caps = [axioms._default_cap(n, k) for n, k in ((1, K2), (2, K2), (3, K2), (2, K3), (10, K3))]
    assert caps == [64, 64, 48, 32, 32]


def _formula_path(table, prop):
    """What the formula path reports: `first_failure` of the property
    formula on the table's one-row grid, which evaluates it on the view
    its read-set narrows to."""
    grid = _stacked.TableGrid(table.agents, table.outcomes, [table.values])
    return _stacked.StackedEvaluator(grid).first_failure(property_formula(prop, table.agents, table.outcomes))


@pytest.mark.parametrize(
    "n, outcomes, tables",
    [
        (1, K3, None),  # every table
        (2, K2, (30, 81)),
        (2, K3, (12, 82)),
        (3, K2, (30, 83)),
    ],
)
def test_the_residual_program_decides_as_the_property_formula(n, outcomes, tables):
    """`check_scf_property`, which runs each property's residual program,
    gives the verdict and counterexample of the property formula's
    `first_failure`, for all six kinds: on every (1,3) table, and on the
    dictatorships, a constant table and seeded tables at (2,2), (2,3) and
    (3,2), both verdicts occurring for every kind at every scale."""
    if tables is None:
        size = len(all_profiles(n, outcomes))
        tables = [ScfTable(n, outcomes, values) for values in itertools.product(outcomes, repeat=size)]
    else:
        tables = _seeded_tables(n, outcomes, *tables)
        tables += [ScfTable.from_function(n, outcomes, lambda p, i=i: p.order(i).top) for i in range(1, n)]
    verdicts = set()
    for table in tables:
        for prop in _props(n):
            hit = _formula_path(table, prop)
            verdict = check_scf_property(table, prop)
            assert verdict.counterexample == hit, (prop, table.values)
            assert verdict.status == ("valid" if hit is None else "invalid")
            verdicts.add((prop, hit is None))
    assert len(verdicts) == 2 * len(_props(n))


def test_a_check_builds_no_formula_and_runs_each_builder_once(monkeypatch):
    """No formula node is built and none lifted to a program by a property
    check, and each property's builder runs once per (property, n, K),
    however many tables are checked."""
    from scflogic import encodings, logic

    decision._programs.clear()
    runs = []
    for kind, build in encodings._SCOPED.items():
        monkeypatch.setitem(
            encodings._SCOPED, kind, lambda s, agent, kind=kind, build=build: runs.append(kind) or build(s, agent)
        )

    def no_formula(*args):
        raise AssertionError("a formula was built")

    monkeypatch.setattr(logic.Formula, "__new__", no_formula)
    monkeypatch.setattr(encodings, "_property_formula", no_formula)
    monkeypatch.setattr(_stacked._Emit, "lift", no_formula)
    scales = [(2, K2), (1, K3), (2, K3)]
    for n, outcomes in scales:
        for table in _seeded_tables(n, outcomes, 3, seed=84):
            for prop in _props(n):
                check_scf_property(table, prop)
    monkeypatch.undo()
    expected = ["citsov", "nodict", "dom", "mon", "strproof", "br", "br"]
    assert runs == expected + expected[:-1] + expected
    decision._programs.clear()


def test_best_response_of_an_agent_past_n_is_refused_as_before():
    table = ScfTable.from_function(2, K3, lambda p: p.order(1).top)
    for _ in range(2):  # the refusal is not kept as a program
        with pytest.raises(core.InvalidDomain) as err:
            check_scf_property(table, BR(3))
        assert str(err.value) == "agent 3 out of range 1..2"


def test_a_residual_program_is_no_larger_than_the_formula_program():
    """Each property's residual program has no more entries than the
    program its formula is lifted to by `truth_mask`, kept in its (n, K)'s
    table: its outcome-free parts are folded into at most one constant per
    mask and its complement.  strproof at (2,3) has 2,088 entries, 36 of
    them constants (one per ballot)."""
    for n, outcomes in ((2, K2), (1, K3), (3, K2)):
        model = sample_models(n, outcomes, 1, seed=n)[0]
        for prop in _props(n):
            formula = property_formula(prop, n, outcomes)
            _stacked.Evaluator(model).truth_mask(formula)
            _, (ops, _, _, _) = decision._residual(prop, n, outcomes)
            assert len(ops) <= len(_stacked._space(n, outcomes).programs[formula][0]), prop
    _, (ops, args, _, _) = decision._residual(STRPROOF, 2, K3)
    assert len(ops) == 2088
    constants = [a for op, a in zip(ops, args) if op == _stacked._MASK]
    assert len(constants) == 36 and all(mask & 1 == 0 for mask in constants)


@pytest.mark.parametrize("n, outcomes", [(2, K2), (1, K3), (3, K2), (2, K3)])
def test_a_lifted_property_formula_is_its_residual_program(n, outcomes):
    """Lifting a property's formula into an emitting scope folds and shares
    as running the property's builder there does: the program has as many
    entries as the residual program, with the same read-set.  At (2,3)
    `mon` has 2,942 entries and `strproof` 2,088."""
    sizes = {}
    for prop in _props(n):
        emit = _stacked._Emit(n, outcomes)
        reads, (ops, _, _, _) = emit.program(emit.lift(property_formula(prop, n, outcomes)))
        residual_reads, (residual, _, _, _) = decision._residual(prop, n, outcomes)
        assert (len(ops), reads) == (len(residual), residual_reads), prop
        sizes[prop] = len(ops)
    if (n, outcomes) == (2, K3):
        assert (sizes[MON], sizes[STRPROOF]) == (2942, 2088)


def _replayed_peak(program):
    """Replay the op codes of `program` alone, tracking which slots hold a
    mask, and return the most masks held between two entries.  No entry
    may read a slot that is not yet computed or already freed; every entry
    but the root is freed once, by the last entry that reads it; only the
    root is held at the end."""
    ops, args, keys, _ = program
    reads = [(a, b) if op < _stacked._DIAMOND else (a,) if op < _stacked._OUT else () for op, a, b in zip(ops, args, keys)]
    last = {child: k for k, children in enumerate(reads) for child in children}
    held, freed, peak = set(), [], 0
    for k, (op, a, b, children) in enumerate(zip(ops, args, keys, reads)):
        assert held.issuperset(children), k
        held.add(k)
        for flag, child in ((_stacked._FREE_A, a), (_stacked._FREE_B, b)):
            if op & flag:
                assert len(children) > flag >> 1 and last[child] == k, k
                held.remove(child)
                freed.append(child)
        peak = max(peak, len(held))
    assert sorted(freed) == list(range(len(ops) - 1))
    assert held == {len(ops) - 1}
    return peak


@pytest.mark.parametrize("n, outcomes", [(2, K2), (1, K3), (3, K2), (2, K3)])
def test_a_program_frees_each_mask_at_its_last_reader(n, outcomes):
    """The free schedule of every residual program and of seeded lifted
    formulas, replayed from the op codes: each entry but the root is freed
    by its last reader and read by none after.  In the order of entry a
    run holds at most 110 masks for `mon` at (2,3) and 225 for
    `strproof`."""
    peaks = {prop: _replayed_peak(decision._residual(prop, n, outcomes)[1]) for prop in _props(n)}
    for formula in make_formula_sampler(n, outcomes, seed=50 + n)(40):
        emit = _stacked._Emit(n, outcomes)
        _replayed_peak(emit.program(emit.lift(formula))[1])
    if (n, outcomes) == (2, K3):
        assert (peaks[MON], peaks[STRPROOF]) == (110, 225)


def test_an_emitting_scope_folds_constants_and_enters_equal_entries_once():
    emit = _stacked._Emit(2, K2)
    a, b = emit.Out("a"), emit.Out("b")
    rep = emit.Rep(1, "a", "b")
    assert emit.Out("a") == a and emit.Not(emit.Not(a)) == a
    assert emit.Or(a, emit.FALSE) == a and emit.And(a, emit.TRUE) == a
    assert emit.Or(a, emit.TRUE) is emit.TRUE and emit.And(a, emit.FALSE) is emit.FALSE
    assert emit.Or(a, emit.Not(a)) is emit.TRUE and emit.Or(a, a) == a
    assert emit.Or(a, b) == emit.Or(b, a)
    assert emit.Pref(1, emit.TRUE) is emit.TRUE and emit.Pref(1, emit.FALSE) is emit.FALSE
    # a static value is a mask of one block; no entry is made for it
    assert emit.Diamond((1, 2), rep) is emit.TRUE and emit.And(rep, emit.Not(rep)) is emit.FALSE
    before = len(emit.ops)
    # a mask and its complement are one constant, read through a parity
    assert emit.Or(a, rep) != emit.Or(a, emit.Not(rep))
    assert len(emit.ops) == before + 1 + 2
    reads, (ops, _, _, odd) = emit.program(emit.Pref(2, emit.And(a, rep)))
    assert reads == 0b101 and len(ops) == 4 and odd == 0
    # `Iff` and `PrefBox` emit the programs of their definitions, which run,
    # over every (2,{a,b}) model, to the masks of the relational semantics
    grid = _stacked.TableGrid(2, K2, list(itertools.product(K2, repeat=4)))
    ev = _stacked.StackedEvaluator(grid)
    x_f, y_f = Out("a"), Pref(2, Or(Out("b"), Rep(1, "a", "b")))

    def emitted(build):
        emit = _stacked._Emit(2, K2)
        return emit.program(build(emit, emit.Out("a"), emit.Pref(2, emit.Or(emit.Out("b"), emit.Rep(1, "a", "b")))))

    cases = [
        (lambda e, x, y: e.Iff(x, y), lambda e, x, y: e.And(e.Implies(x, y), e.Implies(y, x)), Iff(x_f, y_f)),
        (lambda e, x, y: e.Iff(e.Not(x), e.TRUE), lambda e, x, y: e.Not(x), Iff(Not(x_f), TRUE)),
        (lambda e, x, y: e.PrefBox(1, e.Or(x, y)), lambda e, x, y: e.Not(e.Pref(1, e.Not(e.Or(x, y)))),
         PrefBox(1, Or(x_f, y_f))),
        (lambda e, x, y: e.PrefBox(2, e.Iff(y, x)), lambda e, x, y: e.Not(e.Pref(2, e.Not(e.Iff(y, x)))),
         PrefBox(2, Iff(y_f, x_f))),
    ]
    for made, defined, formula in cases:
        program = emitted(made)
        assert program == emitted(defined), formula
        mask = ev._run(program[1])
        for m, model in enumerate(grid):
            view, block = kripke_view(model), mask >> m * ev.block & ev.block_ones
            assert all(eval_kripke(view, v, formula) == bool(block >> v & 1) for v in range(ev.block)), formula


def test_a_property_check_past_its_budget_is_refused_before_anything_is_emitted(monkeypatch):
    """`strproof` and `mon` on the (3,4) and (2,5) dictatorships are
    refused from (kind, n, |K|) alone, naming the estimated work; `budget`
    sets the limit, and one below one is refused."""

    def no_emit(*args):
        raise AssertionError("a residual program was emitted")

    monkeypatch.setattr(decision, "_residual", no_emit)
    for n, outcomes, work in ((3, ("a", "b", "c", "d"), ("1.3e+14", "1.3e+14")), (2, tuple("abcde"), ("1.5e+14", "1.5e+14"))):
        table = ScfTable.from_function(n, outcomes, lambda p: p.order(1).top)
        states = len(table.values)
        for prop, figure in zip((STRPROOF, MON), work):
            with pytest.raises(BudgetExceeded) as err:
                check_scf_property(table, prop)
            assert str(err.value) == (
                f"checking {prop} needs {figure} bit operations over {states} states,"
                f" budget allows {decision.PROPERTY_BUDGET} bit operations"
            )
    table = ScfTable.from_function(2, K3, lambda p: p.order(1).top)
    work = decision._property_work("strproof", 2, 3, 36)
    assert work == 36 * 2 * 9 * 36 * 36
    with pytest.raises(BudgetExceeded):
        check_scf_property(table, STRPROOF, work - 1)
    for budget in (0, -1):
        with pytest.raises(core.InvalidDomain, match="the property budget must be positive"):
            check_scf_property(table, STRPROOF, budget)
    monkeypatch.undo()
    assert check_scf_property(table, STRPROOF, work).status == "valid"
    # every gated check fits the default limit
    for kind, n, k in (("strproof", 2, 4), ("mon", 2, 4), ("mon", 3, 3), ("strproof", 3, 3)):
        states = math.factorial(k) ** n
        assert decision._property_work(kind, n, k, states) <= decision.PROPERTY_BUDGET


@pytest.mark.parametrize("n, outcomes, seed", [(2, K2, 91), (1, K3, 92), (3, K2, 93)])
def test_an_emitted_formula_runs_to_its_truth_mask(n, outcomes, seed):
    """A seeded formula lifted into an emitting scope gives a residual
    program whose run over three seeded tables, every truth of each, is,
    block by block, the formula's extension in the relational semantics;
    `truth_mask` keeps that program in the (n, K)'s table; its read-set is
    within the formula's, and the first table's failure the program's
    sieve reports is the formula's `first_failure`."""
    draw = make_formula_sampler(n, outcomes, seed)
    rng = random.Random(seed)
    size = len(all_profiles(n, outcomes))
    grid = _stacked.TableGrid(n, outcomes, [tuple(rng.choice(outcomes) for _ in range(size)) for _ in range(3)])
    ev = _stacked.StackedEvaluator(grid)
    views = [kripke_view(model) for model in grid]
    hits = set()
    for formula in draw(150):
        emit = _stacked._Emit(n, outcomes)
        reads, program = emit.program(emit.lift(formula))
        mask = ev._run(program)
        for m, km in enumerate(views):
            block = mask >> m * ev.block & ev.block_ones
            assert all(eval_kripke(km, v, formula) == bool(block >> v & 1) for v in range(ev.block)), formula
        ev.space.programs.pop(formula, None)
        assert ev.truth_mask(formula) == mask
        assert ev.space.programs[formula] == program
        assert reads & ~formula.reads == 0, formula
        tables = [ScfTable(n, outcomes, row) for row in grid.rows]
        hit = next(filter(None, _stacked.sieve(tables, reads, program)), None)
        assert hit == ev.first_failure(formula), formula
        hits.add(hit is None)
    assert hits == {True, False}
