import ast
import copy
import gc
import pickle
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from scflogic import (
    Evaluator,
    InvalidDomain,
    KripkeScf,
    Profile,
    ScfModel,
    ScfTable,
    all_linear_orders,
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
    Implies,
    Not,
    Or,
    Out,
    Pref,
    Rep,
    Top,
    conj,
    disj,
)
import itertools
import math
import random

from scflogic import _stacked
from scflogic._stacked import StackedEvaluator, TableGrid
from scflogic.axioms import default_pool, instantiate
from scflogic import axioms, decision, encodings, logic
from scflogic.encodings import MON, STRPROOF, better, dom, property_formula, rho
from scflogic.parser import Context, parse

from conftest import AB, BA, K2, K3, make_formula_sampler, narrowed_width, profile


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
    """Both semantics refuse a formula outside the model's (n, K), in the
    same words, naming the first fault in post-order."""
    s = h_model.states[0]
    km = kripke_view(h_model)
    pair = StackedEvaluator([h_model, ScfModel(h_model.table, h_model.states[3])])
    outside = [
        Rep(3, "a", "b"),
        Rep(1, "a", "z"),
        Out("z"),
        Diamond({1, 5}, TRUE),
        Pref(9, TRUE),
        Diamond({0}, TRUE),
        Rep(5, "a", "z"),
        Or(Out("z"), Rep(3, "a", "b")),
        Not(Diamond({2, 7}, Pref(1, Out("a")))),
    ]
    for f in outside:
        with pytest.raises(InvalidDomain) as direct:
            evaluate(h_model, s, f)
        with pytest.raises(InvalidDomain) as relational:
            eval_kripke(km, 0, f)
        with pytest.raises(InvalidDomain) as stacked:
            pair.first_failure(f)
        assert str(direct.value) == str(relational.value) == str(stacked.value)


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


def test_kripke_view_relations_follow_the_definitions():
    """R_i(v,u) iff v and u agree on every order but agent i's; P_i(v,u)
    iff the true order ranks out(u) at least as high as out(v).  Both are
    computed here from the `Profile` objects alone."""
    models = [*enumerate_models(1, K3), *enumerate_models(2, K2)]
    models += sample_models(2, K3, 6, seed=17) + sample_models(3, K2, 12, seed=17)
    for model in models:
        km = kripke_view(model)
        states = all_profiles(model.n, model.outcomes)
        assert km.states == states
        outs = [model.out(state) for state in states]
        for agent in range(1, model.n + 1):
            order = model.truth.order(agent)
            for v, low in enumerate(states):
                r_row = set(km.r_edges[agent - 1][v])
                p_row = set(km.p_edges[agent - 1][v])
                for u, high in enumerate(states):
                    agree = all(
                        low.order(j) == high.order(j)
                        for j in range(1, model.n + 1)
                        if j != agent
                    )
                    assert (u in r_row) == agree
                    assert (u in p_row) == order.at_least_as_good(outs[u], outs[v])


def test_logic_imports_nothing_from_the_stacked_evaluator():
    """The relational cross-check must not share code or state data with
    the evaluator it checks."""
    tree = ast.parse(Path(logic.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "_stacked" in name]


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
        for s in model.states:
            assert evaluate(model, s, TRUE) == eval_kripke(km, s, TRUE)
            assert evaluate(model, s, rho_h) == eval_kripke(km, s, rho_h)


def test_eval_kripke_agrees_on_dom(majority_table):
    model = ScfModel(majority_table, all_profiles(3, K2)[0])
    km = kripke_view(model)
    formula = dom(3, K2)
    mask = Evaluator(model).truth_mask(formula)
    for idx, s in enumerate(model.states):
        assert bool(mask >> idx & 1) == eval_kripke(km, s, formula)


def test_semantics_agreement_small_classes():
    # every model over the tiny domains, random formula pool
    for n, outcomes in ((1, ("a",)), (1, K2), (2, K2)):
        draw = make_formula_sampler(n, outcomes, seed=11)
        pool = draw(40, max_depth=5)
        for model in enumerate_models(n, outcomes):
            km = kripke_view(model)
            ev = Evaluator(model)
            for f in pool:
                mask = ev.truth_mask(f)
                for idx, s in enumerate(model.states):
                    assert bool(mask >> idx & 1) == eval_kripke(km, s, f)


def test_semantics_agreement_sampled_k3():
    draw = make_formula_sampler(2, K3, seed=13)
    pool = draw(15, max_depth=4)
    for model in sample_models(2, K3, 8, seed=5):
        km = kripke_view(model)
        ev = Evaluator(model)
        for f in pool:
            mask = ev.truth_mask(f)
            for idx, s in enumerate(model.states):
                assert bool(mask >> idx & 1) == eval_kripke(km, s, f)


def _assert_blocks_follow_kripke(stacked, models, formulas):
    """Block m of each formula's stacked mask is, state by state, the
    formula's extension in the relational semantics of model m."""
    views = [kripke_view(model) for model in models]
    for f in formulas:
        whole = stacked.truth_mask(f)
        for m, km in enumerate(views):
            small = (whole >> (m * stacked.block)) & stacked.block_ones
            assert {v for v in range(stacked.block) if small >> v & 1} == {
                v for v in range(stacked.block) if eval_kripke(km, v, f)
            }


def test_stacked_evaluator_matches_per_model():
    """Each block of a stacked mask agrees, state by state, with the
    relational semantics of its model."""
    for n, outcomes, count in (
        (2, K2, 12),
        (3, K2, 6),
        (2, K3, 4),
        (1, K2, 3),
        (1, ("a", "b", "c", "d"), 5),
    ):
        models = sample_models(n, outcomes, count, seed=3)
        draw = make_formula_sampler(n, outcomes, seed=29)
        _assert_blocks_follow_kripke(StackedEvaluator(models), models, draw(60, max_depth=6))


def test_a_table_grid_stacks_as_its_models_do():
    """A grid of outcome-function rows is stacked without building its
    models, yet each block of a stacked mask is the relational extension
    of the model at that index, and those models are the enumeration's
    from the grid's first row on, each row with every true profile."""
    k4 = ("a", "b", "c", "d")
    # (n, K, first row in enumeration order, row count): one row, a middle
    # run, and at (1,3) the partial last chunk of an enumeration (rows
    # 511..728); (1,{a,b,c,d}) has 24 true profiles
    for n, outcomes, start, count in (
        (1, K3, 0, 1),
        (1, K3, 511, 218),
        (2, K2, 5, 3),
        (3, K2, 17, 4),
        (1, k4, 0, 2),
    ):
        states = len(all_profiles(n, outcomes))
        values = itertools.product(outcomes, repeat=states)
        rows = list(itertools.islice(values, start, start + count))
        models = [ScfModel(ScfTable(n, outcomes, row), t) for row in rows for t in all_profiles(n, outcomes)]
        grid = TableGrid(n, outcomes, rows)
        assert len(grid) == count * states
        assert [grid[i] for i in range(len(grid))] == models
        # and on seeded rows, which choose every outcome somewhere
        rng = random.Random(n * 10 + len(outcomes))
        seeded = [tuple(rng.choice(outcomes) for _ in range(states)) for _ in range(3)]
        draw = make_formula_sampler(n, outcomes, seed=31)
        for grid in (grid, TableGrid(n, outcomes, seeded)):
            stacked = StackedEvaluator(grid)
            assert stacked.models is grid and stacked.full == (1 << len(grid) * states) - 1
            _assert_blocks_follow_kripke(stacked, list(grid), draw(8, max_depth=6))


def test_a_grid_iterates_its_models_in_index_order():
    """Iterating a grid gives the models its indices give, in index order,
    the models of a row sharing one table object, one per row; on a grid
    over all S true profiles, over part of them, and on a narrowed one."""
    profiles = all_profiles(2, K3)
    rng = random.Random(11)
    rows = [tuple(rng.choice(K3) for _ in profiles) for _ in range(3)]
    full = TableGrid(2, K3, rows)
    for grid in (full, TableGrid(2, K3, rows, profiles[5:9]), full.narrowed(Pref(1, Out("a")).reads)):
        models = list(grid)
        assert models == [grid[i] for i in range(len(grid))]
        width = len(grid.truths)
        for row, values in enumerate(grid.rows):
            run = models[row * width : (row + 1) * width]
            assert [model.truth for model in run] == list(grid.truths)
            assert all(model.table is run[0].table for model in run)
            assert run[0].table.values == values
        assert len({id(model.table) for model in models}) == len(grid.rows)


def test_a_model_list_stacks_as_the_grid_it_spells():
    """A model list is read into a grid: runs of one outcome function each,
    over the first run's true profiles in order.  The grid's models read
    by index (equal but distinct tables), a list whose first two rows
    share a table, and one over part of the true profiles stack bit for
    bit like their grids, and `first_failure` reports the caller's own
    model object.  A list over all S true profiles in order is read onto
    the space's own profiles tuple, whose narrowings the space keeps."""
    profiles = all_profiles(2, K2)
    rng = random.Random(7)
    rows = [tuple(rng.choice(K2) for _ in profiles) for _ in range(3)]
    grids = [
        TableGrid(2, K2, rows),
        TableGrid(2, K2, [rows[0], rows[0], rows[1]]),
        TableGrid(2, K2, rows, profiles[1:3]),
        TableGrid(2, K2, [rows[2]], profiles[::-1]),
    ]
    draw = make_formula_sampler(2, K2, seed=37)
    formulas = draw(20, max_depth=5)
    for grid in grids:
        models = [grid[i] for i in range(len(grid))]
        assert len({id(model.table) for model in models}) == len(models)
        by_grid, by_list = StackedEvaluator(grid), StackedEvaluator(models)
        assert by_list.models is models
        assert (by_list.grid.truths is profiles) == (tuple(grid.truths) == profiles)
        failing = 0
        for f in formulas:
            mask = by_list.truth_mask(f)
            assert mask == by_grid.truth_mask(f)
            bad = by_list.full ^ mask
            if bad:
                failing += 1
                m, v = divmod((bad & -bad).bit_length() - 1, by_list.block)
                hit = by_list.first_failure(f)
                assert hit == by_grid.first_failure(f) == (models[m], profiles[v])
                assert hit[0] is models[m]
        assert failing
        _assert_blocks_follow_kripke(by_list, models, formulas[:5])


def test_a_model_list_that_spells_no_grid_is_refused():
    """A list whose runs differ in length, mix outcome functions or change
    the first run's true profiles or their order is refused."""
    profiles = all_profiles(2, K2)
    one, two = ScfTable(2, K2, ("a",) * 4), ScfTable(2, K2, ("b",) * 4)
    run = [ScfModel(one, truth) for truth in profiles]
    for models in (
        run + [ScfModel(two, truth) for truth in profiles[:3]],  # a short last run
        run + [ScfModel(two, t) for t in profiles[:3]] + run[3:],  # a run of two tables
        run + [ScfModel(two, t) for t in profiles[::-1]],  # a run in another order
        run[:2] + [ScfModel(two, t) for t in profiles[2:]],  # a run over other truths
        [run[0], ScfModel(two, profiles[1]), run[2]],  # one truth, then others
    ):
        with pytest.raises(ValueError, match="must be runs of equal length"):
            StackedEvaluator(models)


def test_stacked_evaluator_refuses_empty_or_mixed_stacks():
    """A stack needs a model, and every model over the first one's (n, K),
    outcomes in the same order; the last model is checked too."""
    with pytest.raises(ValueError, match="need at least one model"):
        StackedEvaluator([])
    models = sample_models(2, K2, 3, seed=3)
    for odd in (representative_model(3, K2), representative_model(2, ("b", "a"))):
        with pytest.raises(ValueError, match=r"all stacked models must share \(n, outcomes\)"):
            StackedEvaluator(models + [odd])


@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4), (3, 3)])
def test_modality_kernels_match_a_per_bit_reference(n, k):
    """`_block_any`, `_collapse_axis`, `_diamond` for every coalition (∅
    and N included) and `_pref` for every agent agree bit by bit with
    references read off `all_profiles` and each block's model, on a
    one-row grid, a three-row grid and that grid tiled 2 and 3 times
    (`_Tiled`, whose block m is the grid's model m mod its length); at
    (3,{a,b,c}), whose 216-bit blocks the axiom sweep stacks too, on a
    one-row grid of eight true profiles alone.  The masks are random,
    plus the carry edges in every block: a block's top bit alone, its
    base bit alone, every bit, none, and the four side by side.  An
    emitting scope is laid out as a one-row, one-truth grid is."""
    outcomes = ("a", "b", "c", "d")[:k]
    rng = random.Random(100 * n + k)
    profiles = all_profiles(n, outcomes)
    size, ones = len(profiles), (1 << len(profiles)) - 1
    agents = range(1, n + 1)

    def states(test):
        return sum(1 << v for v in range(size) if test(v))

    def varying(coalition):
        """Per profile p: the states that differ from p in the orders of `coalition` only."""
        fixed = [j - 1 for j in agents if j not in coalition]
        keys = [tuple([p.orders[j] for j in fixed]) for p in profiles]
        alike = {}
        for v, key in enumerate(keys):
            alike[key] = alike.get(key, 0) | 1 << v
        return [alike[key] for key in keys]

    coalitions = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(agents, r)]
    lines = {c: varying(c) for c in coalitions}
    # per agent: the states giving it profiles[0]'s order, its digit 0
    planes = {
        i: states(lambda v: profiles[v].orders[i - 1] == profiles[0].orders[i - 1]) for i in agents
    }
    rows = [tuple(rng.choice(outcomes) for _ in profiles) for _ in range(3)]
    one, emit = StackedEvaluator(TableGrid(n, outcomes, rows[:1], profiles[:1])), _stacked._Emit(n, outcomes)
    for name in ("full", "tile", "_low", "_top", "_axis"):
        assert getattr(emit, name) == getattr(one, name), name
    # all S truths on the one row, but eight seeded ones at (3,{a,b,c})
    truths = None if size <= 36 else rng.sample(profiles, 8)
    evaluators = [StackedEvaluator(TableGrid(n, outcomes, rows[:1], truths))]
    if size <= 36:
        three = StackedEvaluator(TableGrid(n, outcomes, rows, rng.sample(profiles, min(3, size))))
        evaluators += [three, _stacked._Tiled(three, 2), _stacked._Tiled(three, 3)]
    for ev in evaluators:
        grid = getattr(ev, "view", ev).grid
        blocks = ev.full.bit_length() // size
        assert blocks == len(grid) * getattr(ev, "times", 1)

        def per_block(bits_of, x=0):
            """The mask whose block m is `bits_of(m, block m of x)`."""
            return sum(bits_of(m, x >> m * size & ones) << m * size for m in range(blocks))

        # per agent, block m and state v: the states whose outcome the
        # agent truly ranks at least as high as v's in block m's model
        above = {i: [] for i in agents}
        for m in range(blocks):
            model = grid[m % len(grid)]
            out = [model.out(p) for p in profiles]
            for i in agents:
                order = model.truth.orders[i - 1]
                ranked = {o: states(lambda w: order.at_least_as_good(out[w], o)) for o in outcomes}
                above[i].append([ranked[o] for o in out])

        edges = [0, 1, 1 << size - 1, ones]
        masks = [per_block(lambda m, _: edge) for edge in edges]
        masks.append(per_block(lambda m, _: edges[m % 4]))
        masks += [rng.getrandbits(size * blocks) for _ in range(3)]
        masks += [
            per_block(lambda m, _: rng.choice([0, 1 << rng.randrange(size), rng.getrandbits(size)]))
            for _ in range(3)
        ]
        for x in masks:
            assert ev._block_any(x) == per_block(lambda m, b: int(b != 0) << size - 1, x)
            for i in agents:
                line = lines[frozenset({i})]
                assert ev._collapse_axis(x, i) == per_block(
                    lambda m, b: states(lambda v: planes[i] >> v & 1 and b & line[v]), x
                ), i
                assert ev._pref(i, x) == per_block(
                    lambda m, b: states(lambda v: b & above[i][m][v]), x
                ), i
            for c in coalitions:
                assert ev._diamond(c, x) == per_block(
                    lambda m, b: states(lambda v: b & lines[c][v]), x
                ), sorted(c)


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
    # two 20,000-deep chains sharing a 10,000-deep tail: TRUE, and ~b
    tail = TRUE
    for _ in range(10000):
        tail = Not(tail)
    first, second = tail, Or(Out("b"), Not(tail))
    for _ in range(10000):
        first = Not(first)
    for _ in range(9999):
        second = Not(second)
    bad = stacked.truth_mask(Out("b"))
    assert bad
    model_idx, state_idx = divmod((bad & -bad).bit_length() - 1, stacked.block)
    assert stacked.first_failure(first) is None
    assert stacked.first_failure(second) == (models[model_idx], stacked.space.profiles[state_idx])


def test_evaluate_rejects_foreign_state(h_model):
    # a well-formed profile, but over other outcomes than the model's
    with pytest.raises(InvalidDomain, match="is not a state over n=2, K=a,b"):
        evaluate(h_model, profile(("a", "c"), ("c", "a")), TRUE)


def test_equal_formulas_are_one_object():
    ctx = Context(2, K2)
    assert parse("<{1}> (a | ~rep(2,a,b))", ctx) is Diamond({1}, Or(Out("a"), Not(Rep(2, "a", "b"))))
    assert parse("[N] pref(1) b", ctx) is Box([2, 1], Pref(1, Out("b")))
    built = better(2, K2, 1, Out("a"), Out("b"))
    assert better(2, K2, 1, Out("a"), Out("b")) is built
    # rebuilding the whole expansion in a fresh formula scope, past the
    # tables of the one the builders share, meets it too
    assert encodings._Scope(2, K2).better[1, Out("a"), Out("b")] is built


def test_unreferenced_nodes_are_collected():
    def build():
        node = Pref(2, Diamond({1}, Rep(1, "b", "a")))
        return weakref.ref(node), weakref.ref(node.child)

    refs = build()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    # a rebuilt node is fresh and still canonical
    assert Pref(2, Diamond({1}, Rep(1, "b", "a"))) is Pref(2, Diamond([1], Rep(1, "b", "a")))


# one node of each kind: its constructor arguments, its fields by slot name
# and its state_determined flag
NODE_KINDS = [
    (Top, (), {}, True),
    (Rep, (2, "b", "a"), {"agent": 2, "left": "b", "right": "a"}, True),
    (Out, ("b",), {"name": "b"}, False),
    (Not, (Rep(1, "a", "b"),), {"child": Rep(1, "a", "b")}, True),
    (Or, (Rep(1, "a", "b"), Out("a")), {"left": Rep(1, "a", "b"), "right": Out("a")}, False),
    (Diamond, ([2, 1], Rep(1, "a", "b")), {"coalition": {1, 2}, "child": Rep(1, "a", "b")}, True),
    (Pref, (1, Rep(1, "a", "b")), {"agent": 1, "child": Rep(1, "a", "b")}, False),
]


@pytest.mark.parametrize("cls, args, fields, determined", NODE_KINDS, ids=[kind[0].__name__ for kind in NODE_KINDS])
def test_each_node_kind_is_interned(cls, args, fields, determined):
    node = cls(*args)
    assert type(node) is cls
    assert cls(*args) is node
    assert {name: getattr(node, name) for name in cls.__slots__} == fields
    assert node.state_determined is determined
    with pytest.raises(AttributeError, match="immutable"):
        node.state_determined = not determined


@pytest.mark.parametrize("cls, args, fields, determined", NODE_KINDS, ids=[kind[0].__name__ for kind in NODE_KINDS])
def test_a_node_is_rebuilt_from_its_slots_in_order(cls, args, fields, determined):
    """The one constructor takes a kind's fields in `__slots__` order."""
    node = cls(*args)
    assert cls(*(getattr(node, name) for name in cls.__slots__)) is node


@pytest.mark.parametrize(
    "build",
    [lambda: Top(TRUE), lambda: Out(), lambda: Or(TRUE), lambda: Pref(1), lambda: Diamond({1})],
    ids=["Top(TRUE)", "Out()", "Or(TRUE)", "Pref(1)", "Diamond({1})"],
)
def test_a_wrong_arity_interns_nothing(build):
    gc.collect()
    size = len(logic._interned)
    with pytest.raises(TypeError):
        build()
    assert len(logic._interned) == size


@pytest.mark.parametrize(
    "n, outcomes, schema",
    [(2, K2, schema) for schema in axioms.SCHEMAS] + [(2, K3, "antisym'"), (2, K3, "comp-At")],
    ids=lambda value: "".join(value) if isinstance(value, tuple) else str(value),
)
def test_the_intern_table_returns_to_its_size_once_a_build_is_dropped(n, outcomes, schema):
    """`instantiate`'s memo tables go with its scope: once its instances,
    every formula read, are dropped the table is back at its size before
    the build, with the collector off, so no reference cycle holds a node
    either.  A first build fills the process-wide memos of
    `ballot_profile` and `better`."""
    pool = default_pool(n, outcomes)
    assert all(inst.formula for inst in instantiate(schema, n, outcomes, pool))
    gc.collect()
    baseline = len(logic._interned)
    with logic._collector_paused():
        instances = list(instantiate(schema, n, outcomes, pool))
        assert all(inst.formula for inst in instances)
        built = len(logic._interned) - baseline
        del instances
        assert len(logic._interned) == baseline
    assert built > 0 or schema == "refl"  # refl's instances are pool atoms


def test_a_late_callback_leaves_a_reinterned_key_alone():
    """A dead node's callback that runs after its key was interned again
    (as when the collector delays it) must not evict the live node."""
    key = (Rep, 7, "p", "q")

    def build_and_drop():
        node = Rep(7, "p", "q")
        ref = logic._interned[key]
        assert ref() is node
        return ref, ref.__callback__

    dead, callback = build_and_drop()
    assert dead() is None and key not in logic._interned
    live = Rep(7, "p", "q")
    callback(dead)
    assert logic._interned[key]() is live
    assert Rep(7, "p", "q") is live


def test_nodes_copy_and_pickle_to_the_live_node():
    """Copies are the node itself; unpickling rebuilds through the
    constructors, so it meets the live node, at any depth."""
    chain = TRUE
    for _ in range(20000):
        chain = Not(chain)
    nodes = [cls(*args) for cls, args, _, _ in NODE_KINDS]
    nodes += [chain, property_formula(STRPROOF, 2, K3)]
    for node in nodes:
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(node, protocol)) is node
    assert copy.deepcopy(nodes) == nodes


def test_an_unpickled_node_is_canonical_after_the_original_died():
    data = pickle.dumps(Pref(2, Diamond({1}, Or(Rep(1, "q", "r"), Out("q")))))
    gc.collect()
    assert (Out, "q") not in logic._interned
    node = pickle.loads(data)
    assert node is Pref(2, Diamond([1], Or(Rep(1, "q", "r"), Out("q"))))


def test_evaluators_keep_no_formula_alive():
    """Slots and masks live for one call only, and a kept program holds no
    node: a formula evaluated through `truth_mask` and `first_failure` of
    a live evaluator is collected once the caller drops it."""
    models = sample_models(2, K2, 4, seed=3)
    stacked = StackedEvaluator(models)
    one = Evaluator(models[0])

    def evaluate_and_drop():
        node = Pref(1, Diamond({2}, Not(Rep(2, "b", "a"))))
        stacked.truth_mask(node)
        stacked.first_failure(Or(node, Out("a")))
        one.truth_mask(node)
        return weakref.ref(node)

    ref = evaluate_and_drop()
    gc.collect()
    assert ref() is None


def test_subformulas_yield_each_distinct_node_once_in_postorder():
    """The strproof encoding at (2,3) is a DAG of 3,934 distinct nodes that
    unfolds to a tree of 370,148; the walk yields each node once, every
    node after all its children and the root last."""
    formula = property_formula(STRPROOF, 2, K3)
    nodes = list(formula.subformulas())
    assert len(nodes) == len(set(nodes)) == 3934
    done = set()
    for node in nodes:
        assert done.issuperset(node.children())
        done.add(node)
    assert nodes[-1] is formula


def test_eval_kripke_walks_deep_and_shared_formulas():
    """The relational semantics evaluates a 20,000-deep chain and the
    strproof encoding at (2,3) without recursion, in agreement with the
    stacked evaluator at every state."""
    model = sample_models(2, K3, 1, seed=17)[0]
    km = kripke_view(model)
    stacked = StackedEvaluator([model])
    chain = Out("a")
    for _ in range(20000):
        chain = Not(chain)
    for formula in (chain, property_formula(STRPROOF, 2, K3)):
        mask = stacked.truth_mask(formula)
        for v in range(stacked.block):
            assert eval_kripke(km, v, formula) == bool(mask >> v & 1)


def _first_hit_by_scan(stacked, root):
    """What `first_failure` must report, from the root's full-width
    `truth_mask`: (model, state) at its lowest falsified bit, or None."""
    bad = stacked.full ^ stacked.truth_mask(root)
    if not bad:
        return None
    model_idx, state_idx = divmod((bad & -bad).bit_length() - 1, stacked.block)
    return stacked.models[model_idx], stacked.space.profiles[state_idx]


def _scan_and_count(models, root):
    """`first_failure` of a fresh evaluator over `models`, checked against
    the root's full-width `truth_mask` (model and state), and checked to
    compute no modal node of the root twice, whether it is computed once
    when the root is lifted (a modal node over reported atoms only) or by
    the program's run, on whichever view of the stack it evaluates it:
    per coalition or agent, no more modal computations than distinct modal
    nodes.  A node the emitting scope folds away, as in x | ~x, is not
    computed at all."""
    ev = StackedEvaluator(models)
    ev.space.programs.pop(root, None)
    modal = Counter(
        (type(node), node.coalition if type(node) is Diamond else node.agent)
        for node in root.subformulas()
        if type(node) in (Diamond, Pref)
    )
    calls = Counter()
    diamond, pref = StackedEvaluator._diamond, StackedEvaluator._pref
    StackedEvaluator._diamond = lambda self, c, x: calls.update([(Diamond, c)]) or diamond(self, c, x)
    StackedEvaluator._pref = lambda self, agent, x: calls.update([(Pref, agent)]) or pref(self, agent, x)
    try:
        hit = ev.first_failure(root)
    finally:
        StackedEvaluator._diamond, StackedEvaluator._pref = diamond, pref
    assert calls <= modal, (calls, modal)
    expected = _first_hit_by_scan(ev, root)
    assert hit == expected
    return expected


def test_a_root_drops_each_mask_after_its_last_reading_entry():
    """One root, the conjunction of 240 tautologies <c>pref(1) phi ->
    <c>pref(1) phi with private modal nodes, over all 2,048 (3,2) models,
    checked on agent 1's view of 512 models: each mask (512 bytes) is
    dropped once the last entry reading it is computed, so the traced
    peak stays near the live set (about 0.09 MiB); keeping every mask of
    the root until it returns peaks at about 0.3 MiB."""
    ev = StackedEvaluator(list(enumerate_models(3, K2)))
    coalitions = ({1}, {2}, {3}, {1, 2}, {1, 2, 3})
    root = conj(
        Implies(Diamond(c, Pref(1, phi)), Diamond(c, Pref(1, phi)))
        for c in coalitions
        for phi in default_pool(3, K2)
    )
    tracemalloc.start()
    try:
        assert ev.first_failure(root) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.15 * 2**20


def _stacks_of_four_kinds(n, outcomes, seed):
    """(stack, its models) for a one-row grid, a multi-row model list, a
    model list over part of the true profiles and a one-model evaluator."""
    profiles = all_profiles(n, outcomes)
    rng = random.Random(seed)
    tables = [ScfTable(n, outcomes, tuple(rng.choice(outcomes) for _ in profiles)) for _ in range(3)]
    one_row = TableGrid(n, outcomes, [tables[0].values])
    rows = [ScfModel(table, truth) for table in tables for truth in profiles]
    part = [ScfModel(table, truth) for table in tables[1:] for truth in profiles[1::3]]
    single = ScfModel(tables[2], profiles[-1])
    return [
        (StackedEvaluator(one_row), list(one_row)),
        (StackedEvaluator(rows), rows),
        (StackedEvaluator(part), part),
        (Evaluator(single), [single]),
    ]


@pytest.mark.parametrize("n, k", [(1, 3), (2, 2), (3, 2), (2, 3)])
def test_replayed_programs_match_the_walk(n, k):
    """A root is lifted to its program on its first call over (n, K), and
    the program kept in the state space's table is run on later calls, on
    any stack over (n, K): on every stack the first-use mask equals the
    kept program's and, block by block, the relational extension, and
    `first_failure` reports that mask's (model, state), the model being
    the caller's object."""
    outcomes = ("a", "b", "c", "d")[:k]
    stacks = _stacks_of_four_kinds(n, outcomes, seed=10 * n + k)
    draw = make_formula_sampler(n, outcomes, seed=53 + n + k)
    sampled = draw(30, max_depth=7)
    formulas = list(sampled)
    if (n, k) == (2, 3):  # the strproof encoding, too big for a relational check
        formulas.append(property_formula(STRPROOF, n, outcomes))
    programs = _stacked._space(n, outcomes).programs
    for f in formulas:
        programs.pop(f, None)
    kept = {}
    for stacked, models in stacks:
        assert stacked.space.programs is programs
        for f in formulas:
            first = stacked.truth_mask(f)
            program = kept.setdefault(f, programs[f])
            assert stacked.truth_mask(f) == first
            hit = stacked.first_failure(f)
            assert programs[f] is program
            bad = stacked.full ^ first
            if not bad:
                assert hit is None
                continue
            model_idx, state_idx = divmod((bad & -bad).bit_length() - 1, stacked.block)
            model, state = hit
            assert state == stacked.space.profiles[state_idx]
            if isinstance(stacked.models, TableGrid):
                assert model == stacked.models[model_idx]
            else:
                assert model is models[model_idx]
        _assert_blocks_follow_kripke(stacked, models, sampled)


def test_a_replay_refuses_what_the_walk_refuses():
    """A formula outside a stack's (n, K), one that names an outcome, an
    agent or a coalition member the stack lacks, is refused by
    `truth_mask` and `first_failure` with, word for word, the
    InvalidDomain of the relational semantics, at the same first fault,
    and no program is kept for it over that (n, K).  The program kept for
    it over (2,{a,b,c}), where it is well formed, is not run on the other
    domains: each (n, K) keeps its own."""
    compiled = StackedEvaluator(sample_models(2, K3, 1, seed=59))
    one_agent = StackedEvaluator(sample_models(1, K3, 1, seed=61))
    two_outcomes = StackedEvaluator(sample_models(2, K2, 1, seed=67))
    three_agents = StackedEvaluator(sample_models(3, K2, 1, seed=71))
    cases = [
        (Out("c"), [two_outcomes, three_agents]),
        (Or(Rep(1, "a", "b"), Not(Out("c"))), [two_outcomes, three_agents]),
        (Rep(2, "a", "c"), [two_outcomes]),
        (Diamond({1}, Rep(2, "a", "b")), [one_agent]),
        (Diamond({2}, Out("a")), [one_agent]),
        (Not(Diamond({1, 2}, Pref(1, TRUE))), [one_agent]),
        (Pref(2, Out("a")), [one_agent]),
        (Or(Pref(1, Out("b")), Pref(2, Out("c"))), [one_agent, two_outcomes]),
        (Or(Out("c"), Pref(2, Out("a"))), [one_agent, two_outcomes]),
    ]
    for f, targets in cases:
        compiled.space.programs.pop(f, None)
        compiled.truth_mask(f)
        program = compiled.space.programs[f]
        for stacked in targets:
            with pytest.raises(InvalidDomain) as relational:
                eval_kripke(kripke_view(stacked.models[0]), 0, f)
            with pytest.raises(InvalidDomain) as masked:
                stacked.truth_mask(f)
            with pytest.raises(InvalidDomain) as checked:
                stacked.first_failure(f)
            assert str(relational.value) == str(masked.value) == str(checked.value)
            assert f not in stacked.space.programs
            assert compiled.space.programs[f] is program


def test_a_root_is_compiled_once(monkeypatch):
    """A root is lifted to its program on its first call over its (n, K)
    only: over two stacks and two tables, `truth_mask` and
    `first_failure` run the program kept from then on, and every mask is,
    block by block, the relational extension; `check_scf_property` runs
    the property's residual program, lifting nothing, and reports the
    formula's failures."""
    lifted = []
    lift = _stacked._Emit.lift

    def counting(self, root):
        lifted.append(root)
        return lift(self, root)

    formula = property_formula(MON, 2, K2)
    tables = [
        ScfTable.from_function(2, K2, lambda p: p.order(1).top),
        ScfTable.from_function(2, K2, lambda p: p.order(1).ranking[-1]),
    ]
    models = sample_models(2, K2, 3, seed=79)
    stacks = [(StackedEvaluator(models), models), (Evaluator(models[-1]), models[-1:])]
    for table in tables:
        grid = TableGrid(2, K2, [table.values])
        stacks.append((StackedEvaluator(grid), list(grid)))
    _stacked._space(2, K2).programs.pop(formula, None)
    monkeypatch.setattr(_stacked._Emit, "lift", counting)
    hits = []
    for stacked, listed in stacks:
        mask = stacked.truth_mask(formula)
        _assert_blocks_follow_kripke(stacked, listed, [formula])
        hits.append(stacked.first_failure(formula))
        assert (hits[-1] is None) == (mask == stacked.full)
    for table, hit in zip(tables, hits[2:]):
        verdict = decision.check_scf_property(table, MON)
        assert verdict.counterexample == hit
    assert hits[2] is None and hits[3] is not None
    assert lifted == [formula]


def _with_not_chains(formula, rng):
    """`formula` rebuilt with a chain of 0-3 `Not`s around every child and
    around the root, drawn afresh for each parent of a shared node."""

    def wrap(node):
        for _ in range(rng.randrange(4)):
            node = Not(node)
        return node

    built = {}
    for node in formula.subformulas():
        kind = type(node)
        if kind is Or:
            built[node] = Or(wrap(built[node.left]), wrap(built[node.right]))
        elif kind is Not:
            built[node] = Not(wrap(built[node.child]))
        elif kind is Diamond:
            built[node] = Diamond(node.coalition, wrap(built[node.child]))
        elif kind is Pref:
            built[node] = Pref(node.agent, wrap(built[node.child]))
        else:
            built[node] = node
    return wrap(built[formula])


@pytest.mark.parametrize("n, k", [(1, 3), (2, 2), (3, 2), (2, 3)])
def test_complement_edges_match_kripke(n, k):
    """A `Not` has no program entry: its parent reads the child complemented.
    Seeded formulas with `Not` chains of depth 0-3 around every child, and
    `Not` roots, Or(x, ~x), Or(~x, ~x) and ~ under <C> and pref(i), give
    the relational extension on every stack kind, and `first_failure`
    answers as the full-width mask does, computing each modal node once."""
    outcomes = ("a", "b", "c", "d")[:k]
    rng = random.Random(101 * n + k)
    draw = make_formula_sampler(n, outcomes, seed=89 + 7 * n + k)
    x = Or(Diamond({n}, Out(outcomes[-1])), Rep(1, outcomes[0], outcomes[-1]))
    formulas = [
        Not(x),
        Not(Not(x)),
        Or(x, Not(x)),
        Or(Not(x), x),
        Or(Not(x), Not(x)),
        Or(Not(Not(x)), Not(Not(Not(x)))),
        Diamond({1}, Not(x)),
        Not(Diamond({1}, Not(Not(Not(x))))),
        Pref(n, Not(x)),
        Not(Pref(1, Not(Not(x)))),
        Not(Top()),
    ] + [_with_not_chains(f, rng) for f in draw(25, max_depth=6)]
    for stacked, models in _stacks_of_four_kinds(n, outcomes, seed=13 * n + k):
        _assert_blocks_follow_kripke(stacked, models, formulas)
    models = sample_models(n, outcomes, 4, seed=n + k)
    for f in formulas:
        _scan_and_count(models, f)


def test_a_not_chain_above_the_root_is_the_program_parity():
    """A root under k `Not`s is lifted to the entries of the root below the
    chain, with parity k mod 2, and no entry of its own: its mask is that
    root's mask, or its complement."""
    stacked = StackedEvaluator(sample_models(2, K2, 4, seed=5))
    base = Or(Not(Pref(2, Out("a"))), Diamond({1}, Rep(2, "b", "a")))
    mask = stacked.truth_mask(base)
    ops, args, keys, odd = stacked.space.programs[base]
    assert odd == 0 and 0 < mask < stacked.full
    root = base
    for k in range(4):
        assert stacked.truth_mask(root) == (stacked.full ^ mask if k % 2 else mask)
        assert stacked.space.programs[root] == (ops, args, keys, k % 2)
        root = Not(root)


def test_programs_die_with_their_roots():
    """A program holds no node: once a root evaluated alone on two stacks
    is dropped, it is collected and its (n, K)'s program table is back to
    its size, for a root with children and for an atom root alike."""
    outcomes = ("p", "q")
    stacked = StackedEvaluator(sample_models(2, outcomes, 1, seed=73))
    one = Evaluator(stacked.models[1])
    programs = stacked.space.programs
    assert one.space.programs is programs

    def evaluate_and_drop(make):
        node = make()
        stacked.truth_mask(node)
        stacked.first_failure(node)
        one.truth_mask(node)
        assert node in programs
        return weakref.ref(node)

    for make in (lambda: Pref(1, Diamond({2}, Not(Rep(2, "q", "p")))), lambda: Out("q")):
        gc.collect()
        before = len(programs)
        ref = evaluate_and_drop(make)
        gc.collect()
        assert ref() is None
        assert len(programs) == before


def test_read_sets_follow_the_atoms_and_modalities():
    """Bit 0 of `reads` marks an outcome atom, bit i a pref(i); the flag
    `state_determined` is `reads == 0`.  An agent no model has gets the
    shared bit 64, and builds no huge int."""
    rep = Rep(1, "a", "b")
    cases = [
        (TRUE, 0),
        (rep, 0),
        (Diamond({1, 2}, Not(rep)), 0),
        (Out("a"), 1),
        (Or(rep, Diamond({2}, Out("b"))), 1),
        (Pref(2, rep), 1 << 2),
        (Pref(2, Out("a")), 1 << 2 | 1),
        (Not(Or(Pref(1, rep), Diamond({3}, Pref(3, TRUE)))), 1 << 1 | 1 << 3),
        (And(Pref(3, Pref(1, Out("c"))), rep), 1 << 3 | 1 << 1 | 1),
        (Pref(63, TRUE), 1 << 63),
    ]
    for formula, reads in cases:
        assert formula.reads == reads, formula
        assert formula.state_determined is (reads == 0)
    for agent in (0, -1, 64, 10**9, "x"):
        assert Pref(agent, rep).reads == 1 << 64
    # a pref node's own agent bit, however deep it sits
    draw = make_formula_sampler(3, K2, seed=83)
    for f in draw(60, max_depth=7):
        agents = {node.agent for node in f.subformulas() if type(node) is Pref}
        outs = any(type(node) is Out for node in f.subformulas())
        assert f.reads == sum(1 << i for i in agents) | outs


def _narrowing_stacks(n, outcomes, seed):
    """(stack, its models, rows, truths per row) for a multi-row grid over
    every truth, the same rows as a model list, a grid over part of the
    truths, a model list over part of the truths, a one-row grid and a
    one-model evaluator."""
    profiles = all_profiles(n, outcomes)
    rng = random.Random(seed)
    rows = [tuple(rng.choice(outcomes) for _ in profiles) for _ in range(3)]
    part = profiles[1::3]
    grids = [
        TableGrid(n, outcomes, rows),
        TableGrid(n, outcomes, rows, part),
        TableGrid(n, outcomes, rows[1:2]),
    ]
    lists = [
        [ScfModel(ScfTable(n, outcomes, row), truth) for row in rows for truth in profiles],
        [ScfModel(ScfTable(n, outcomes, row), truth) for row in rows for truth in part],
        [ScfModel(ScfTable(n, outcomes, rows[2]), profiles[-1])],
    ]
    return [(StackedEvaluator(grid), grid) for grid in grids] + [
        (StackedEvaluator(models), models) for models in lists
    ]


def _one_agent(formula):
    """The agent whose true preference `formula` reads, if it reads one."""
    agents = formula.reads >> 1
    return agents.bit_length() if agents and not agents & agents - 1 else None


def _read_sets(n):
    """Every read-set shape over n agents: empty, outcome atoms alone, and
    each set of agents with and without them, and an agent past n."""
    agent_sets = [
        sum(1 << i for i in c) for size in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), size)
    ]
    return [0, 1] + [bits | out for bits in agent_sets for out in (0, 1)] + [1 << n + 1]


@pytest.mark.parametrize("n, k", [(1, 3), (2, 2), (3, 2), (2, 3)])
def test_first_failure_at_the_width_its_roots_read(n, k):
    """A formula is checked on the grid its read-set narrows to: the first
    model alone if state-determined, the first truth of each row if it
    reads no true preference, and the first truth of each ranking of the
    one agent whose preference it reads.  The answer is the full-width
    mask's lowest falsified bit: the same state, and the same model, the
    caller's own object for a model list.  Sampled formulas and
    tautologies, over grids, model lists and partial truth sequences."""
    outcomes = ("a", "b", "c")[:k]
    draw = make_formula_sampler(n, outcomes, seed=89 + 10 * n + k)
    sampled = draw(400, max_depth=6)
    determined = [f for f in sampled if f.reads == 0][:12]
    pref_free = [f for f in sampled if f.reads == 1][:12]
    one_agent = [f for f in sampled if _one_agent(f)][:12]
    reading = [f for f in sampled if f.reads > 1 and not _one_agent(f)][:4] or one_agent[:1]
    assert len(determined) >= 6 and len(pref_free) >= 6 and len(one_agent) >= 6
    assert {_one_agent(f) for f in one_agent} == set(range(1, n + 1))
    roots = determined + pref_free + one_agent + reading
    roots += [Or(f, Not(f)) for f in determined + pref_free + one_agent]
    verdicts = set()
    for stacked, models in _narrowing_stacks(n, outcomes, seed=97 + n + k):
        for root in roots:
            expected = _first_hit_by_scan(stacked, root)
            hit = stacked.first_failure(root)
            if _one_agent(root):
                verdicts.add(expected is None)
            if expected is None:
                assert hit is None
                continue
            assert hit is not None and hit[1] == expected[1]
            if isinstance(models, TableGrid):
                assert hit[0] == expected[0]
            else:
                assert hit[0] is expected[0]
            # the full grid's first failing bit, mapped through `_locate`
            assert stacked._locate(stacked, stacked.full ^ stacked.truth_mask(root)) == hit
        # the narrowed grids keep the first truth of each class, in order
        grid = stacked.grid
        for reads in _read_sets(n):
            narrow = grid.narrowed(reads)
            blocks = narrowed_width(grid, reads)
            assert len(narrow) == blocks and narrow.narrowed(reads) is narrow
            assert StackedEvaluator(narrow).full.bit_length() == blocks * stacked.block
            assert (narrow is grid) == (blocks == len(grid))
            view = stacked._view(reads)
            assert (view is stacked) == (narrow is grid)
            assert view.grid.kept == narrow.kept and len(view.grid) == blocks
            if narrow is grid:
                continue
            agents = [i - 1 for i in range(1, n + 1) if reads >> i & 1]
            first = {}
            for t, truth in enumerate(grid.truths):
                first.setdefault(tuple(truth.orders[i] for i in agents), t)
            assert narrow.kept == tuple(first.values())
            assert list(narrow.truths) == [grid.truths[t] for t in narrow.kept]
            assert narrow.rows == (grid.rows if reads else grid.rows[:1])
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (2, 3)])
def test_one_agent_read_sets_keep_one_truth_per_ranking(n, k):
    """A read-set naming one agent keeps, in every row, the first truth of
    each ranking of that agent: |K|! truths, the profiles whose other
    agents hold the first ranking, each ranking once.  The view of the
    evaluator is built once per shape (rows kept or not, agents kept), and
    a read-set naming every agent, or one past n, keeps the grid itself."""
    outcomes = ("a", "b", "c")[:k]
    profiles = all_profiles(n, outcomes)
    rng = random.Random(10 * n + k)
    rows = [tuple(rng.choice(outcomes) for _ in profiles) for _ in range(3)]
    grid = TableGrid(n, outcomes, rows)
    stacked = StackedEvaluator(grid)
    rankings = list(all_linear_orders(outcomes))
    for agent in range(1, n + 1):
        kept = tuple(
            t for t, truth in enumerate(profiles)
            if all(order == profiles[0].orders[j] for j, order in enumerate(truth.orders) if j != agent - 1)
        )
        assert len(kept) == math.factorial(k)
        assert [profiles[t].orders[agent - 1] for t in kept] == rankings
        for reads in (1 << agent, 1 << agent | 1):
            narrow = grid.narrowed(reads)
            assert narrow.kept == kept and narrow.rows is grid.rows
            assert len(narrow) == len(rows) * math.factorial(k)
            view = stacked._view(reads)
            assert view.grid.kept == kept and view.grid.keeps == 1 << agent | 1
        assert stacked._view(1 << agent) is stacked._view(1 << agent | 1)
    assert sorted(stacked._views) == [1 << agent | 1 for agent in range(1, n + 1)]
    every = (2 << n) - 2
    for reads in (every, every | 1, 1 << n + 1, logic._OTHER_AGENT | 1 << 1):
        assert grid.narrowed(reads) is grid and stacked._view(reads) is stacked


def test_narrowed_checks_build_no_full_width_masks():
    """A pref-free root is evaluated on the grid `TableGrid.narrowed`
    gives, the first truth of each row, and reports the first model of
    the failing row; a root reading agent 1's true preference on the first
    truth of each of agent 1's rankings.  The full grid's outcome and rank
    masks are built when a full-width evaluation first needs them."""
    grid = TableGrid(2, K3, [("a",) * 36, ("b", "c") * 18])
    stacked = StackedEvaluator(grid)
    narrow = grid.narrowed(1)
    assert narrow.rows == grid.rows and narrow.truths == grid.truths[:1] and narrow.kept == (0,)
    hit = stacked.first_failure(Or(Out("a"), Out("b")))
    assert hit == (grid[36], grid.truths[1])
    assert stacked._out_masks is None and stacked._ranked is None
    # the root reading agent 1 fails at a b-state of the second row under a
    # truth in which agent 1 ranks c over b: acb, agent 1's first such ranking, is
    # truth 6, the first truth of agent 1's second ranking
    assert stacked.first_failure(Pref(1, Rep(1, "a", "b"))) is None
    hit = stacked.first_failure(Implies(Pref(1, Out("c")), Out("c")))
    assert hit == (grid[36 + 6], grid.truths[0])
    one = stacked._views[0b11]
    assert len(one.grid) == 12 and one._ranked is not None
    assert stacked._ranked is None and stacked._out_masks is None
    stacked.first_failure(And(Pref(1, Rep(1, "a", "b")), Pref(2, TRUE)))
    assert stacked._ranked is not None and stacked._out_masks is None
    stacked.truth_mask(Out("a"))
    assert stacked._out_masks is not None


def test_builds_pause_the_collector_and_restore_its_state(monkeypatch):
    """`instantiate`, `soundness_check` and `property_formula` run with
    the collector off and leave it as they found it, on return and on a
    raise: on if it was on, and off for a caller who turned it off."""
    seen = []

    class Pool(list):
        def __iter__(self):
            seen.append(gc.isenabled())
            if self.fail:
                raise RuntimeError("pool")
            return super().__iter__()

    def pool(fail):
        made = Pool([Rep(1, "a", "b")])
        made.fail = fail
        return made

    def instances(fail):
        seen.append(gc.isenabled())
        yield from instantiate("refl", 1, K2, ())
        if fail:
            raise RuntimeError("instances")

    def citsov(s, agent):
        seen.append(gc.isenabled())
        return TRUE

    monkeypatch.setitem(encodings._SCOPED, "citsov", citsov)
    models = list(enumerate_models(1, K2))
    # a domain no other test builds, as the cache keeps the stand-in formula
    domain = (1, ("gc1", "gc2"))
    calls = [
        (lambda: instantiate("T(i)", 1, K2, pool(False)), None),
        (lambda: instantiate("T(i)", 1, K2, pool(True)), RuntimeError),
        (lambda: axioms.soundness_check(instances(False), models), None),
        (lambda: axioms.soundness_check(instances(True), models), RuntimeError),
        (lambda: axioms.soundness_check([], []), ValueError),
        (lambda: property_formula(encodings.CITSOV, *domain), None),
        (lambda: property_formula(encodings.BR(3), *domain), InvalidDomain),
    ]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call, error in calls:
                if error is None:
                    call()
                else:
                    with pytest.raises(error):
                        call()
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(seen) == 9 and not any(seen)
