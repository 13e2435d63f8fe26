import itertools
import random

import pytest

from scflogic import (
    Evaluator,
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfModel,
    ScfTable,
    all_profiles,
    check_scf_property,
    enumerate_models,
    is_strategy_proof,
    representative_model,
    sample_models,
    valid_in_model,
    valid_state_formula,
)
from scflogic.encodings import (
    BR,
    CITSOV,
    DOM,
    MON,
    NODICT,
    STRPROOF,
    PropertyId,
    ballot_agent,
    ballot_profile,
    best_response,
    better,
    better_holds,
    citsov,
    dom,
    mon,
    nodict,
    property_formula,
    rho,
    strproof,
    trueprofile,
    trueprofile_holds,
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
)

from conftest import K2, K3, profile


def _split_and(formula):
    # And(a, b) == Not(Or(Not(a), Not(b)))
    if (
        type(formula) is Not
        and type(formula.child) is Or
        and type(formula.child.left) is Not
        and type(formula.child.right) is Not
    ):
        return formula.child.left.child, formula.child.right.child
    return None


def _conjuncts(formula):
    """Flatten the left-associated top-level And chain built by conj()."""
    parts = _split_and(formula)
    if parts is None:
        return [formula]
    return _conjuncts(parts[0]) + [parts[1]]


def _atoms_of_conjunction(formula):
    """Fully flatten nested conjunctions down to non-And leaves."""
    parts = _split_and(formula)
    if parts is None:
        return [formula]
    return _atoms_of_conjunction(parts[0]) + _atoms_of_conjunction(parts[1])


def test_ballot_agent_examples():
    assert ballot_agent(1, LinearOrder(("a", "c", "b"))) == And(
        Rep(1, "a", "c"), Rep(1, "c", "b")
    )
    assert ballot_agent(2, LinearOrder(("c", "a", "b"))) == And(
        Rep(2, "c", "a"), Rep(2, "a", "b")
    )
    assert ballot_agent(1, LinearOrder(("a",))) == TRUE


def test_ballot_profile_examples():
    ex = profile(("a", "c", "b"), ("c", "a", "b"))
    assert _atoms_of_conjunction(ballot_profile(ex)) == [
        Rep(1, "a", "c"),
        Rep(1, "c", "b"),
        Rep(2, "c", "a"),
        Rep(2, "a", "b"),
    ]
    single = Profile((LinearOrder(("a", "b")),))
    assert ballot_profile(single) == ballot_agent(1, LinearOrder(("a", "b")))


def test_ballot_profile_pins_one_state():
    ev = Evaluator(representative_model(2, K3))
    for p in all_profiles(2, K3):
        mask = ev.truth_mask(ballot_profile(p))
        assert mask.bit_count() == 1
        assert ev.holds(p, ballot_profile(p))


def test_example_ballot_biconditional_18_literals():
    lhs = ballot_profile(profile(("a", "c", "b"), ("c", "a", "b")))
    pos = [
        (1, "a", "a"), (1, "b", "b"), (1, "c", "c"),
        (1, "a", "c"), (1, "c", "b"), (1, "a", "b"),
        (2, "a", "a"), (2, "b", "b"), (2, "c", "c"),
        (2, "c", "a"), (2, "a", "b"), (2, "c", "b"),
    ]
    neg = [
        (1, "c", "a"), (1, "b", "c"), (1, "b", "a"),
        (2, "a", "c"), (2, "b", "a"), (2, "b", "c"),
    ]
    literals = [Rep(*t) for t in pos] + [Not(Rep(*t)) for t in neg]
    assert len(literals) == 18
    from scflogic.logic import conj

    verdict = valid_state_formula(2, K3, Iff(lhs, conj(literals)))
    assert verdict.status == "valid"


def test_better_vacuous_and_ordered(h_table):
    # both outcomes feasible, truth ranks b over a: every b-state beats every a-state
    truth = profile(("b", "a"), ("b", "a"))
    model = ScfModel(h_table, truth)
    ok, _ = valid_in_model(model, better(2, K2, 1, Out("a"), Out("b")))
    assert ok
    ok, _ = valid_in_model(model, better(2, K2, 1, Out("b"), Out("a")))
    assert not ok
    # lo = false makes the inner implication vacuous
    for m in (model, representative_model(2, K2)):
        ok, _ = valid_in_model(m, better(2, K2, 1, FALSE, Out("a")))
        assert ok


def test_better_infeasible_vacuity_k3():
    table = ScfTable.from_function(2, K3, lambda p: "a" if p.order(1).top == "a" else "b")
    model = ScfModel(table, all_profiles(2, K3)[0])
    for agent in (1, 2):
        for x in K3:
            ok, _ = valid_in_model(model, better(2, K3, agent, Out(x), Out("c")))
            assert ok
            ok, _ = valid_in_model(model, better(2, K3, agent, Out("c"), Out(x)))
            assert ok


def test_trueprofile_single_link_structure():
    p = Profile((LinearOrder(("a", "b")),))
    assert trueprofile(p, K2) == better(1, K2, 1, Out("b"), Out("a"))


def test_trueprofile_identifies_truth_when_all_feasible(h_table):
    for truth in all_profiles(2, K2):
        model = ScfModel(h_table, truth)
        for p in all_profiles(2, K2):
            ok, _ = valid_in_model(model, trueprofile(p, K2))
            assert ok == (p == truth)


def test_trueprofile_blind_to_infeasible_outcomes():
    table = ScfTable.from_function(2, K3, lambda p: "a" if p.order(1).top == "a" else "b")
    truth = all_profiles(2, K3)[0]  # ([a,b,c],[a,b,c])
    model = ScfModel(table, truth)
    holding = [p for p in all_profiles(2, K3) if trueprofile_holds(model, p)]
    assert truth in holding
    # c is infeasible, so only a above b is pinned: 3 such orders per agent
    assert len(holding) == 9
    assert all(p.order(i).at_least_as_good("a", "b") for p in holding for i in (1, 2))


def test_trueprofile_links_every_ordered_pair():
    p = Profile((LinearOrder(("a", "c", "b")),))
    assert _conjuncts(trueprofile(p, K3)) == [
        better(1, K3, 1, Out("b"), Out("c")),
        better(1, K3, 1, Out("b"), Out("a")),
        better(1, K3, 1, Out("c"), Out("a")),
    ]


def test_trueprofile_orders_feasible_outcomes_around_an_infeasible_one():
    # b exactly when every agent reports b above a: strategy-proof, range {a, b}
    table = ScfTable.from_function(
        2, K3, lambda p: "b" if all(o.at_least_as_good("b", "a") for o in p.orders) else "a"
    )
    assert table.feasible_outcomes() == {"a", "b"}
    assert is_strategy_proof(table)
    assert check_scf_property(table, STRPROOF).status == "valid"
    for truth in all_profiles(2, K3):
        model = ScfModel(table, truth)
        ev = Evaluator(model)
        for p in all_profiles(2, K3):
            agrees = all(
                p.order(i).at_least_as_good("a", "b") == truth.order(i).at_least_as_good("a", "b")
                for i in (1, 2)
            )
            assert trueprofile_holds(model, p) == agrees
            assert ev.valid(trueprofile(p, K3)) == agrees


def _partial_range_tables(n, outcomes, rng):
    """Strategy-proof tables of every range (each agent's favourite within
    a subset, unanimity against a default) and seeded random ones."""
    tables = []
    for size in range(1, len(outcomes) + 1):
        for subset in itertools.combinations(outcomes, size):
            for agent in range(1, n + 1):
                tables.append(
                    ScfTable.from_function(
                        n,
                        outcomes,
                        lambda p, s=subset, i=agent: min(s, key=p.order(i).rank),
                    )
                )
    for x, y in itertools.permutations(outcomes, 2):
        tables.append(
            ScfTable.from_function(
                n,
                outcomes,
                lambda p, x=x, y=y: x if all(o.at_least_as_good(x, y) for o in p.orders) else y,
            )
        )
    for _ in range(10):
        feasible = rng.sample(outcomes, rng.randint(1, len(outcomes)))
        tables.append(
            ScfTable(n, outcomes, [rng.choice(feasible) for _ in all_profiles(n, outcomes)])
        )
    return tables


def test_strproof_matches_oracle_on_partial_range_tables():
    rng = random.Random(41)
    for n, outcomes in ((2, K3), (1, K3), (1, ("a", "b", "c", "d"))):
        verdicts = set()
        for table in _partial_range_tables(n, outcomes, rng):
            encoded = check_scf_property(table, STRPROOF).status == "valid"
            assert encoded == is_strategy_proof(table), (n, table.values)
            verdicts.add(encoded)
        assert verdicts == {True, False}


def test_fast_paths_match_expansions():
    for model in enumerate_models(2, K2):
        ev = Evaluator(model)
        for agent in (1, 2):
            for lo in K2:
                for hi in K2:
                    assert ev.valid(better(2, K2, agent, Out(lo), Out(hi))) == better_holds(
                        model, agent, lo, hi
                    )
        for p in model.states:
            assert ev.valid(trueprofile(p, K2)) == trueprofile_holds(model, p)
    for model in sample_models(2, K3, 4, seed=9):
        ev = Evaluator(model)
        for agent in (1, 2):
            for lo in K3:
                for hi in K3:
                    assert ev.valid(better(2, K3, agent, Out(lo), Out(hi))) == better_holds(
                        model, agent, lo, hi
                    )


def test_rho_valid_exactly_on_matching_models(h_table, j_table, p_table):
    for table in (h_table, j_table, p_table):
        diamond = rho(table, "diamond")
        implication = rho(table, "implication")
        for model in enumerate_models(2, K2):
            ev = Evaluator(model)
            matches = model.table.values == table.values
            assert ev.valid(diamond) == matches
            assert ev.valid(implication) == matches


def test_rho_compact_forms(h_table, j_table, p_table):
    compacts = {
        h_table: Iff(Out("b"), And(Rep(1, "b", "a"), Rep(2, "b", "a"))),
        j_table: Iff(Out("a"), Rep(1, "a", "b")),
        p_table: Out("a"),
    }
    for table, compact in compacts.items():
        implication = rho(table, "implication")
        for model in enumerate_models(2, K2):
            ok, _ = valid_in_model(model, Iff(implication, compact))
            assert ok


def test_rho_rejects_unknown_form(h_table):
    with pytest.raises(ValueError):
        rho(h_table, "boxed")


def test_citsov_shape():
    assert citsov(2, K2) == And(
        Diamond({1, 2}, Out("a")), Diamond({1, 2}, Out("b"))
    )


def test_dom_shape():
    assert dom(2, K2) == And(
        Box({2}, best_response(1, 2, K2)), Box({1}, best_response(2, 2, K2))
    )


def test_best_response_shape():
    assert best_response(1, 2, K2) == Or(
        And(Out("a"), Box({1}, Pref(1, Out("a")))),
        And(Out("b"), Box({1}, Pref(1, Out("b")))),
    )


def test_mon_outer_instance_count():
    assert len(_conjuncts(mon(2, K2))) == 4 * 4 * 2
    assert len(_conjuncts(strproof(2, K2))) == 4
    assert len(_conjuncts(nodict(2, K2))) == 2


def test_builders_return_shared_nodes():
    p = all_profiles(2, K3)[7]
    assert ballot_profile(p) is ballot_profile(p)
    assert better(2, K3, 1, Out("a"), Out("b")) is better(2, list(K3), 1, Out("a"), Out("b"))
    assert property_formula(STRPROOF, 2, list(K3)) is property_formula(STRPROOF, 2, K3)
    # every trueprofile link at (2,3) is one of n*|K|*(|K|-1) = 12 shared nodes
    links = {
        id(better(2, K3, agent, Out(lo), Out(hi)))
        for agent in (1, 2)
        for lo in K3
        for hi in K3
        if lo != hi
    }
    assert len(links) == 12
    for q in all_profiles(2, K3):
        assert {id(part) for part in _conjuncts(trueprofile(q, K3))} <= links


def test_property_formula_dispatch():
    assert property_formula(CITSOV, 2, K2) == citsov(2, K2)
    assert property_formula(NODICT, 2, K2) == nodict(2, K2)
    assert property_formula(DOM, 2, K2) == dom(2, K2)
    assert property_formula(MON, 2, K2) == mon(2, K2)
    assert property_formula(STRPROOF, 2, K2) == strproof(2, K2)
    assert property_formula(BR(2), 2, K2) == best_response(2, 2, K2)


def test_property_id_validation():
    with pytest.raises(ValueError):
        PropertyId("sovereign")
    with pytest.raises(ValueError):
        PropertyId("br")  # br needs an agent
    with pytest.raises(ValueError):
        PropertyId("mon", agent=1)
    assert str(BR(1)) == "br(1)"
    assert str(MON) == "mon"


def test_better_validates_domain(h_table):
    model = ScfModel(h_table, profile(("a", "b"), ("a", "b")))
    with pytest.raises(InvalidDomain):
        better_holds(model, 5, "a", "b")
    with pytest.raises(InvalidDomain):
        better_holds(model, 1, "z", "b")
    with pytest.raises(InvalidDomain):
        better(2, K2, 3, Out("a"), Out("b"))
