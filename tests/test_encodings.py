import gc
import hashlib
import itertools
import math
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
    evaluate,
    is_strategy_proof,
    representative_model,
    sample_models,
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
    PropertyId,
    ballot_agent,
    ballot_profile,
    best_response,
    better,
    citsov,
    dom,
    mon,
    nodict,
    property_formula,
    rho,
    strproof,
    trueprofile,
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
from scflogic import axioms, encodings
from scflogic._stacked import StackedEvaluator, TableGrid, _Direct, _Tiled
from scflogic.parser import format_formula

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
    model = representative_model(2, K3)
    ev = Evaluator(model)
    for p in all_profiles(2, K3):
        mask = ev.truth_mask(ballot_profile(p))
        assert mask.bit_count() == 1
        assert evaluate(model, p, ballot_profile(p))


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

    verdict = valid(2, K3, Iff(lhs, conj(literals)))
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
    holding = [p for p in all_profiles(2, K3) if valid_in_model(model, trueprofile(p, K3))[0]]
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
    # one stack of the 36 (table, truth) models, one truth mask per formula
    truths = all_profiles(2, K3)
    ev = StackedEvaluator([ScfModel(table, truth) for truth in truths])
    for p in all_profiles(2, K3):
        mask = ev.truth_mask(trueprofile(p, K3))
        for m, truth in enumerate(truths):
            agrees = all(
                p.order(i).at_least_as_good("a", "b") == truth.order(i).at_least_as_good("a", "b")
                for i in (1, 2)
            )
            valid_here = mask >> (m * ev.block) & ev.block_ones == ev.block_ones
            assert valid_here == agrees


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


def _better_by_definition(model, agent, lo, hi):
    """better(agent, lo, hi) read off its definition: true when lo or hi is
    infeasible, otherwise whether the true order ranks hi at least as high
    as lo."""
    feasible = model.table.feasible_outcomes()
    if lo not in feasible or hi not in feasible:
        return True
    return model.true_order(agent).at_least_as_good(hi, lo)


def test_fast_paths_match_expansions():
    for model in enumerate_models(2, K2):
        for agent in (1, 2):
            for lo in K2:
                for hi in K2:
                    assert valid_in_model(
                        model, better(2, K2, agent, Out(lo), Out(hi))
                    )[0] == _better_by_definition(model, agent, lo, hi)
        for p in model.states:
            # every outcome globally better than each one ranked below it
            links = all(
                _better_by_definition(model, agent, order.ranking[k], order.ranking[j])
                for agent, order in enumerate(p.orders, start=1)
                for k in range(len(order.ranking))
                for j in range(k)
            )
            assert valid_in_model(model, trueprofile(p, K2))[0] == links
    for model in sample_models(2, K3, 4, seed=9):
        for agent in (1, 2):
            for lo in K3:
                for hi in K3:
                    assert valid_in_model(
                        model, better(2, K3, agent, Out(lo), Out(hi))
                    )[0] == _better_by_definition(model, agent, lo, hi)


def test_rho_valid_exactly_on_matching_models(h_table, j_table, p_table):
    for table in (h_table, j_table, p_table):
        diamond = rho(table, "diamond")
        implication = rho(table, "implication")
        for model in enumerate_models(2, K2):
            matches = model.table.values == table.values
            assert valid_in_model(model, diamond)[0] == matches
            assert valid_in_model(model, implication)[0] == matches


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


def test_better_validates_domain():
    with pytest.raises(InvalidDomain):
        better(2, K2, 3, Out("a"), Out("b"))


def _all_properties(n):
    return [PropertyId(kind, None) for kind in PropertyId.KINDS if kind != "br"] + [
        BR(i) for i in range(1, n + 1)
    ]


def _seeded_table(n, outcomes, seed):
    rng = random.Random(seed)
    return ScfTable(n, outcomes, [rng.choice(outcomes) for _ in all_profiles(n, outcomes)])


def _pinned_formulas(n, outcomes, seed):
    """(label, formula) of every property, both rho forms of one seeded
    table, the true profiles of the first and last profile and every
    better(i, out(x), out(y)) over (n, K)."""
    for prop in _all_properties(n):
        yield str(prop), property_formula(prop, n, outcomes)
    table = _seeded_table(n, outcomes, seed)
    for form in ("diamond", "implication"):
        yield f"rho {form}", rho(table, form)
    profiles = all_profiles(n, outcomes)
    for at in (0, -1):
        yield f"trueprofile {at}", trueprofile(profiles[at], outcomes)
    for i, x, y in itertools.product(range(1, n + 1), outcomes, outcomes):
        yield f"better {i} {x} {y}", better(n, outcomes, i, Out(x), Out(y))


# sha256 prefixes of `format_formula` of each `_pinned_formulas` entry at
# (n, K, seed of the rho table); the builders must keep returning these
ENCODING_DIGESTS = {
    (2, "ab", "citsov"): "4cb80bd24f095664",
    (2, "ab", "nodict"): "3e9df36dfed20eab",
    (2, "ab", "dom"): "eb1fb89d32b06d21",
    (2, "ab", "mon"): "ab19c37e75210595",
    (2, "ab", "strproof"): "8b531f5c9fad372a",
    (2, "ab", "br(1)"): "b9fa4588af2c23e0",
    (2, "ab", "br(2)"): "42665f7d48680443",
    (2, "ab", "rho diamond"): "3ff524d6efc23160",
    (2, "ab", "rho implication"): "ec33996bda9a2cd8",
    (2, "ab", "trueprofile 0"): "6ae68a3fbdb38575",
    (2, "ab", "trueprofile -1"): "2f4bbcc82fb57ad7",
    (2, "ab", "better 1 a a"): "465ae2a2728b0243",
    (2, "ab", "better 1 a b"): "3bb947f64835f5cf",
    (2, "ab", "better 1 b a"): "d29eb459ede165e9",
    (2, "ab", "better 1 b b"): "eef7b93932134422",
    (2, "ab", "better 2 a a"): "aa71f8086c5fb793",
    (2, "ab", "better 2 a b"): "78c70e1884478138",
    (2, "ab", "better 2 b a"): "036a58fe7db423b8",
    (2, "ab", "better 2 b b"): "e04b159e6db25716",
    (1, "abc", "citsov"): "4ed8109a66db6674",
    (1, "abc", "nodict"): "cddf6faca68c1ab2",
    (1, "abc", "dom"): "51d37641f2e14f72",
    (1, "abc", "mon"): "089bd1ff62529df1",
    (1, "abc", "strproof"): "b691fcdeecdbef38",
    (1, "abc", "br(1)"): "4e4d896ecc1096e9",
    (1, "abc", "rho diamond"): "79a2c3393d629bc3",
    (1, "abc", "rho implication"): "6ea6be8c872e461d",
    (1, "abc", "trueprofile 0"): "1b94a42402dd000e",
    (1, "abc", "trueprofile -1"): "5d35034908c903b8",
    (1, "abc", "better 1 a a"): "685fac364a923143",
    (1, "abc", "better 1 a b"): "61cc26d93e6d7425",
    (1, "abc", "better 1 a c"): "64942a208514e937",
    (1, "abc", "better 1 b a"): "c8a73db8798e192f",
    (1, "abc", "better 1 b b"): "fe9c065429b1c292",
    (1, "abc", "better 1 b c"): "4ec24863d963b66f",
    (1, "abc", "better 1 c a"): "6c90595882aa51cc",
    (1, "abc", "better 1 c b"): "d8d00df3493dcf05",
    (1, "abc", "better 1 c c"): "5a02b1e48758a307",
    (2, "abc", "citsov"): "4ffde3f16067d63e",
    (2, "abc", "nodict"): "32273f4a184b48ba",
    (2, "abc", "dom"): "36446b77b35a50f9",
    (2, "abc", "mon"): "514ef0b2deb118a9",
    (2, "abc", "strproof"): "b036cde89c6272bd",
    (2, "abc", "br(1)"): "4e4d896ecc1096e9",
    (2, "abc", "br(2)"): "72beed47e0e8c04f",
    (2, "abc", "rho diamond"): "c12949cc052828f7",
    (2, "abc", "rho implication"): "4939cc9e52cfa599",
    (2, "abc", "trueprofile 0"): "f989b948256f0458",
    (2, "abc", "trueprofile -1"): "b0664a8b0eb9c3a8",
    (2, "abc", "better 1 a a"): "c162a08d4f00bf1c",
    (2, "abc", "better 1 a b"): "88dafd8f724528d2",
    (2, "abc", "better 1 a c"): "0672e207ff30893b",
    (2, "abc", "better 1 b a"): "4ea62b2f96869f43",
    (2, "abc", "better 1 b b"): "2cccfdb039a81b26",
    (2, "abc", "better 1 b c"): "eb18e721a1730802",
    (2, "abc", "better 1 c a"): "0acadf576f5d2cab",
    (2, "abc", "better 1 c b"): "9fe6199fc3221069",
    (2, "abc", "better 1 c c"): "d6b99ef4a84778c3",
    (2, "abc", "better 2 a a"): "f618fe6fce9fba18",
    (2, "abc", "better 2 a b"): "8b8ffd1e40db7261",
    (2, "abc", "better 2 a c"): "fda667875f14e4b0",
    (2, "abc", "better 2 b a"): "6419aacea13c399c",
    (2, "abc", "better 2 b b"): "5b8cc346806ededc",
    (2, "abc", "better 2 b c"): "d0855c52aa518096",
    (2, "abc", "better 2 c a"): "ef3b96769da3367d",
    (2, "abc", "better 2 c b"): "0130020f266d5392",
    (2, "abc", "better 2 c c"): "7743635ac1386eea",
}


def test_encodings_match_pinned_digests():
    seen = {}
    for n, names, seed in ((2, "ab", 2201), (1, "abc", 1301), (2, "abc", 2301)):
        for label, formula in _pinned_formulas(n, tuple(names), seed):
            seen[n, names, label] = hashlib.sha256(format_formula(formula).encode()).hexdigest()[:16]
    assert seen == ENCODING_DIGESTS


# each property kind -> its builder against a scope, called with the agent
_SCOPED = {
    "citsov": lambda s, agent: encodings._citsov(s),
    "nodict": lambda s, agent: encodings._nodict(s),
    "dom": lambda s, agent: encodings._dom(s),
    "mon": lambda s, agent: encodings._mon(s),
    "strproof": lambda s, agent: encodings._strproof(s),
    "br": lambda s, agent: encodings._best_response(s, agent),
}


def test_property_builders_evaluate_in_a_direct_scope():
    """Each property builder run in a direct scope on the view of a table's
    one-row grid that its formula's read-set narrows to gives the truth
    mask and read-set of its formula there, and its lowest failing bit,
    mapped back through `_locate`, is `check_scf_property`'s
    counterexample.  citsov, nodict and mon read no true preference and run
    on the first truth alone; br(i) at n = 2 reads agent i's alone and runs
    on the first truth of each of agent i's rankings; dom, strproof and
    br(1) at n = 1 read every agent's and run on every truth: every
    dictatorship, a constant table and seeded tables at
    (2,2), (1,3) and (2,3), mon on one (2,3) table."""
    verdicts = set()
    for n, outcomes, seed in ((2, K2, 21), (1, K3, 13), (2, K3, 23)):
        dictators = [
            ScfTable.from_function(n, outcomes, lambda p, i=i: p.order(i).top)
            for i in range(1, n + 1)
        ]
        constant = ScfTable(n, outcomes, (outcomes[-1],) * len(all_profiles(n, outcomes)))
        seeded = [_seeded_table(n, outcomes, seed * 10 + k) for k in range(3)]
        tables = dictators + [constant] + seeded
        for at, table in enumerate(tables):
            ev = StackedEvaluator(TableGrid(n, outcomes, [table.values]))
            scopes = {}  # view -> its direct scope
            for prop in _all_properties(n):
                if prop == MON and (n, outcomes) == (2, K3) and at:
                    continue
                formula = property_formula(prop, n, outcomes)
                view = ev._view(formula.reads)
                truths = len(ev.grid) if prop.kind in ("dom", "strproof") or n == 1 else math.factorial(len(outcomes))
                assert len(view.grid) == (1 if prop.kind in ("citsov", "nodict", "mon") else truths)
                if view not in scopes:
                    scopes[view] = encodings._Scope(n, outcomes, _Direct(view, view.grid.keeps))
                value = _SCOPED[prop.kind](scopes[view], prop.agent)
                assert (value.mask, value.reads) == (view.truth_mask(formula), formula.reads)
                bad = view.full ^ value.mask
                verdict = check_scf_property(table, prop)
                assert verdict.status == ("invalid" if bad else "valid"), (prop, table.values)
                if bad:
                    assert verdict.counterexample == ev._locate(view, bad), (prop, table.values)
                verdicts.add((prop.kind, bool(bad)))
    assert len(verdicts) == 2 * len(PropertyId.KINDS)


@pytest.mark.parametrize("n, outcomes", [(1, K3), (2, K2), (3, K2), (2, K3)])
def test_a_direct_ballot_is_its_reported_atoms_conjoined(n, outcomes):
    """A direct scope's ballot table holds, for every profile, the tile
    shifted to the profile's state with read-set 0 (`_Direct.Ballot`): the
    value that conjoining its reported atoms in the direct constructors
    builds, and the ballot formula's mask.  On a view the evaluator keeps
    and on that view tiled three times.  A profile over fewer agents, no
    state of the view, is refused, and so is a soundness check of
    instances over fewer agents on these models, before any instance is
    checked.  Each evaluator keeps the reported-atom masks it spreads."""
    rng = random.Random(n * 10 + len(outcomes))
    rows = [tuple(rng.choice(outcomes) for _ in all_profiles(n, outcomes)) for _ in range(4)]
    ev = StackedEvaluator(TableGrid(n, outcomes, rows))
    view = ev._view(1)  # one truth per row
    assert view is not ev and ev._views[ev.grid.shape(1)] is view
    for target in (view, _Tiled(view, 3)):
        direct = _Direct(target, 1)
        scope = encodings._Scope(n, outcomes, direct)
        for index, p in enumerate(all_profiles(n, outcomes)):
            value = scope.ballot[p]
            assert (value.mask, value.reads) == (target.tile << index, 0)
            conjoined = encodings._ballot_profile(direct, p)
            assert (conjoined.mask, conjoined.reads) == (value.mask, 0)
            assert target.truth_mask(ballot_profile(p)) == value.mask
        if n > 1:
            fewer = Profile(all_profiles(n, outcomes)[-1].orders[1:])
            with pytest.raises(InvalidDomain, match="is not a state over"):
                direct.Ballot(fewer)
            instances = axioms.instantiate("antisym'", n - 1, outcomes, axioms.default_pool(n - 1, outcomes))
            with pytest.raises(InvalidDomain, match=f"over n={n - 1}, .* over n={n}, "):
                axioms.soundness_check(instances, ev.grid)
        # the evaluator keeps each reported-atom mask it spreads
        rep = direct.Rep(1, outcomes[-1], outcomes[0]).mask
        assert rep is target._rep(1, outcomes[-1], outcomes[0])
        assert rep == target.space.rep_mask(1, outcomes[-1], outcomes[0]) * target.tile


def test_a_formula_scope_leaves_no_garbage_cycles():
    """Building every property in a fresh formula scope and dropping the
    scope leaves nothing for the cyclic collector: no memo table's build
    refers back to the scope.  The collector stays off in between, so no
    automatic pass can collect a cycle before the count is read."""
    gc.collect()
    gc.disable()
    try:
        for n, outcomes in ((2, K2), (1, K3), (2, K3)):
            scope = encodings._Scope(n, outcomes)
            for prop in _all_properties(n):
                assert _SCOPED[prop.kind](scope, prop.agent) is property_formula(prop, n, outcomes)
            del scope
            assert gc.collect() == 0, (n, outcomes)
    finally:
        gc.enable()
