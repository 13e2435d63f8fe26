import itertools
import random

import pytest

from scflogic import (
    GameForm,
    ImplementationReport,
    InvalidDomain,
    LinearOrder,
    MonotonicityReport,
    NonDirectMechanism,
    Profile,
    ScfModel,
    ScfTable,
    SolutionConcept,
    all_linear_orders,
    all_profiles,
    dom_equilibria,
    equivalence_audit,
    has_citsov,
    implements,
    is_dictatorial,
    is_monotonic,
    is_strategy_proof,
    nash_equilibria,
    property_formula,
    property_oracle,
    scf_as_game_form,
    solution_set,
    truthfully_implements,
    valid_in_model,
)

from scflogic import game as game_mod
from scflogic.decision import check_scf_property
from scflogic.encodings import BR, CITSOV, DOM, MON, NODICT, STRPROOF

from conftest import AB, BA, K2, K3, profile


def test_nash_equilibria_h(h_table):
    game = scf_as_game_form(h_table)
    truth = profile(("b", "a"), ("b", "a"))
    found = nash_equilibria(game, truth)
    assert (AB, AB) in found and (BA, BA) in found
    assert len(found) == 2


def test_nash_equilibria_constant_matrix(g_p_matrix):
    for truth in all_profiles(2, K2):
        assert len(nash_equilibria(g_p_matrix, truth)) == 4


def test_nash_single_agent_single_action():
    table = ScfTable.from_function(1, ("a",), lambda p: "a")
    game = scf_as_game_form(table)
    truth = Profile((LinearOrder(("a",)),))
    assert nash_equilibria(game, truth) == ((LinearOrder(("a",)),),)


def test_dom_equilibria_majority(majority_table):
    game = scf_as_game_form(majority_table)
    truth = profile(("a", "b"), ("a", "b"), ("a", "b"))
    winners = dom_equilibria(game, truth)
    assert (AB, AB, AB) in winners


def test_dom_equilibria_dictator(j_table):
    game = scf_as_game_form(j_table)
    for truth in all_profiles(2, K2):
        winners = dom_equilibria(game, truth)
        # agent 1's only dominant strategy reports its true top first;
        # agent 2 never matters, so either report is dominant
        assert winners == tuple(
            (truth.order(1), other) for other in all_linear_orders(K2)
        )


def test_domeq_subset_of_ne(h_table, j_table, majority_table, inverting_table):
    for table in (h_table, j_table, majority_table, inverting_table):
        game = scf_as_game_form(table)
        for truth in all_profiles(table.agents, K2):
            ne = set(nash_equilibria(game, truth))
            assert set(dom_equilibria(game, truth)) <= ne


def test_implementation_matrix(h_table, j_table, p_table, g_j_minus, g_p_matrix):
    g_h = scf_as_game_form(h_table)
    assert truthfully_implements(g_h, h_table, SolutionConcept.NE).ok
    failure = implements(g_h, h_table, SolutionConcept.NE)
    assert not failure.ok
    assert failure.failure == "wrong_outcome"
    assert failure.profile == profile(("b", "a"), ("b", "a"))
    assert failure.action_profile == (AB, AB)

    g_j = scf_as_game_form(j_table)
    assert implements(g_j, j_table, SolutionConcept.NE).ok
    assert truthfully_implements(g_j, j_table, SolutionConcept.NE).ok

    assert implements(g_j_minus, j_table, SolutionConcept.NE).ok
    # the truthful report is no equilibrium, though two other profiles are
    failure = truthfully_implements(g_j_minus, j_table, SolutionConcept.NE)
    assert not failure.ok
    assert failure.failure == "truth_not_in_solution_set"
    assert failure.profile == profile(("a", "b"), ("a", "b"))
    assert failure.action_profile == (AB, AB)
    assert len(nash_equilibria(g_j_minus, failure.profile)) == 2

    assert not implements(g_p_matrix, p_table, SolutionConcept.NE).ok
    assert not truthfully_implements(g_p_matrix, p_table, SolutionConcept.NE).ok


def test_implements_reports_empty_solution_set():
    # a direct mechanism behaving like matching pennies has no pure Nash
    # equilibrium for opposed preferences
    table = ScfTable(2, K2, ("a", "b", "b", "a"))
    game = scf_as_game_form(table)
    report = implements(game, table, SolutionConcept.NE)
    assert not report.ok
    assert report.failure == "empty_solution_set"
    assert report.action_profile is None
    assert nash_equilibria(game, report.profile) == ()
    truthful = truthfully_implements(game, table, SolutionConcept.NE)
    assert truthful.failure == "empty_solution_set"
    assert nash_equilibria(game, truthful.profile) == ()


def test_truthful_requires_direct_mechanism(h_table):
    orders = all_linear_orders(K2)
    lopsided = GameForm(
        actions=((orders[0],), orders),
        outcomes=K2,
        table={(orders[0], o): "a" for o in orders},
    )
    with pytest.raises(NonDirectMechanism):
        truthfully_implements(lopsided, h_table, SolutionConcept.NE)


def test_strategy_proofness(majority_table, j_table, inverting_table):
    assert is_strategy_proof(majority_table)
    assert is_strategy_proof(j_table)
    assert not is_strategy_proof(inverting_table)


def test_monotonicity(majority_table, p_table, inverting_table):
    assert is_monotonic(majority_table).ok
    assert is_monotonic(p_table).ok
    report = is_monotonic(inverting_table)
    assert not report.ok
    assert report.outcome == inverting_table(report.profile)
    assert inverting_table(report.profile_after) != report.outcome


def test_citsov_and_dictatorship(h_table, j_table, p_table):
    assert has_citsov(h_table)
    assert not has_citsov(p_table)
    assert is_dictatorial(j_table) == (True, 1)
    assert is_dictatorial(h_table) == (False, None)
    assert is_dictatorial(p_table) == (False, None)


def test_equivalence_audit(majority_table, inverting_table):
    good = equivalence_audit(majority_table)
    assert (
        good.truthful_dom
        and good.dom_implement
        and good.monotonic
        and good.strproof_encoding
    )
    assert good.all_agree
    bad = equivalence_audit(inverting_table)
    assert not (
        bad.truthful_dom or bad.dom_implement or bad.monotonic or bad.strproof_encoding
    )
    assert bad.all_agree


def test_equivalences_on_all_two_agent_scfs():
    for values in itertools.product(K2, repeat=4):
        table = ScfTable(2, K2, values)
        direct = scf_as_game_form(table)
        truthful = truthfully_implements(direct, table, SolutionConcept.DOMEQ).ok
        implement = implements(direct, table, SolutionConcept.DOMEQ).ok
        assert truthful == implement == is_strategy_proof(table)
        assert is_monotonic(table).ok == is_strategy_proof(table)


def _property_tables():
    """Every SCF at n = 1..3 over {a,b}, then seeded tables at (2,3); every
    SCF at (1,3) is swept on its own below."""
    for n, outcomes in ((1, K2), (2, K2), (3, K2)):
        count = len(all_profiles(n, outcomes))
        for values in itertools.product(outcomes, repeat=count):
            yield ScfTable(n, outcomes, values)
    rng = random.Random(41)
    for _ in range(3):
        yield ScfTable(2, K3, tuple(rng.choice(K3) for _ in range(36)))


def test_property_oracle_agrees_with_the_encodings():
    for table in _property_tables():
        props = [CITSOV, NODICT, DOM, MON, STRPROOF]
        props += [BR(agent) for agent in range(1, table.agents + 1)]
        for prop in props:
            holds, detail = property_oracle(table, prop)
            assert holds == (check_scf_property(table, prop).status == "valid"), (table, prop)
            assert (detail == "") == holds, (table, prop, detail)


def test_every_one_agent_three_outcome_scf():
    """All 729 SCFs at (1,{a,b,c}): the encoded verdict equals the oracle's
    on each table, and the PASS counts are the closed forms.  citsov holds
    on the 3^6 - 3*2^6 + 3 surjections and nodict on all but the identity;
    dom and br(1) only on the 3 constants; mon and strproof on the 3
    constants and on "the agent's top within a fixed range" for each of the
    4 ranges of two or more outcomes."""
    props = (CITSOV, NODICT, DOM, MON, STRPROOF, BR(1))
    passes = dict.fromkeys(props, 0)
    for values in itertools.product(K3, repeat=6):
        table = ScfTable(1, K3, values)
        for prop in props:
            holds, detail = property_oracle(table, prop)
            assert holds == (check_scf_property(table, prop).status == "valid"), (values, prop)
            assert (detail == "") == holds, (values, prop, detail)
            passes[prop] += holds
    assert passes == {CITSOV: 540, NODICT: 728, DOM: 3, MON: 7, STRPROOF: 7, BR(1): 3}


def _renamed(table, outcome_map, agent_map):
    """The image of `table` under renaming outcome x to outcome_map[x] and
    agent i to agent_map[i]: agent agent_map[i] reports the renamed ranking
    of agent i, and the renamed profile gets the renamed outcome."""

    def rename(profile):
        orders = [None] * profile.n
        for agent, order in enumerate(profile.orders, 1):
            orders[agent_map[agent] - 1] = LinearOrder(tuple(outcome_map[x] for x in order.ranking))
        return Profile(tuple(orders))

    image = {rename(p): outcome_map[table(p)] for p in table.profiles}
    return ScfTable.from_function(table.agents, table.outcomes, image.__getitem__), rename


def _renaming_tables():
    """Per scale (1,3), (2,2), (3,2), (2,3): seeded tables over every
    outcome, seeded tables missing one outcome, and the agent-1
    dictatorship."""
    rng = random.Random(61)
    for n, outcomes in ((1, K3), (2, K2), (3, K2), (2, K3)):
        states = len(all_profiles(n, outcomes))
        for used in (outcomes, outcomes, outcomes[1:], outcomes[:-1]):
            yield ScfTable(n, outcomes, tuple(rng.choice(used) for _ in range(states)))
        yield ScfTable.from_function(n, outcomes, lambda p: p.order(1).top)


def test_verdicts_are_invariant_under_renaming():
    """Renaming outcomes by a permutation pi and agents by a permutation
    sigma maps an SCF to one with the same verdicts, br(i) becoming
    br(sigma(i)), from the encodings and the oracles alike; the image of
    each counterexample falsifies the renamed property in the image model.
    The canonical counterexample itself is not invariant, as the canonical
    order is not.  mon is left out at (2,3), where one check costs about
    0.13 s."""
    for table in _renaming_tables():
        n, outcomes = table.agents, table.outcomes
        props = [CITSOV, NODICT, DOM, STRPROOF] + [BR(agent) for agent in range(1, n + 1)]
        if (n, len(outcomes)) != (2, 3):
            props.append(MON)
        verdicts = {prop: check_scf_property(table, prop) for prop in props}
        for prop, verdict in verdicts.items():
            assert bool(verdict) == property_oracle(table, prop)[0], (table, prop)
        for pi in itertools.permutations(outcomes):
            outcome_map = dict(zip(outcomes, pi))
            for sigma in itertools.permutations(range(1, n + 1)):
                agent_map = dict(zip(range(1, n + 1), sigma))
                image, rename = _renamed(table, outcome_map, agent_map)
                for prop, verdict in verdicts.items():
                    renamed = BR(agent_map[prop.agent]) if prop.kind == "br" else prop
                    seen = check_scf_property(image, renamed)
                    where = (table, pi, sigma, prop)
                    assert seen.status == verdict.status, where
                    assert property_oracle(image, renamed)[0] == bool(verdict), where
                    if verdict:
                        continue
                    model, state = verdict.counterexample
                    moved = ScfModel(image, rename(model.truth))
                    holds, falsified = valid_in_model(moved, property_formula(renamed, n, outcomes))
                    assert not holds and rename(state) in falsified, where


def test_oracles_check_outcome_names_a_fixed_number_of_times(monkeypatch):
    """Outcome names are checked where they enter core, not on every read
    of a table: the br oracle checks them as often at (2,3), with 216
    (state, true ranking) pairs, as at (2,2) with 8."""
    from scflogic import core

    calls = []
    check = core._check_outcomes
    monkeypatch.setattr(core, "_check_outcomes", lambda names: calls.append(1) or check(names))
    counts = []
    for n, outcomes in ((2, K2), (3, K2), (2, K3)):
        table = ScfTable.from_function(n, outcomes, lambda p: p.order(1).top)
        calls.clear()
        assert property_oracle(table, BR(2)) == (True, "")
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def test_deviation_details_name_a_gain_the_table_confirms():
    """The strproof, dom and br details name the first (agent, true ranking,
    state, misreport) of a profitable misreport; rebuilt here from the table
    alone, in the scan's order: agent, true ranking, state, misreport."""
    table = ScfTable.from_function(2, K3, lambda p: p.order(1).ranking[1])
    orders = all_linear_orders(K3)

    def first_gain(agents, truths):
        for agent in agents:
            for truth in truths:
                for state in table.profiles:
                    ranking = truth or state.order(agent)
                    for move in orders:
                        if ranking.strictly_better(table(state.replace(agent, move)), table(state)):
                            return agent, ranking, state, move

    for prop, agents, truths in (
        (STRPROOF, (1, 2), (None,)),
        (DOM, (1, 2), orders),
        (BR(1), (1,), orders),
    ):
        agent, ranking, state, move = first_gain(agents, truths)
        assert property_oracle(table, prop) == (
            False,
            f"agent {agent} with true ranking {ranking} gains by reporting {move} at {state}",
        )
    # at the first state agent 1 gets b, its second choice; ranking b first gets it a
    assert property_oracle(table, STRPROOF)[1] == (
        "agent 1 with true ranking [a,b,c] gains by reporting [b,a,c] at ([a,b,c],[a,b,c])"
    )
    assert property_oracle(table, BR(2)) == (True, "")


# The oracle scans as they were written straight from the definitions, on
# profiles and `LinearOrder.rank`; the index scans of `game` must give the
# same answers, failure tuples included.


def _reference_dom_equilibria(game, truth):
    game_mod._check_truth(game, truth)
    dominant: list[list] = []
    for agent in range(1, game.n + 1):
        order = truth.order(agent)
        others = [game.actions[j] for j in range(game.n) if j != agent - 1]
        keep = []
        for act in game.actions[agent - 1]:
            ok = True
            for rest in itertools.product(*others):
                base = rest[: agent - 1] + (act,) + rest[agent - 1 :]
                value = game.outcome(base)
                for alt in game.actions[agent - 1]:
                    other = rest[: agent - 1] + (alt,) + rest[agent - 1 :]
                    if order.strictly_better(game.outcome(other), value):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                keep.append(act)
        dominant.append(keep)
    return tuple(itertools.product(*dominant))


def _reference_solution_set(game, truth, concept):
    if concept is SolutionConcept.NE:
        return nash_equilibria(game, truth)
    return _reference_dom_equilibria(game, truth)


def _reference_implements(game, table, concept):
    if game.n != table.agents or set(game.outcomes) != set(table.outcomes):
        raise InvalidDomain("game form and SCF must share agents and outcomes")
    for profile in table.profiles:
        answers = _reference_solution_set(game, profile, concept)
        if not answers:
            return ImplementationReport(False, "empty_solution_set", profile, None)
        target = table(profile)
        for combo in answers:
            if game.outcome(combo) != target:
                return ImplementationReport(False, "wrong_outcome", profile, combo)
    return ImplementationReport(True)


def _reference_truthfully_implements(game, table, concept):
    if game.n != table.agents or set(game.outcomes) != set(table.outcomes):
        raise InvalidDomain("game form and SCF must share agents and outcomes")
    game_mod._require_direct(game, table.outcomes)
    for profile in table.profiles:
        sincere = profile.orders
        answers = _reference_solution_set(game, profile, concept)
        if sincere not in answers:
            failure = "truth_not_in_solution_set" if answers else "empty_solution_set"
            return ImplementationReport(False, failure, profile, sincere)
        if game.outcome(sincere) != table(profile):
            return ImplementationReport(False, "wrong_outcome", profile, sincere)
    return ImplementationReport(True)


def _reference_first_gain(table, agents, by_truth):
    moves = all_linear_orders(table.outcomes)
    for agent in agents:
        for truth in moves if by_truth else (None,):
            for state, value in zip(table.profiles, table.values):
                ranking = state.order(agent) if truth is None else truth
                for move in moves:
                    if ranking.strictly_better(table(state.replace(agent, move)), value):
                        return agent, ranking, state, move
    return None


def _reference_is_monotonic(table):
    profiles = table.profiles
    for before in profiles:
        x = table(before)
        for after in profiles:
            rises = all(
                after.order(agent).at_least_as_good(x, y)
                for agent in range(1, table.agents + 1)
                for y in table.outcomes
                if before.order(agent).at_least_as_good(x, y)
            )
            if rises and table(after) != x:
                return MonotonicityReport(False, before, after, x)
    return MonotonicityReport(True)


def _differential_tables():
    """Every SCF at (1,3), (2,2) and (3,2), then seeded tables at (2,3) and
    (1,4): random ones, dictatorships, and dictatorships with one late entry
    changed, so that every scan runs long before it fails."""
    for n, outcomes in ((1, K3), (2, K2), (3, K2)):
        count = len(all_profiles(n, outcomes))
        for values in itertools.product(outcomes, repeat=count):
            yield ScfTable(n, outcomes, values)
    rng = random.Random(34)
    for n, outcomes in ((2, K3), (1, ("a", "b", "c", "d"))):
        states = len(all_profiles(n, outcomes))
        for _ in range(6):
            yield ScfTable(n, outcomes, tuple(rng.choice(outcomes) for _ in range(states)))
        for agent in range(1, n + 1):
            dictator = ScfTable.from_function(n, outcomes, lambda p: p.order(agent).top)
            yield dictator
            for _ in range(3):
                values = list(dictator.values)
                at = rng.randrange(states * 2 // 3, states)
                values[at] = rng.choice([x for x in outcomes if x != values[at]])
                yield ScfTable(n, outcomes, tuple(values))


def test_index_scans_equal_the_profile_scans(monkeypatch):
    """`_first_gain`, `is_monotonic`, `dom_equilibria`, `implements` and
    `truthfully_implements` return what the profile scans above return,
    failure tuples included, and `property_oracle` gives the same verdict
    and detail for every property."""
    for table in _differential_tables():
        n = table.agents
        agents = range(1, n + 1)
        for scan_agents in [agents] + [(agent,) for agent in agents]:
            for by_truth in (False, True):
                assert game_mod._first_gain(table, scan_agents, by_truth) == _reference_first_gain(
                    table, scan_agents, by_truth
                ), (table, scan_agents, by_truth)
        assert is_monotonic(table) == _reference_is_monotonic(table), table
        direct = scf_as_game_form(table)
        for concept in SolutionConcept:
            if concept is SolutionConcept.NE and len(table.values) > 8:
                continue  # the Nash scan is shared, and costly here
            for check, reference in (
                (implements, _reference_implements),
                (truthfully_implements, _reference_truthfully_implements),
            ):
                assert check(direct, table, concept) == reference(direct, table, concept), (
                    table,
                    concept,
                )
        for truth in table.profiles[:: max(1, len(table.values) // 6)]:
            assert dom_equilibria(direct, truth) == _reference_dom_equilibria(direct, truth)
        props = [CITSOV, NODICT, DOM, MON, STRPROOF] + [BR(agent) for agent in agents]
        found = [property_oracle(table, prop) for prop in props]
        with monkeypatch.context() as patch:
            patch.setattr(game_mod, "_first_gain", _reference_first_gain)
            patch.setattr(game_mod, "is_monotonic", _reference_is_monotonic)
            assert found == [property_oracle(table, prop) for prop in props], table


def _game_forms(g_j_minus, g_p_matrix, j_table, p_table):
    """(game form, SCF it is checked against): the conftest fixtures, whose
    tables are not the SCF's own, and seeded forms whose actions are not
    rankings, with unequal action counts, at n = 2 and 3."""
    yield g_j_minus, j_table
    yield g_p_matrix, p_table
    rng = random.Random(35)
    for actions in ((("x", "y", "z"), ("u", "v")), (("x", "y"), (1, 2, 3), ("p",))):
        n = len(actions)
        for _ in range(8):
            table = {combo: rng.choice(K2) for combo in itertools.product(*actions)}
            game = GameForm(actions=actions, outcomes=K2, table=table)
            yield game, ScfTable(n, K2, tuple(rng.choice(K2) for _ in range(2**n)))


def test_game_forms_get_the_profile_scans_answers(g_j_minus, g_p_matrix, j_table, p_table):
    """On game forms other than an SCF's direct mechanism, `dom_equilibria`,
    `solution_set` and `implements` agree with the profile scans."""
    for game, table in _game_forms(g_j_minus, g_p_matrix, j_table, p_table):
        for truth in table.profiles:
            assert dom_equilibria(game, truth) == _reference_dom_equilibria(game, truth)
            for concept in SolutionConcept:
                expected = _reference_solution_set(game, truth, concept)
                assert solution_set(game, truth, concept) == expected
        for concept in SolutionConcept:
            expected = _reference_implements(game, table, concept)
            assert implements(game, table, concept) == expected, (game, concept)


def test_direct_mechanisms_against_other_scfs():
    """The direct mechanism of one SCF checked against another, also with its
    rankings listed in a shuffled order: `implements` and
    `truthfully_implements` read the game's outcomes, not the table's, and
    agree with the profile scans, failure tuples included."""
    rng = random.Random(36)
    states = len(all_profiles(2, K3))
    dictators = [ScfTable.from_function(2, K3, lambda p, i=i: p.order(i).top) for i in (1, 2)]
    others = [ScfTable(2, K3, tuple(rng.choice(K3) for _ in range(states))) for _ in range(4)]
    for dictator in dictators:
        values = list(dictator.values)
        values[-3] = next(x for x in K3 if x != values[-3])
        others += [ScfTable(2, K3, tuple(values)), dictators[0], dictators[1]]
    pairs = [(a, b) for a in dictators for b in others] + [(b, a) for a in dictators for b in others]
    failures = set()
    for source, table in pairs:
        direct = scf_as_game_form(source)
        actions = tuple(tuple(rng.sample(acts, len(acts))) for acts in direct.actions)
        shuffled = GameForm(actions=actions, outcomes=K3, table=direct.table)
        for game in (direct, shuffled):
            for concept in SolutionConcept:
                for check, reference in (
                    (implements, _reference_implements),
                    (truthfully_implements, _reference_truthfully_implements),
                ):
                    found = check(game, table, concept)
                    assert found == reference(game, table, concept), (source, table, concept)
                    failures.add(found.failure)
    assert failures == {
        None,
        "empty_solution_set",
        "truth_not_in_solution_set",
        "wrong_outcome",
    }


def test_an_agent_outside_the_table_is_refused_as_before():
    """br of an agent the table does not have fails as the profile scan did."""
    table = ScfTable.from_function(2, K3, lambda p: p.order(1).top)
    for agent in (0, 3):
        for scan in (game_mod._first_gain, _reference_first_gain):
            with pytest.raises(InvalidDomain, match=f"agent {agent} out of range 1..2"):
                scan(table, (agent,), True)


@pytest.mark.parametrize("n, outcomes", [(1, ("a", "b", "c", "d")), (2, K3), (3, K2), (3, K3)])
def test_a_deviation_is_a_stride(n, outcomes):
    """Agent i's deviation to ranking m at state s is the state s + (m - d) *
    stride in `all_profiles`, d being i's digit of s and stride
    (|K|!)^(n-i): the arithmetic `_first_gain` runs on."""
    moves = all_linear_orders(outcomes)
    states = all_profiles(n, outcomes)
    width = len(moves)
    for agent in range(1, n + 1):
        stride = width ** (n - agent)
        for s, state in enumerate(states):
            d = s // stride % width
            assert state.order(agent) == moves[d]
            for m, move in enumerate(moves):
                assert states[s - d * stride + m * stride] == state.replace(agent, move)
