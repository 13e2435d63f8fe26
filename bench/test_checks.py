"""Unit tests of the benchmark's independent checks on hand-worked cases.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import unittest

import checks as C

K2 = ("a", "b")
K3 = ("a", "b", "c")
AB, BA = ("a", "b"), ("b", "a")


def table(n: int, outcomes: tuple, rule) -> tuple:
    return tuple(rule(p) for p in C.profiles(n, outcomes))


class ScfVerdicts(unittest.TestCase):
    def test_majority_of_three_is_strategy_proof(self):
        values = table(3, K2, lambda p: "a" if sum(o[0] == "a" for o in p) >= 2 else "b")
        self.assertTrue(C.is_strategy_proof(3, K2, values))
        self.assertIsNone(C.dictator(3, K2, values))
        self.assertTrue(C.is_monotonic(3, K2, values))
        self.assertTrue(C.dom_implements(3, K2, values))
        self.assertTrue(C.has_citsov(K2, values))

    def test_agent_one_dictatorship_is_dictatorial(self):
        for outcomes in (K2, K3):
            values = table(2, outcomes, lambda p: p[0][0])
            self.assertEqual(C.dictator(2, outcomes, values), 1)
            self.assertFalse(C.property_verdict("nodict", 2, outcomes, values))
            self.assertTrue(C.is_strategy_proof(2, outcomes, values))
            # agent 2 never changes the outcome, agent 1 can misreport
            self.assertTrue(C.best_response_everywhere(2, outcomes, values, 2))
            self.assertFalse(C.best_response_everywhere(2, outcomes, values, 1))

    def test_second_ranked_outcome_of_agent_one_is_manipulable(self):
        values = table(2, K2, lambda p: p[0][1])
        self.assertFalse(C.is_strategy_proof(2, K2, values))
        self.assertFalse(C.is_monotonic(2, K2, values))
        self.assertFalse(C.dom_implements(2, K2, values))

    def test_constant_rule_lacks_citizen_sovereignty(self):
        values = table(2, K3, lambda p: "a")
        self.assertFalse(C.has_citsov(K3, values))
        self.assertTrue(C.dom_everywhere(2, K3, values))


class RelationalEvaluator(unittest.TestCase):
    def setUp(self):
        # README example H: b exactly when both agents report b first
        self.values = table(2, K2, lambda p: "b" if all(o[0] == "b" for o in p) else "a")
        self.frame = C.frame_for(2, K2)
        self.truth = C.profile_position(2, K2)[(BA, BA)]
        self.state = C.profile_position(2, K2)[(AB, AB)]

    def holds(self, formula, state=None) -> bool:
        mask = C.Evaluator(self.frame, formula).mask(self.values, self.truth)
        return bool(mask >> (self.state if state is None else state) & 1)

    def test_readme_h_example(self):
        self.assertTrue(self.holds(("dia", frozenset({1, 2}), ("out", "b"))))
        self.assertFalse(self.holds(("dia", frozenset({1}), ("out", "b"))))
        self.assertTrue(C.is_strategy_proof(2, K2, self.values))

    def test_pref_looks_at_truly_better_outcomes(self):
        # under truth (ba,ba) b is best: pref(1) a holds only where a is chosen
        where = C.profile_position(2, K2)
        at_b = where[(BA, BA)]
        self.assertTrue(self.holds(("pref", 1, ("out", "b"))))
        self.assertFalse(self.holds(("pref", 1, ("out", "a")), state=at_b))
        self.assertTrue(self.holds(("pref", 1, ("out", "a"))))
        self.assertFalse(self.holds(("prefbox", 1, ("out", "a"))))

    def test_better_and_best_response(self):
        self.assertTrue(self.holds(("better", 1, ("out", "a"), ("out", "b"))))
        self.assertFalse(self.holds(("better", 1, ("out", "b"), ("out", "a"))))
        # at (ab,ab) agent 1 alone cannot reach b, so truth-telling about a is a best response
        self.assertTrue(self.holds(("br", 1)))
        self.assertTrue(self.holds(("imp", ("dom",), ("br", 2))))

    def test_derived_connectives(self):
        a, b = ("out", "a"), ("out", "b")
        self.assertTrue(self.holds(("iff", a, ("not", b))))
        self.assertTrue(self.holds(("box", frozenset({1}), a)))
        self.assertFalse(self.holds(("box", frozenset({1, 2}), a)))
        self.assertTrue(self.holds(("ballotAll", (AB, AB))))
        self.assertFalse(self.holds(("ballot", 2, BA)))


class Enumeration(unittest.TestCase):
    def test_table_positions_round_trip(self):
        for idx in (0, 1, 7, 15):
            self.assertEqual(C.table_index(C.table_at(idx, 2, K2), K2), idx)
        self.assertEqual(C.table_at(0, 2, K2), ("a",) * 4)
        self.assertEqual(C.table_at(1, 2, K2), ("a", "a", "a", "b"))

    def test_first_hit_in_enumeration_order(self):
        # model 0 maps every state to a, so b first appears in table 1 at
        # the last state; with 4 true profiles that is model 4
        self.assertEqual(C.first_hit(2, K2, ("out", "b"), True, 64), (4, 3))
        self.assertIsNone(C.first_hit(2, K2, ("and", ("out", "a"), ("out", "b")), True, 64))
        self.assertEqual(C.model_count(2, K2), 64)
        self.assertEqual(C.model_count(1, K3), 4374)

    def test_render(self):
        f = ("imp", ("dia", frozenset({1, 2}), ("rep", 1, "a", "b")), ("prefbox", 2, ("out", "a")))
        self.assertEqual(C.render(f, 2), "(<N> rep(1,a,b) -> Pref(2) a)")
        self.assertEqual(C.render(("box", frozenset({1}), ("br", 1)), 2), "[{1}] br(1)")


class SchemaCounts(unittest.TestCase):
    def test_hand_counted_schemas(self):
        # refl: rep(i,x,x) for 2 agents and 2 outcomes
        self.assertEqual(C.schema_instances("refl", 2, 2, 10, 0), 4)
        # trans: every (i, x, y, z)
        self.assertEqual(C.schema_instances("trans", 2, 2, 10, 0), 16)
        # K(i): every agent and ordered pool pair
        self.assertEqual(C.schema_instances("K(i)", 2, 2, 10, 0), 200)
        # antisym': every agent and ordered pair of the 4 profiles
        self.assertEqual(C.schema_instances("antisym'", 2, 2, 10, 0), 32)
        # comp-At: 4 x 4 coalition pairs per disjoint pool pair
        self.assertEqual(C.schema_instances("comp-At", 2, 2, 10, 3), 48)
        self.assertEqual(C.schema_instances("confl", 1, 3, 10, 0), 0)

    def test_disjoint_pairs(self):
        sets = [frozenset({1}), frozenset({2}), frozenset(), None]
        # ordered pairs with empty intersection: (1,2) (2,1) and the empty
        # set with each of the three, both ways, counted once for itself
        self.assertEqual(C.disjoint_pairs(sets), 7)


if __name__ == "__main__":
    unittest.main()
