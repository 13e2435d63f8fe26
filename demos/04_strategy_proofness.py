"""Strategy-proofness four ways, and the Gibbard–Satterthwaite base case.

The logical encoding quantifies the reified true profile over all models
realizing the rule.  The oracle `is_strategy_proof` scans for a profitable
misreport straight from the definition; the audit adds truthful
dominant-strategy implementation, plain dominant-strategy implementation
and monotonicity.  On finite instances all these verdicts coincide.

Then every tops-only rule at two agents and three outcomes (one that reads
only the agents' top choices, 3^9 = 19,683 of them) is checked: exactly
five are strategy-proof, the three constants and the two dictatorships.
The deviation scan and truthful dominant-strategy implementation must agree
on every table, and the encoding, checked on all 19,683 tables at once
(`check_scf_properties`: each table leaves the sieve at its first failing
chunk of true profiles), must pass exactly the scan's five; the demo exits
non-zero otherwise.
"""

import itertools
import sys
import time

from scflogic import (
    STRPROOF,
    ScfTable,
    SolutionConcept,
    check_scf_properties,
    check_scf_property,
    equivalence_audit,
    is_dictatorial,
    is_monotonic,
    is_strategy_proof,
    scf_as_game_form,
    truthfully_implements,
)

K = ("a", "b")
majority = ScfTable.from_function(
    3, K, lambda p: "a" if sum(o.top == "a" for o in p.orders) >= 2 else "b"
)
inverting = ScfTable.from_function(2, K, lambda p: p.order(1).ranking[1])

for name, table in (("three-agent majority", majority), ("second-choice rule", inverting)):
    print(f"{name}:")
    print("  encoding  :", check_scf_property(table, STRPROOF).status)
    print("  oracle    :", is_strategy_proof(table))
    report = is_monotonic(table)
    print("  monotonic :", report.ok)
    if not report.ok:
        print(f"    {report.outcome} wins at {report.profile} but not at"
              f" {report.profile_after}, although it only rose")
    audit = equivalence_audit(table)
    print("  audit     : truthful-DOM", audit.truthful_dom,
          "| DOM-implement", audit.dom_implement,
          "| monotonic", audit.monotonic,
          "| encoding", audit.strproof_encoding,
          "| all agree", audit.all_agree)
    print()

K3 = ("a", "b", "c")
tables = [
    ScfTable.from_function(2, K3, lambda p: tops[3 * K3.index(p.order(1).top) + K3.index(p.order(2).top)])
    for tops in itertools.product(K3, repeat=9)
]
passing = []
for table in tables:
    verdict = is_strategy_proof(table)
    if verdict != truthfully_implements(scf_as_game_form(table), table, SolutionConcept.DOMEQ).ok:
        sys.exit(f"scan and truthful DOM implementation disagree on {table.values}")
    if verdict:
        passing.append(table)

constants = sorted(t.values[0] for t in passing if len(t.feasible_outcomes()) == 1)
dictators = sorted(agent for found, agent in map(is_dictatorial, passing) if found)
print(f"tops-only rules at (2,3): {len(passing)} of 3^9 strategy-proof")
print("  constants   :", ", ".join(constants))
print("  dictators   :", ", ".join(map(str, dictators)))
start = time.perf_counter()
encoded = [table for table, v in zip(tables, check_scf_properties(tables, STRPROOF)) if v.status == "valid"]
print(f"  encoding    : {len(encoded)} pass, all {len(tables)} checked at once in {time.perf_counter() - start:.2f} s")
if encoded != passing:
    sys.exit("the encoding and the deviation scan pass different tops-only rules")
if len(passing) != 5 or constants != list(K3) or dictators != [1, 2]:
    sys.exit("expected exactly the 3 constants and the 2 dictatorships")
