"""Soundness sweep of the axiom schemas.

Every schema is instantiated over (n=2, K={a,b}) with the default
metavariable pool and checked in all 64 models of that domain; the same
machinery handles thousands of models by stacking their state blocks into
single integers.  The derived pref-necessitation rule is checked on the
same models, and a schema without outcome atoms or pref modalities is
certified over a class far too large to enumerate from one model.
"""

import time

from scflogic import enumerate_models, sample_models, valid
from scflogic.axioms import (
    default_pool,
    instantiate,
    instantiate_all,
    pref_necessitation_holds,
    soundness_check,
)

K = ("a", "b")
pool = default_pool(2, K)
print(f"metavariable pool: {len(pool)} formulas")

# the instances stream in schema by schema, each schema checked and dropped
# before the one after next is built
start = time.perf_counter()
models = enumerate_models(2, K)
report = soundness_check(instantiate_all(2, K), models)
print(f"instances over (n=2, K={{a,b}}): {sum(r.instances for r in report.results)}")
print(f"\ninstantiated and checked against all 64 models in"
      f" {time.perf_counter() - start:.2f}s:\n")
print(report.render())

rule = pref_necessitation_holds(models, pool)
print(f"\npref-necessitation (phi valid => [pref(i)] phi valid) on the pool: {rule}")

start = time.perf_counter()
sampled = sample_models(2, ("a", "b", "c"), 200, seed=0)
report3 = soundness_check(instantiate_all(2, ("a", "b", "c")), sampled)
print(f"\nthree outcomes, {len(sampled)} sampled models, {time.perf_counter() - start:.2f}s:"
      f" {'all sound' if report3.ok else 'FAILURE'}")

# (ballot) has neither outcome atoms nor pref modalities, so `valid` decides
# each instance over the whole class of (3, {a,b,c}), 3^216 * 216 models,
# on one model
K3 = ("a", "b", "c")
ballot = instantiate("ballot", 3, K3, ())
verdicts = {valid(3, K3, inst.formula).status for inst in ballot}
print(f"\n{len(ballot)} (ballot) instances over (3, {{a,b,c}}): {', '.join(sorted(verdicts))}")
