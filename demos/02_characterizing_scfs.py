"""Characteristic formulas: every SCF over (n, K) is a formula.

The diamond form pins the whole outcome function globally; the implication
form pins each state's outcome locally.  Both are valid in exactly the
models whose outcome function realizes the table, and compact hand-written
equivalents can be checked against them.
"""

from scflogic import (
    Context,
    Iff,
    ScfTable,
    enumerate_models,
    format_formula,
    parse,
    rho,
    valid_in_model,
)

K = ("a", "b")
H = ScfTable.from_function(2, K, lambda p: "b" if all(o.top == "b" for o in p.orders) else "a")

diamond = rho(H, "diamond")
implication = rho(H, "implication")
print("implication form of H:")
print(" ", format_formula(implication))

matching = [m for m in enumerate_models(2, K) if valid_in_model(m, diamond)[0]]
print(f"\ndiamond form valid in {len(matching)} of 64 models;",
      "all share the outcome function:", all(m.table.values == H.values for m in matching))

compact = parse("b <-> (rep(1,b,a) & rep(2,b,a))", Context(2, K))
agree = all(valid_in_model(m, Iff(implication, compact))[0] for m in enumerate_models(2, K))
print("compact 'b <-> both report b>a' equivalent to the implication form:", agree)

# a three-agent majority rule and its two-literal-per-pair characterization
K2 = ("a", "b")
majority = ScfTable.from_function(
    3, K2, lambda p: "a" if sum(o.top == "a" for o in p.orders) >= 2 else "b"
)
compact3 = parse(
    "a <-> (rep(1,a,b) & rep(2,a,b)) | (rep(1,a,b) & rep(3,a,b)) | (rep(2,a,b) & rep(3,a,b))",
    Context(3, K2),
)
model = next(iter(enumerate_models(3, K2)))
ok, _ = valid_in_model(model, Iff(rho(majority, "implication"), compact3))
print("majority rule matches its two-of-three characterization:", ok)
