import contextlib
import copy
import gc
import hashlib
import io
import itertools
import operator
import pickle
import time
import weakref

import pytest

from scflogic import _stacked, cli, logic
from scflogic import (
    InvalidDomain,
    KripkeScf,
    Profile,
    ScfModel,
    all_profiles,
    enumerate_models,
    eval_kripke,
    kripke_view,
    representative_model,
    sample_models,
    state_atoms,
)
from scflogic.axioms import (
    SCHEMAS,
    check_sweep_size,
    default_pool,
    instantiate,
    instantiate_all,
    pref_necessitation_holds,
    soundness_check,
)
from scflogic.encodings import better
from scflogic.logic import And, Box, Diamond, Iff, Implies, Not, Or, Out, Pref, PrefBox, Rep, TRUE
from scflogic.axioms import AxiomInstance
from scflogic._stacked import TableGrid
from scflogic.parser import format_formula, parse

from conftest import K2, K3, narrowed_width


SMALL_POOL = (Out("a"), Rep(1, "a", "b"), Not(Rep(2, "b", "a")), Or(Out("b"), Rep(2, "a", "b")))


def test_schema_list_is_complete():
    assert len(SCHEMAS) == 20


def test_instantiate_counts():
    assert len(instantiate("refl", 2, K2, SMALL_POOL)) == 4
    assert len(instantiate("ballot", 2, K2, SMALL_POOL)) == 4
    assert len(instantiate("antisym-total", 2, K2, SMALL_POOL)) == 4
    assert len(instantiate("confl", 2, K2, SMALL_POOL)) == 2 * len(SMALL_POOL)
    assert len(instantiate("func1", 2, K2, SMALL_POOL)) == 1
    assert len(instantiate("K(i)", 2, K2, SMALL_POOL)) == 2 * len(SMALL_POOL) ** 2


def test_empty_schema_shape():
    (inst,) = instantiate("empty", 2, K2, (Out("a"),))
    assert inst.formula == Iff(Box(frozenset(), Out("a")), Out("a"))


def test_ballot_schema_shape():
    from scflogic.encodings import ballot_agent
    from scflogic import all_linear_orders

    instances = instantiate("ballot", 2, K2, ())
    orders = all_linear_orders(K2)
    assert instances[0].formula == Diamond({1}, ballot_agent(1, orders[0]))


def test_comp_at_filter_excludes_shared_agents_and_outcomes():
    pool = (Rep(1, "a", "b"), Rep(1, "b", "a"), Rep(2, "a", "b"), Out("a"), Out("b"))
    instances = instantiate("comp-At", 2, K2, pool)
    for inst in instances:
        d1, d2 = inst.bindings["delta1"], inst.bindings["delta2"]
        agents1 = {node.agent for node in d1.subformulas() if type(node) is Rep}
        agents2 = {node.agent for node in d2.subformulas() if type(node) is Rep}
        assert not agents1 & agents2
        assert all(type(node) is not Out for d in (d1, d2) for node in d.subformulas())
    # the pair (rep(1,a,b), rep(1,b,a)) shares an agent: never instantiated,
    # and rightly so, since <1>p & <1>q -> <1>(p & q) fails for it
    assert all(
        {inst.bindings["delta1"], inst.bindings["delta2"]} != {pool[0], pool[1]}
        for inst in instances
    )


def test_comp_at_reads_each_distinct_node_once():
    """comp-At reads the agents of a pool formula from its distinct nodes:
    a 12-deep nesting of `better` has a few hundred, though the tree they
    unfold to has hundreds of millions (a walk over it took about 40 s)."""
    formula = Rep(1, "a", "b")
    for _ in range(12):
        formula = better(1, K2, 1, formula, formula)
    start = time.perf_counter()
    assert instantiate("comp-At", 1, K2, [formula]) == []
    assert time.perf_counter() - start < 1.0


def test_instances_copy_and_pickle_with_their_live_formulas():
    for inst in instantiate("comp-At", 2, K2, SMALL_POOL)[:5]:
        for twin in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
            assert twin == inst and twin.formula is inst.formula
            assert twin.bindings == inst.bindings


def test_instances_are_immutable_records_of_their_bindings():
    """A record built by hand and one `instantiate` built keep their
    bindings in binder order and hand out a fresh dict of them; equality
    and hash go by (schema, formula); fields cannot be assigned; and
    records take weak references, copy, and pickle at every protocol."""
    phi, psi = Out("a"), Rep(1, "a", "b")
    (built,) = [
        inst
        for inst in instantiate("K(i)", 2, K2, (phi, psi))
        if inst.bindings == {"i": 2, "phi": psi, "psi": phi}
    ]
    given = {"i": 2, "phi": psi, "psi": phi}
    hand = AxiomInstance("K(i)", given, built.formula)
    given["i"] = 1
    for inst in (hand, built):
        assert list(inst.bindings.items()) == [("i", 2), ("phi", psi), ("psi", phi)]
        inst.bindings["i"] = 1
        assert inst.bindings["i"] == 2
        assert inst.describe() == "K(i)[i=2, phi=Formula('rep(1,a,b)'), psi=Formula('a')]"
        assert repr(inst) == (
            f"AxiomInstance(schema='K(i)', bindings={inst.bindings!r}, formula={built.formula!r})"
        )
        for field in ("schema", "formula", "bindings", "other"):
            with pytest.raises(AttributeError):
                setattr(inst, field, None)
        with pytest.raises(AttributeError):
            del inst.schema
        assert weakref.ref(inst)() is inst
    assert hand == built and hash(hand) == hash(built)
    assert AxiomInstance("K(i)", {}, built.formula) == built
    assert AxiomInstance("K(pref)", given, built.formula) != built
    assert AxiomInstance("K(i)", given, phi) != built
    assert built != ("K(i)", built.formula) and len({hand, built}) == 1
    union = instantiate("comp-union", 2, K2, (phi,))[-1]
    assert union.describe() == "comp-union[C1={1,2}, C2={1,2}, phi=Formula('a')]"
    antisym = instantiate("antisym'", 2, K2, ())[5]
    for inst in (built, union, antisym):
        twins = [copy.copy(inst), copy.deepcopy(inst)]
        twins += [
            pickle.loads(pickle.dumps(inst, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in twins:
            assert type(twin) is AxiomInstance and twin == inst and twin.formula is inst.formula
            assert list(twin.bindings.items()) == list(inst.bindings.items())


def test_confl_skips_same_agent():
    instances = instantiate("confl", 3, K2, (Out("a"),))
    assert all(inst.bindings["i"] != inst.bindings["j"] for inst in instances)
    assert len(instances) == 6


def test_default_pool_mixes_categories():
    pool = default_pool(2, K2)
    assert len(pool) <= 200
    kinds = {type(f) for f in pool}
    assert {Out, Rep, Not, Or} <= kinds
    assert any(type(node) is Out for f in pool for node in f.subformulas())
    # deterministic
    assert default_pool(2, K2) == pool


def test_soundness_all_64_models_small_pool():
    instances = instantiate_all(2, K2, SMALL_POOL)
    report = soundness_check(instances, list(enumerate_models(2, K2)))
    assert report.ok
    lines = report.render().splitlines()
    assert len(lines) == len(SCHEMAS) + 1
    assert all("PASS" in line for line in lines[:-1])


def test_soundness_check_stacks_a_grid_as_it_is():
    """Over `enumerate_models`' grid the report is the one over the list of
    its models, counterexamples included, and the only models built are
    the counterexamples, one per failing run."""
    reads = []

    class CountingGrid(TableGrid):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    grid = enumerate_models(2, K2)
    grid = CountingGrid(grid.n, grid.outcomes, grid.rows)
    bogus = [AxiomInstance("func1", {}, Out("a")), AxiomInstance("func2", {}, Out("b"))]
    instances = [*instantiate_all(2, K2, SMALL_POOL), *bogus]
    report = soundness_check(instances, grid)
    assert report.results == soundness_check(instances, list(enumerate_models(2, K2))).results
    assert [r.ok for r in report.results[-2:]] == [False, False]
    assert len(reads) == 2


def test_soundness_detects_invalid_instance(h_table):
    from scflogic import ScfModel

    bogus = AxiomInstance("func1", {}, Out("a"))
    models = [ScfModel(h_table, p) for p in all_profiles(2, K2)]
    report = soundness_check([bogus], models)
    assert not report.ok
    (result,) = report.results
    inst, model, state = result.counterexample
    assert inst is bogus
    assert model.out(state) != "a"
    assert "FAIL" in report.render()


def test_soundness_reports_a_planted_instance_where_a_scan_does():
    """A schema's instances are checked as one batch: an unsound instance
    planted in the middle of them is reported at the (model, state) where
    a per-instance relational scan finds its first failure."""
    models = sample_models(2, K3, 40, seed=5)
    group = list(instantiate("T(i)", 2, K3, SMALL_POOL))
    planted = AxiomInstance("T(i)", {"i": 1}, Implies(Out("a"), Box({1}, Out("a"))))
    group.insert(len(group) // 2, planted)
    (result,) = soundness_check(group, models).results
    views = [(model, kripke_view(model)) for model in models]
    scan = next(
        (inst, model, km.states[v])
        for inst in group
        for model, km in views
        for v in range(len(km.states))
        if not eval_kripke(km, v, inst.formula)
    )
    assert scan[0] is planted
    assert result.counterexample == scan
    assert result.instances == len(group) and not result.ok


def test_instantiate_all_builds_a_schema_when_the_stream_reaches_it(monkeypatch):
    from scflogic import axioms

    calls = []
    real = axioms.instantiate
    monkeypatch.setattr(
        axioms, "instantiate", lambda schema, *args: calls.append(schema) or real(schema, *args)
    )
    stream = instantiate_all(2, K2, SMALL_POOL)
    assert calls == []
    assert next(stream).schema == "refl"
    assert calls == ["refl"]


def test_sweep_drops_each_schema_once_checked(monkeypatch):
    """Over the `instantiate_all` stream, `soundness_check` holds the
    schema being checked and the next one only: whenever the stream starts
    building a schema, no `Instances` of the non-empty schemas two or more
    back is alive."""
    from scflogic import axioms

    pool = SMALL_POOL + (Rep(1, "b", "a"), Out("b"))
    built = []  # per non-empty schema so far, a weak reference to its instances
    alive = []  # per schema built after the first two non-empty ones
    real = axioms.instantiate

    def tracked(schema, *args):
        gc.collect()
        if len(built) >= 2:
            alive.append(sum(ref() is not None for ref in built[:-1]))
        out = real(schema, *args)
        if out:
            built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(axioms, "instantiate", tracked)
    report = soundness_check(instantiate_all(2, K2, pool), list(enumerate_models(2, K2)))
    assert report.ok and len(report.results) == len(built) == len(SCHEMAS)
    assert alive == [0] * (len(SCHEMAS) - 2)


def test_soundness_checks_each_run_of_a_schema_apart():
    """A schema whose instances come in two separate runs gets two results."""
    refl = list(instantiate("refl", 2, K2, ()))
    trans = list(instantiate("trans", 2, K2, ()))
    report = soundness_check(refl[:1] + trans + refl[1:], list(enumerate_models(2, K2)))
    assert [(r.schema, r.instances) for r in report.results] == [
        ("refl", 1), ("trans", len(trans)), ("refl", len(refl) - 1)
    ]
    assert report.ok


def test_sweep_size_check():
    """Each schema is sized at the width its instances are checked at. The
    largest sweeps known to finish pass the size check: (3,2) over its
    whole class, and (4,2) and (3,3) over the 1008 and 1080 models sampled
    for a count of 1000, where antisym' and total' run on 6 of each
    row's 216 truths.  (2,4), sampled the same way (1152 models), is
    refused before any instance is built: antisym' has 663,552 bindings
    over 48 of the 1152 models."""
    check_sweep_size(3, K2, list(enumerate_models(3, K2)))
    check_sweep_size(4, K2, sample_models(4, K2, 1000))
    check_sweep_size(3, K3, sample_models(3, K3, 1000))
    with pytest.raises(InvalidDomain, match="^axiom sweep too large: antisym' has 663552 bindings"):
        check_sweep_size(2, ("a", "b", "c", "d"), sample_models(2, ("a", "b", "c", "d"), 1000))


def test_func1_fails_on_two_valued_outcome_fixture():
    """Negative control: break the one-outcome-per-state invariant and watch
    the functionality axiom fail in the relational semantics."""
    model = representative_model(2, K2)
    km = kripke_view(model)
    doctored = KripkeScf(
        outcomes=km.outcomes,
        states=km.states,
        r_edges=km.r_edges,
        p_edges=km.p_edges,
        valuation=(km.valuation[0] | {Out("a"), Out("b")},) + km.valuation[1:],
    )
    (func1,) = instantiate("func1", 2, K2, ())
    assert eval_kripke(km, 0, func1.formula)
    assert not eval_kripke(doctored, 0, func1.formula)


def test_pref_necessitation_on_pool():
    models = list(enumerate_models(2, K2))
    assert pref_necessitation_holds(models, SMALL_POOL + (TRUE,))


def test_soundness_sampled_k3_small():
    instances = []
    for schema in ("refl", "trans", "ballot", "unifPref", "incl", "4(pref)"):
        instances.extend(instantiate(schema, 2, K3, SMALL_POOL[:2]))
    report = soundness_check(instances, sample_models(2, K3, 40, seed=1))
    assert report.ok


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        instantiate("modus-ponens", 2, K2, SMALL_POOL)


def _necessitation_scan(models, pool, box):
    """Per-model relational reading of the rule: (holds, number of
    premises met, i.e. (model, pool formula) pairs with the formula valid)."""
    premises = 0
    for model in models:
        km = kripke_view(model)
        states = range(len(km.states))
        for phi in pool:
            if all(eval_kripke(km, v, phi) for v in states):
                premises += 1
                for agent in range(1, model.n + 1):
                    if not all(eval_kripke(km, v, box(agent, phi)) for v in states):
                        return False, premises
    return True, premises


def test_pref_necessitation_stacks_a_grid_as_it_is(monkeypatch):
    """On `enumerate_models`' grid the rule gets the verdict it gets on the
    list of its models, with a sound and with a broken box, and a passing
    check reads no model of the grid."""
    from scflogic import axioms

    reads = []

    class CountingGrid(TableGrid):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

    for n, outcomes in ((2, K2), (1, K3)):
        models = enumerate_models(n, outcomes)
        grid = CountingGrid(n, outcomes, models.rows)
        pool = default_pool(n, outcomes)
        assert pref_necessitation_holds(grid, pool) and pref_necessitation_holds(list(models), pool)
        assert reads == []
        with monkeypatch.context() as patch:
            patch.setattr(axioms, "PrefBox", lambda agent, phi: Pref(agent, Not(phi)))
            assert not pref_necessitation_holds(grid, pool)
            assert not pref_necessitation_holds(list(models), pool)
        assert "iter" not in reads
        reads.clear()


def test_pref_necessitation_holds_on_whole_classes(monkeypatch):
    """The rule is sound: it holds on every (2,2) and (1,3) model with the
    default pool, as a per-model scan confirms, and the scan and the
    batched check also agree on a broken box that makes the rule fail."""
    from scflogic import axioms

    def broken_box(agent, phi):
        return Pref(agent, Not(phi))

    for n, outcomes in ((2, K2), (1, K3)):
        models = list(enumerate_models(n, outcomes))
        pool = default_pool(n, outcomes)
        holds, premises = _necessitation_scan(models, pool, PrefBox)
        assert holds and premises > 0
        assert pref_necessitation_holds(models, pool)
        assert not _necessitation_scan(models, pool, broken_box)[0]
        with monkeypatch.context() as patch:
            patch.setattr(axioms, "PrefBox", broken_box)
            assert not pref_necessitation_holds(models, pool)


# (n, outcomes, schema) -> (instance count, first 16 hex digits of the
# sha256 of the lines "<describe()>\t<format_formula(formula)>\n" in
# instantiation order); pools: the default ones at (2,2), (1,3) and (3,2),
# DIGEST_POOL_23 at (2,3)
DIGEST_POOL_23 = ("a", "rep(1,a,b)", "~rep(2,b,c)", "rep(1,c,a) | rep(2,a,b)")
INSTANCE_DIGESTS = {
    (2, "ab", "refl"): (4, "fda3ac131103df57"),
    (2, "ab", "antisym-total"): (4, "ab180be121c1ac8e"),
    (2, "ab", "trans"): (16, "22ce430175d67e96"),
    (2, "ab", "K(i)"): (8192, "bb34f543ced48cc3"),
    (2, "ab", "T(i)"): (128, "efd8034eeaba59fe"),
    (2, "ab", "B(i)"): (128, "69ffdc05ee7b8be3"),
    (2, "ab", "comp-union"): (1024, "6ebc926f5e156e77"),
    (2, "ab", "confl"): (128, "36d80e1b98f48874"),
    (2, "ab", "empty"): (64, "90c579e4f2d105b0"),
    (2, "ab", "exclu"): (16, "f19ef45a37af859b"),
    (2, "ab", "ballot"): (4, "a6f89f0ae8125840"),
    (2, "ab", "comp-At"): (7200, "07702e506dea6436"),
    (2, "ab", "func1"): (1, "5082495abb662213"),
    (2, "ab", "func2"): (256, "492e95c0da16ffb6"),
    (2, "ab", "incl"): (128, "8593d8cb718c8db1"),
    (2, "ab", "K(pref)"): (8192, "6a2ad4be9792ffce"),
    (2, "ab", "4(pref)"): (128, "e288a58104208662"),
    (2, "ab", "antisym'"): (32, "23a96b6297087d0b"),
    (2, "ab", "total'"): (32, "ce6cd9218b7670a4"),
    (2, "ab", "unifPref"): (8, "e6d4c180b8fe8db7"),
    (1, "abc", "refl"): (3, "ad38867921c0d15d"),
    (1, "abc", "antisym-total"): (6, "516788015f2435b7"),
    (1, "abc", "trans"): (27, "3483a3eb5f60f245"),
    (1, "abc", "K(i)"): (1024, "913767a4ac8936d3"),
    (1, "abc", "T(i)"): (32, "9690649509d577c5"),
    (1, "abc", "B(i)"): (32, "6c3b28114b70d57b"),
    (1, "abc", "comp-union"): (128, "db1bf5dd9c8ad505"),
    (1, "abc", "confl"): (0, "e3b0c44298fc1c14"),
    (1, "abc", "empty"): (32, "5482e77bc4c5428d"),
    (1, "abc", "exclu"): (0, "e3b0c44298fc1c14"),
    (1, "abc", "ballot"): (6, "2136cda57ed9cb11"),
    (1, "abc", "comp-At"): (0, "e3b0c44298fc1c14"),
    (1, "abc", "func1"): (1, "4293d05089a093d8"),
    (1, "abc", "func2"): (192, "220560f89384cb9e"),
    (1, "abc", "incl"): (32, "659ebda4968d409d"),
    (1, "abc", "K(pref)"): (1024, "e7046ff76c80a14c"),
    (1, "abc", "4(pref)"): (32, "009cc86db2835ebf"),
    (1, "abc", "antisym'"): (36, "6f01295991897768"),
    (1, "abc", "total'"): (36, "9da3758ce37de9d0"),
    (1, "abc", "unifPref"): (9, "5cfeb7f642f64202"),
    (2, "abc", "refl"): (6, "d77687dc0365f19d"),
    (2, "abc", "antisym-total"): (12, "8175fcb49ecb20db"),
    (2, "abc", "trans"): (54, "49ce5b5c6a67d543"),
    (2, "abc", "K(i)"): (32, "ee5de6d413930abb"),
    (2, "abc", "T(i)"): (8, "9c717ec95aa5676b"),
    (2, "abc", "B(i)"): (8, "4991ac39ce0eaa37"),
    (2, "abc", "comp-union"): (64, "0a07c99eed4c2dfa"),
    (2, "abc", "confl"): (8, "ca850e6fbc6fb10b"),
    (2, "abc", "empty"): (4, "900abef53c0f593a"),
    (2, "abc", "exclu"): (36, "5a7561a64497edd3"),
    (2, "abc", "ballot"): (12, "6391908fd3607be0"),
    (2, "abc", "comp-At"): (32, "2fc96f9c08754bde"),
    (2, "abc", "func1"): (1, "4293d05089a093d8"),
    (2, "abc", "func2"): (144, "234c8b8321b8ca91"),
    (2, "abc", "incl"): (8, "3533c3f72e1d4f0e"),
    (2, "abc", "K(pref)"): (32, "95d00d2096c92e4c"),
    (2, "abc", "4(pref)"): (8, "1af5a7a91d5a2bd9"),
    (2, "abc", "antisym'"): (2592, "87685b4a6a70191c"),
    (2, "abc", "total'"): (2592, "47d3c08cf98ee64d"),
    (2, "abc", "unifPref"): (18, "ce53133107b2a9b4"),
    (3, "ab", "refl"): (6, "894fff9bbe3345e7"),
    (3, "ab", "antisym-total"): (6, "9bd96430dffc321b"),
    (3, "ab", "trans"): (24, "e0dbac5f1b1ee422"),
    (3, "ab", "K(i)"): (6912, "e28a1c3c2c362bac"),
    (3, "ab", "T(i)"): (144, "9c4d4120d27d5137"),
    (3, "ab", "B(i)"): (144, "f5a6ad092c70c55e"),
    (3, "ab", "comp-union"): (3072, "135f375285cc873a"),
    (3, "ab", "confl"): (288, "b69ecd049938e766"),
    (3, "ab", "empty"): (48, "277d27ab358bf25a"),
    (3, "ab", "exclu"): (72, "2bed4ae9ea62bb41"),
    (3, "ab", "ballot"): (6, "a5c2401fb6e9d559"),
    (3, "ab", "comp-At"): (56320, "d01eb2a4a86b883e"),
    (3, "ab", "func1"): (1, "5082495abb662213"),
    (3, "ab", "func2"): (384, "ee4822e94dfcaac8"),
    (3, "ab", "incl"): (144, "fc199e13c429ac5e"),
    (3, "ab", "K(pref)"): (6912, "1b8fd5d2bfd62358"),
    (3, "ab", "4(pref)"): (144, "813dac28a5346fca"),
    (3, "ab", "antisym'"): (192, "bc64b6b857c25015"),
    (3, "ab", "total'"): (192, "60a4275f39b3aec0"),
    (3, "ab", "unifPref"): (12, "e1f274353fc0c1d3"),
}


def test_instances_match_pinned_digests():
    """Every schema yields the same instances, bindings and formulas, in
    the same order, as pinned here.  (3,2) has coalition unions of three
    agents and comp-At's largest pinned count."""
    pool_23 = tuple(parse(text, (2, K3)) for text in DIGEST_POOL_23)
    pools = {
        (2, "ab"): default_pool(2, K2),
        (1, "abc"): default_pool(1, K3),
        (2, "abc"): pool_23,
        (3, "ab"): default_pool(3, K2),
    }
    seen = {}
    for (n, names), pool in pools.items():
        for schema in SCHEMAS:
            digest = hashlib.sha256()
            instances = instantiate(schema, n, tuple(names), pool)
            for inst in instances:
                digest.update(f"{inst.describe()}\t{format_formula(inst.formula)}\n".encode())
            seen[n, names, schema] = (len(instances), digest.hexdigest()[:16])
    assert seen == INSTANCE_DIGESTS


def test_an_axioms_sweep_builds_each_narrowed_view_once(monkeypatch):
    """A sweep checks every schema on one evaluator, and `_view` keeps one
    view per narrowing: across the whole `axioms` command at (1,{a,b,c})
    the outcome masks are built once per narrowing (here the first truth
    of each of the 729 rows, and all 4,374 models), not once per
    schema."""
    built = []
    row_masks = _stacked.StackedEvaluator._row_masks

    def counting(self):
        if self._by_row is None:
            built.append(self)
        return row_masks(self)

    monkeypatch.setattr(_stacked.StackedEvaluator, "_row_masks", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["axioms", "--agents", "1", "--outcomes", "a,b,c", "--json"]) == 0
    assert sorted(len(ev.grid) for ev in built) == [729, 4374]


# (n, outcomes) -> small pools: the pinned (2,3) one, and a few atoms,
# negations and a disjunction over two agents where there are two
EMISSION_POOLS = {
    (1, K3): ("a", "rep(1,a,b)", "~rep(1,c,a)", "rep(1,b,c) | c"),
    (2, K2): ("a", "rep(1,a,b)", "~rep(2,b,a)", "rep(1,b,a) | rep(2,a,b)"),
    (3, K2): ("rep(1,a,b)", "~rep(2,b,a)", "rep(3,a,b) | rep(1,b,a)", "b"),
    (2, K3): DIGEST_POOL_23,
}


def _stacks(n, outcomes):
    """Two stacks of at most 64 models: a seeded model list (whole rows of
    every truth) and a grid of seeded rows over every other truth."""
    truths = all_profiles(n, outcomes)
    listed = sample_models(n, outcomes, 64, seed=n)
    rows = {model.table.values for model in sample_models(n, outcomes, 400, seed=7 + n)}
    rows = sorted(rows)[: 64 // len(truths[::2])]
    return [listed, TableGrid(n, outcomes, rows, truths[::2])]


def _views_by_width(ev):
    """`ev`'s views for every read-set shape (`_shape`: rows kept
    or not, and the agents kept), each once, narrowest first; `ev` itself,
    the widest, last."""
    n = ev.grid.n
    shapes = [0, 1] + [
        1 | sum(1 << i for i in agents)
        for size in range(1, n + 1)
        for agents in itertools.combinations(range(1, n + 1), size)
    ]
    views = {id(view): view for view in map(ev._view, shapes)}
    return sorted(views.values(), key=lambda view: len(view.grid))


def _direct_values(ev, run):
    """(view, value) of each record of `run`, from its builder in a direct
    scope on the narrowest of `ev`'s views on which it raises no
    `_stacked._Narrow`: one scope per view, so the memo tables are shared
    along the run."""
    from scflogic import axioms

    base = run[0]._scope
    scopes = [
        (view, axioms._Scope(base.n, base.outcomes, base.pool, _stacked._Direct(view, view.grid.keeps)))
        for view in _views_by_width(ev)
    ]
    found = []
    for inst in run:
        for view, scope in scopes:
            values = map(scope.lifted.__getitem__, inst._values)
            try:
                value = axioms._TABLE[inst.schema][1](scope, *values)
            except _stacked._Narrow:
                continue
            found.append((view, value))
            break
    return found


@pytest.mark.parametrize(
    "n, outcomes", list(EMISSION_POOLS), ids=lambda v: "".join(v) if isinstance(v, tuple) else str(v)
)
def test_emitted_runs_match_the_formula_path(n, outcomes):
    """Every schema's records, evaluated by their builders in direct scopes
    without building a formula, give each instance the mask of its formula,
    on a model list and on a grid, on the view that `TableGrid.narrowed`
    gives the formula's read-set (the first truth of each of agent i's
    rankings for a pref(i) instance), which is the narrowest view that
    takes it, of exactly the width the rule counts, and with the same
    read-set; the schemas being sound, that mask is full.  The sweep
    builds no formula either, and counts the state-determined instances
    as the formulas do."""
    pool = tuple(parse(text, (n, outcomes)) for text in EMISSION_POOLS[n, outcomes])
    widths = set()
    for schema in SCHEMAS:
        run = instantiate(schema, n, outcomes, pool)
        if not run:
            continue
        stacks = _stacks(n, outcomes)
        with logic._collector_paused():
            interned = set(logic._interned)
            reports = [soundness_check(run, stack) for stack in stacks]
            assert set(logic._interned) <= interned, schema
        evs = [_stacked.StackedEvaluator(stack) for stack in stacks]
        direct = [_direct_values(ev, run) for ev in evs]
        for ev, report, found in zip(evs, reports, direct):
            for inst, (view, value) in zip(run, found, strict=True):
                reads = inst.formula.reads
                assert view is ev._view(reads), schema
                assert len(view.grid) == narrowed_width(ev.grid, reads), schema
                assert value.reads == reads
                assert value.mask == view.truth_mask(inst.formula) == view.full, schema
                widths.add(((reads >> 1).bit_count() == 1, len(view.grid) < len(ev.grid)))
            (result,) = report.results
            assert result.ok, schema
            assert result.model_independent == sum(not inst.formula.reads for inst in run)
    # some pref(i) instance of one agent runs on a narrower view than the stack
    assert (True, True) in widths or n == 1


@pytest.mark.parametrize("n, outcomes", [(1, K3), (2, K2), (2, K3)])
def test_unif_pref_spells_out_better(n, outcomes):
    """unifPref's builder reads the scope's `better` table, the one
    `encodings.better` reads too, so a direct scope takes the parts from
    its memo tables; in a formula scope the consequent of every instance
    is the very node `better` returns."""
    run = instantiate("unifPref", n, outcomes, ())
    assert len(run) == n * len(outcomes) ** 2
    for inst in run:
        i, x, y = inst.bindings.values()
        assert inst.formula is Implies(And(Out(x), Pref(i, Out(y))), better(n, outcomes, i, Out(x), Out(y)))


UNSOUND = ("a", "<{1}> a -> a", "a -> [{1}] a", "pref(1) b -> b", "rep(1,a,b)", "~rep(1,a,b)")


def _first_failing_instance(ev, run):
    """(instance, model, state) of the first instance of `run` whose
    formula some model of `ev` falsifies, at `first_failure`'s model and
    state, or None."""
    for inst in run:
        hit = ev.first_failure(inst.formula)
        if hit is not None:
            return (inst, *hit)
    return None


@pytest.mark.parametrize(
    "n, outcomes", list(EMISSION_POOLS), ids=lambda v: "".join(v) if isinstance(v, tuple) else str(v)
)
def test_runs_mixed_with_unsound_instances_fail_where_the_formulas_do(n, outcomes):
    """A run of a schema's records with hand-built unsound instances planted
    in it (lifted from their formulas) reports the first failing instance,
    model and state that a scan of the formulas with `first_failure`
    finds, the first instance whose formula's own mask is not full, and
    the same count of state-determined instances."""
    pool = tuple(parse(text, (n, outcomes)) for text in EMISSION_POOLS[n, outcomes])
    planted = [parse(text, (n, outcomes)) for text in UNSOUND]
    for s, schema in enumerate(SCHEMAS):
        run = list(instantiate(schema, n, outcomes, pool))
        for k, formula in enumerate(planted[s % 3 :: 3]):
            run.insert((k + 1) * len(run) // 3, AxiomInstance(schema, {}, formula))
        for stack in _stacks(n, outcomes):
            (result,) = soundness_check(run, stack).results
            ev = _stacked.StackedEvaluator(stack)
            expected = _first_failing_instance(ev, run)
            assert expected is not None and not result.ok
            assert result.counterexample == expected, schema
            first = next(inst for inst in run if ev.truth_mask(inst.formula) != ev.full)
            assert result.counterexample[0] is first
            assert result.model_independent == sum(not inst.formula.reads for inst in run)


# (middle, last) -> per stack of `_stacks(2, K2)`, each view a run builds
# and the truths per row it keeps (0 for the first model alone)
WIDENING_VIEWS = {
    ("a | b", "pref(1) b -> b"): ({0: 0, 1: 1, 0b11: 2}, {0: 0, 1: 1}),
    ("a | b", "b -> pref(1) b"): ({0: 0, 1: 1, 0b11: 2}, {0: 0, 1: 1}),
    ("a", "pref(1) b -> b"): ({0: 0, 1: 1}, {0: 0, 1: 1}),
    ("a | b", "pref(2) b -> b"): ({0: 0, 1: 1, 0b101: 2}, {0: 0, 1: 1, 0b101: 1}),
    ("pref(1) b | ~pref(1) b", "pref(2) b -> b"): ({0: 0, 0b11: 2, 0b101: 2}, {0: 0, 0b101: 1}),
}


@pytest.mark.parametrize("middle, last", list(WIDENING_VIEWS))
def test_a_run_widens_its_view_where_its_reads_rise(monkeypatch, middle, last):
    """A run of state-determined records with a hand-built instance reading
    an outcome atom planted in its middle and one reading agent i's true
    preference at its end widens its view twice, from the first model alone
    to the first truth of each row and then to the first truth of each of
    agent i's rankings.  `WIDENING_VIEWS` pins, per stack, each view it
    builds and the truths per row that view keeps.  On the model list,
    whose rows hold every truth, agent i's view keeps 2 of 4; the grid's
    truths are profiles 0 and 2, which agent 1's rankings tell apart, so
    its view is the grid itself, and agent 2's keeps one.  A run whose
    middle reads agent 1's and whose last reads agent 2's true preference
    widens to agent 1's view and moves to agent 2's, also on the grid,
    where agent 1's view is the grid itself.  The run reports
    the counterexample that a scan of the formulas with `first_failure`
    finds, and their count, whether its last instance, its middle one or
    none fails, and builds each narrowed view once per evaluator, however
    many runs it checks."""
    from scflogic import axioms

    records = list(instantiate("exclu", 2, K2, default_pool(2, K2)))
    assert not any(inst.formula.reads for inst in records)
    half = len(records) // 2
    planted = [AxiomInstance("exclu", {}, parse(text, (2, K2))) for text in (middle, last)]
    run = records[:half] + planted[:1] + records[half:] + planted[1:]
    built = []
    init = _stacked.StackedEvaluator.__init__

    def counting(self, models):
        built.append(models)
        init(self, models)

    monkeypatch.setattr(_stacked.StackedEvaluator, "__init__", counting)
    for stack, kept in zip(_stacks(2, K2), WIDENING_VIEWS[middle, last], strict=True):
        ev = _stacked.StackedEvaluator(stack)
        del built[:]
        results = [axioms._check_run(ev, run) for _ in range(2)]
        assert sorted(ev._views) == sorted(kept) and len(built) == len(kept)
        rows = len(ev.grid.rows)
        assert {shape: len(view.grid) for shape, view in ev._views.items()} == {
            shape: rows * per if per else 1 for shape, per in kept.items()
        }
        expected = _first_failing_instance(ev, run)
        for result in results:
            assert result.counterexample == expected and result.ok is (expected is None)
            assert result.model_independent == len(records)


# hand-built instances, each reading one agent's true preference: sound
# ones, and unsound ones, the first of which holds wherever agent i ranks
# the last outcome {last} last, as in the first truth
ONE_AGENT_SOUND = ("pref({i}) rep({i},a,b) | pref({i}) ~rep({i},a,b)", "a -> pref({i}) a", "pref({i}) pref({i}) b -> pref({i}) b")
ONE_AGENT_UNSOUND = ("pref({i}) {last} -> {last}", "pref({i}) a -> a", "~pref({i}) a | rep({i},a,b)")


@pytest.mark.parametrize("n, outcomes", [(2, K2), (3, K2), (2, K3)])
def test_a_run_moves_between_agents_views(monkeypatch, n, outcomes):
    """A run of hand-built instances alternating agents 1..n, each reading
    one agent's true preference, with an unsound one planted at one of
    several places, reports the first failure that a scan of the formulas
    with `first_failure` finds, often under a truth past the first of its
    row.  It moves from one agent's view to the next instead of widening,
    so a sound run builds the first model's view, where it starts, and
    each agent's view that is not the stack itself, and no other: after
    an agent whose view is the stack itself it still moves to the next
    agent's narrower view.  Records whose builder reads
    agent 1 and then agent i land on their joint view: the view moves to
    agent i's at the instance's first `_Narrow` and joins agent 1's at its
    second."""
    from scflogic import axioms

    def instance(text, i):
        return AxiomInstance("K(pref)", {}, parse(text.format(i=i, last=outcomes[-1]), (n, outcomes)))

    sound = [instance(text, i) for text in ONE_AGENT_SOUND * 2 for i in range(1, n + 1)]
    unsound = [instance(text, i) for text in ONE_AGENT_UNSOUND for i in range(1, n + 1)]
    singles = [1 << i | 1 for i in range(1, n + 1)]
    verdicts, late = set(), set()
    for stack in _stacks(n, outcomes):
        for k, bad in enumerate(unsound + [None]):
            run = list(sound)
            if bad is not None:
                run.insert(5 * k % len(run), bad)
            ev = _stacked.StackedEvaluator(stack)
            result = axioms._check_run(ev, run)
            made = set(ev._views)
            expected = _first_failing_instance(ev, run)
            assert result.counterexample == expected
            verdicts.add(result.ok)
            if expected is None:  # each agent's view that is not the stack itself
                assert made == {0} | {shape for shape in singles if ev._view(shape) is not ev}
            else:
                late.add(expected[1].truth != ev.grid.truths[0])
    assert verdicts == {True, False} and True in late

    # pref(1) a -> pref(i) a | pref(1) a, for i = 1..n: a sound schema whose
    # builder reads agent 1 first
    two = lambda s, i: s.Implies(s.pref[1, s.out["a"]], s.Or(s.Pref(i, s.out["a"]), s.pref[1, s.out["a"]]))
    monkeypatch.setitem(axioms._TABLE, "two", ("i", two))
    run = instantiate("two", n, outcomes, ())
    for stack in _stacks(n, outcomes):
        ev = _stacked.StackedEvaluator(stack)
        assert axioms._check_run(ev, run).ok
        # 0 and 1 from `out`, then agent 1's view, then per agent i, i's view
        # and the joint one, each that is not the stack itself
        made = set(ev._views)
        shapes = [0, 1, 0b11] + [bits | 1 << i for i in range(2, n + 1) for bits in (1, 0b11)]
        assert made == {shape for shape in shapes if ev._view(shape) is not ev}
        if isinstance(stack, list):  # every truth in each row: no view is the stack
            assert made == ({0, 1, 0b11, 0b101, 0b111, 0b1001, 0b1011} if n == 3 else {0, 1, 0b11, 0b101})


def test_a_sweep_leaves_no_garbage_cycles():
    """`soundness_check` of every schema at sampled (2,{a,b,c}) and at
    (3,{a,b}) leaves nothing for the cyclic collector: the direct scopes,
    their memo and complement tables and their values go by reference
    counting alone.  The collector stays off between the checks, so no
    automatic pass can collect a cycle before the count is read."""
    cases = [(2, K3, sample_models(2, K3, 1000, seed=0)), (3, K2, list(enumerate_models(3, K2)))]
    gc.collect()
    gc.disable()
    try:
        for n, outcomes, models in cases:
            pool = default_pool(n, outcomes)
            for schema in SCHEMAS:
                assert soundness_check(instantiate(schema, n, outcomes, pool), models).ok
                assert gc.collect() == 0, (n, outcomes, schema)
    finally:
        gc.enable()


def test_instantiate_builds_records_and_a_formula_only_when_read():
    """`instantiate` adds no node to the intern table but its binder
    domains' own atoms; reading one record's formula builds that formula
    only; a formula read is kept by its record, a record read again
    rebuilds it as the same node, and a record equals its hand-built
    twin."""

    pool = tuple(parse(text, (2, K3)) for text in DIGEST_POOL_23)
    for schema in SCHEMAS:
        with logic._collector_paused():
            before = set(logic._interned)
            run = instantiate(schema, 2, K3, pool)
            atoms = set(logic._interned) - before
            assert all(key[0] is Rep for key in atoms), schema
            if len(run) < 2:
                continue
            second = run[1]
            formula = second.formula
            added = set(logic._interned) - before - atoms
            assert len(added) <= sum(1 for _ in formula.subformulas()), schema
            assert not any(hasattr(inst, "_formula") for inst in [*run[:1], *run[2:]])
            assert second.formula is formula and run[1].formula is formula
            twin = AxiomInstance(schema, second.bindings, formula)
            assert twin == second and hash(twin) == hash(second)
            assert run[0] == AxiomInstance(schema, run[0].bindings, run[0].formula)
            del run, second, formula, twin


def test_instantiate_calls_no_builder_and_makes_no_record_until_read(monkeypatch):
    """`instantiate` runs no builder and makes no record: it holds the
    bound values of each binding.  Each item read is made then, once per
    read, and is the record the list of records held before: the same
    schema, bindings, formula and description as a record filled in from
    the same binding by the formula scope's builder.  Reading the items'
    formulas runs the builder once per item."""
    from scflogic import axioms

    calls, fills = [], []
    fill = axioms._fill
    monkeypatch.setattr(axioms, "_fill", lambda *args: fills.append(args[1]) or fill(*args))
    for schema in SCHEMAS:
        binders, build = axioms._TABLE[schema]
        monkeypatch.setitem(
            axioms._TABLE, schema, (binders, lambda s, *v, build=build: calls.append(v) or build(s, *v))
        )
    for n, outcomes in ((2, K2), (1, K3), (2, K3)):
        pool = default_pool(n, outcomes)
        for schema in SCHEMAS:
            del calls[:], fills[:]
            run = instantiate(schema, n, outcomes, pool)
            assert calls == [] and fills == [], schema
            scope = axioms._Scope(n, outcomes, pool)
            binders, build = axioms._TABLE[schema]
            names = tuple(binders.replace(",", " ").split())
            expected = [
                AxiomInstance(schema, dict(zip(names, values)), build(scope, *values))
                for values in axioms._bindings(scope, binders)
            ]
            del calls[:], fills[:]
            picks = sorted({0, len(run) // 2, len(run) - 1}) if run else []
            for k in picks:
                inst = run[k]
                assert type(inst) is AxiomInstance and calls == []
                assert inst.schema == expected[k].schema == schema
                assert list(inst.bindings.items()) == list(expected[k].bindings.items())
                assert inst.formula is expected[k].formula and len(calls) == 1
                assert inst.describe() == expected[k].describe() and inst == expected[k]
                del calls[:]
            assert fills == [schema] * len(picks)
            assert len(run) == len(expected) and run == expected
            assert len(calls) == len(fills) - len(picks) == len(expected)


def test_instances_read_as_the_list_of_their_records():
    """An `Instances` has the length of its records, indexes and iterates
    them, slices to the `Instances` of the slice, and equals the list of
    its records, in either order, as a list does; it is not hashable."""
    run = instantiate("confl", 3, K2, SMALL_POOL)
    records = list(run)
    assert len(run) == len(records) == 24
    assert run[-1] == records[-1] and run[5] == records[5]
    with pytest.raises(IndexError):
        run[len(run)]
    part = run[3:11:2]
    assert type(part) is type(run) and part == records[3:11:2] and len(part) == 4
    assert run == records and records == run and run == run[:] and run != records[1:]
    assert run != tuple(records) and records[2] in run and run.index(records[2]) == 2
    assert run[:0] == [] and not run[:0]
    with pytest.raises(TypeError):
        hash(run)


def _summary(report):
    """Everything a report says, the counterexample as its description,
    model and state."""
    return [
        (
            r.schema, r.instances, r.models, r.model_independent, r.ok,
            r.counterexample and (r.counterexample[0].describe(), *r.counterexample[1:]),
        )
        for r in report.results
    ]


# label -> (n, K, the models); the pools are the default ones
EQUIVALENCE_SCALES = {
    "(2,2)": (2, K2, lambda: list(enumerate_models(2, K2))),
    "(1,3)": (1, K3, lambda: list(enumerate_models(1, K3))),
    "(2,3) sampled": (2, K3, lambda: sample_models(2, K3, 60, seed=41)),
}

# schema -> an unsound builder put in its place, as (binders, builder)
BROKEN = {
    "B(i)": ("i phi", lambda s, i, phi: s.Implies(phi, s.box[s.single[i], phi])),
    "4(pref)": ("i phi", lambda s, i, phi: s.Implies(s.pref[i, phi], phi)),
    "total'": (
        "i profile1 profile2",
        lambda s, i, p1, p2: s.Diamond(s.grand, s.And(s.ballot[p1], s.pref[i, s.ballot[p2]])),
    ),
    "exclu": ("i,j p", lambda s, i, j, p: s.Implies(s.dia[s.single[i], p], s.box[s.single[j], p])),
}


@pytest.mark.parametrize("scale", list(EQUIVALENCE_SCALES))
def test_instances_and_their_records_check_alike(monkeypatch, scale):
    """`soundness_check` of an `Instances`, from its bound values, reports
    what it reports for the list of its records, from their formulas:
    every schema's count of instances, models and state-determined
    instances and its verdict, and where a schema is made unsound, its
    first failure's instance, model and state.  A stream of `instantiate_all`'s
    `Instances` with hand-built records between them, unsound ones among
    them, reports what the list of all its records does.  Copies of the
    records built by hand, which hold their formulas, are checked from
    those formulas and report the same."""
    from scflogic import axioms

    n, outcomes, stack = EQUIVALENCE_SCALES[scale]
    models = stack()
    pool = default_pool(n, outcomes)
    for schema in SCHEMAS:
        run = instantiate(schema, n, outcomes, pool)
        summary = _summary(soundness_check(run, models))
        assert summary == _summary(soundness_check(list(run), models)), schema
        assert summary == _summary(soundness_check(_by_hand(run), models)), schema
    failed = set()
    with monkeypatch.context() as patch:
        for schema, entry in BROKEN.items():
            patch.setitem(axioms._TABLE, schema, entry)
            run = instantiate(schema, n, outcomes, pool)
            summary = _summary(soundness_check(run, models))
            assert summary == _summary(soundness_check(list(run), models)), schema
            assert summary == _summary(soundness_check(_by_hand(run), models)), schema
            failed |= {r[0] for r in summary if not r[4]}
    assert failed == set(BROKEN) - ({"exclu"} if n == 1 else set())
    planted = AxiomInstance("planted", {}, parse("pref(1) a -> a", (n, outcomes)))
    bogus = [AxiomInstance("func1", {}, Out("b")), AxiomInstance("func1", {}, Rep(1, "a", "b"))]
    stream = [*instantiate_all(n, outcomes, pool)]
    stream[3:3] = [planted]
    stream[-1:-1] = bogus
    records = [inst for item in stream for inst in ([item] if type(item) is AxiomInstance else item)]
    report = soundness_check(stream, models)
    assert _summary(report) == _summary(soundness_check(records, models))
    assert _summary(report) == _summary(soundness_check(_by_hand(records), models))
    assert [r.ok for r in report.results if r.schema in ("planted", "func1")] == [False, True, False]


def _by_hand(records):
    """Copies of `records` built by hand, each holding its formula."""
    return [AxiomInstance(inst.schema, inst.bindings, inst.formula) for inst in records]


def test_a_list_of_one_call_s_records_checks_from_their_values(monkeypatch):
    """A list of the records that one `instantiate` call made is checked as
    that `Instances` is, by the schema's builder on the records' bound
    values: after a passing check no record holds its formula, and the
    report is the `Instances`' report.  Where the schema is made unsound,
    the counterexample is the caller's own record."""
    from scflogic import axioms

    models = list(enumerate_models(2, K2))
    pool = default_pool(2, K2)
    for schema in ("comp-At", "K(pref)", "exclu", "total'"):
        run = instantiate(schema, 2, K2, pool)
        records = list(run)
        report = soundness_check(records, models)
        assert report.ok, schema
        assert not any(hasattr(inst, "_formula") for inst in records), schema
        assert _summary(report) == _summary(soundness_check(run, models)), schema
    with monkeypatch.context() as patch:
        patch.setitem(axioms._TABLE, "B(i)", BROKEN["B(i)"])
        run = instantiate("B(i)", 2, K2, pool)
        records = list(run)
        report = soundness_check(records, models)
        assert not report.ok
        assert any(report.results[0].counterexample[0] is inst for inst in records)
        assert _summary(report) == _summary(soundness_check(run, models))


# a pool whose read-sets alternate: position 0 reads an outcome atom, so a
# run moves to the first truth of each row at once and stays there; the
# reported-atom group, which comes second, holds the first invalid formula
BLOCK_POOL = (
    "a | b", "rep(1,a,b) | ~rep(1,a,b)", "rep(1,a,b)", "a | ~a", "~rep(2,b,a)",
    "b", "rep(2,a,b) | rep(1,b,a)", "a", "~rep(1,a,b) | rep(1,a,b)", "a | ~b",
)

# schema -> an unsound builder over the block pool, as (binders, builder);
# "phi" fails in its second row only
BLOCK_BROKEN = {
    "phi": ("i phi", lambda s, i, phi: s.Or(phi, s.TRUE) if i == 1 else phi),
    "K(i)": ("i phi psi", lambda s, i, phi, psi: s.Implies(s.box[s.single[i], phi], psi)),
    "comp-At": (
        "C1 C2 delta1,delta2",
        lambda s, c1, c2, d1, d2: s.Implies(s.dia[c1, d1], s.dia[c2, s.pair[d1, d2]]),
    ),
    "total'": BROKEN["total'"],
}

# a pool on which "phi" fails first at "b", in the outcome-atom group checked
# first, while the reported-atom group's block starts before "b" and fails
# only after it, at "rep(1,a,b)"
LATE_POOL = (
    "a | ~a", "rep(1,a,b) | ~rep(1,a,b)", "a | b", "b", "rep(1,a,b)", "~rep(2,b,a) | rep(2,b,a)",
)


@pytest.mark.parametrize("most", [1, 2, 3])
def test_small_blocks_report_the_first_failing_instance(monkeypatch, most):
    """With `_CHUNK_BITS` cut so that a block holds at most 1, 2 or 3
    instances on the first truth of each row of (2,{a,b}), unsound
    builders whose first failing instance sits in a read-set group checked
    after another group's failure report what the unpatched run reports,
    what their hand-built records report and what a scan of the formulas
    with `first_failure` finds: the count of instances, models and
    state-determined instances, the verdict and the counterexample's
    instance, model and state.  A failure found in a later group's block
    that starts before the one found so far, but fails only after it, is
    not reported.  On the widest view the run visits, blocks of the size
    asked for are run."""
    from scflogic import axioms

    models = list(enumerate_models(2, K2))
    grid = enumerate_models(2, K2)
    tiled = []
    tile = _stacked._Tiled.__init__
    monkeypatch.setattr(
        _stacked._Tiled, "__init__", lambda self, view, times: tiled.append((view, times)) or tile(self, view, times)
    )
    cases = [(BLOCK_POOL, schema) for schema in BLOCK_BROKEN] + [(LATE_POOL, "phi")]
    for texts, schema in cases:
        pool = tuple(parse(text, (2, K2)) for text in texts)
        monkeypatch.setitem(axioms._TABLE, schema, BLOCK_BROKEN[schema])
        run = instantiate(schema, 2, K2, pool)
        expected = _first_failing_instance(_stacked.StackedEvaluator(models), run)
        unpatched = _summary(soundness_check(run, models))
        with monkeypatch.context() as patch:
            # the width of the widest view the run is checked on
            width = max(narrowed_width(grid, inst.formula.reads) for inst in run) * 4
            patch.setattr(_stacked, "_CHUNK_BITS", most * width)
            del tiled[:]
            report = soundness_check(run, models)
            sizes = {times for view, times in tiled if view.full.bit_length() == width}
            assert max(sizes, default=1) == most, schema
            assert _summary(report) == _summary(soundness_check(_by_hand(run), models)), schema
        assert _summary(report) == unpatched, schema
        (result,) = report.results
        assert not result.ok and result.counterexample == expected, schema
        assert result.model_independent == sum(not inst.formula.reads for inst in run), schema
    late = instantiate("phi", 2, K2, pool)
    assert expected[0] == late[9] and late[9].bindings == {"i": 2, "phi": Out("b")}
    pool = tuple(parse(text, (2, K2)) for text in BLOCK_POOL)
    records = list(instantiate("phi", 2, K2, pool))
    first = next(k for k, inst in enumerate(records) if inst.bindings["i"] == 2 and inst.formula.reads == 0)
    failing = [k for k, inst in enumerate(records) if _stacked.StackedEvaluator(models).first_failure(inst.formula)]
    # the first failure is a reported-atom one, behind an outcome-atom group
    # holding later failures of the same row
    assert failing[0] == first + 1 and records[failing[0]].formula.reads == 0
    assert any(records[k].formula.reads == 1 and k > failing[0] for k in failing)


def test_instantiate_keeps_its_domains_not_its_bindings():
    """`instantiate` of comp-At at (3,{a,b}), 56,320 instances, keeps its
    binder domains: under 0.5 MiB stays live, and the collector's next
    generation-0 pass has about a thousand new objects to scan, where a
    list of the bindings left over 57,000."""
    import tracemalloc

    pool = default_pool(3, K2)
    instantiate("comp-At", 3, K2, pool)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        run = instantiate("comp-At", 3, K2, pool)
        live = tracemalloc.get_traced_memory()[0]
        pending = gc.get_count()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert len(run) == 56320
    assert live < 512 * 1024 and pending < 5000


def test_stacking_the_same_models_again_returns_the_kept_evaluator():
    """`_stacked.stack` keeps the evaluator it built: the same list, a copy
    of it, a tuple of it and an iterator over it hold the same model
    objects in the same order, so each returns it, and it stacks the
    caller's objects."""
    models = sample_models(2, K3, 40, seed=3)
    ev = _stacked.stack(models)
    for again in (models, list(models), tuple(models), iter(models)):
        assert _stacked.stack(again) is ev
    assert len(ev.models) == len(models) and all(map(operator.is_, ev.models, models))


def test_a_list_changed_in_place_is_stacked_again():
    """Replacing one model of a stacked list in place, with an equal but
    distinct model or with another model, gives a new evaluator, and the
    counterexample reported over the list is the caller's new object, where
    a fresh evaluator over the list finds its first failure."""
    grid = enumerate_models(2, K2)
    models = [grid[row * 4] for row in range(4)]  # one truth per row
    planted = [AxiomInstance("planted", {}, Out("a"))]
    (result,) = soundness_check(planted, models).results
    assert result.counterexample[1] is models[1]  # (a,a,a,b), at the last state
    for replacement, failing in ((ScfModel(models[1].table, models[1].truth), 1), (grid[0], 2)):
        kept = _stacked.stack(models)
        models[1] = replacement
        assert _stacked.stack(models) is not kept
        (result,) = soundness_check(planted, models).results
        expected = _stacked.StackedEvaluator(models).first_failure(Out("a"))
        assert result.counterexample[1:] == expected
        assert result.counterexample[1] is models[failing] and expected[0] is models[failing]


def test_stacking_other_models_frees_the_kept_evaluator():
    """A second model list over the same (n, K) replaces the kept
    evaluator, which reference counting frees: a weak reference to it dies
    with the collector off, whether the lists are stacked directly or
    through `soundness_check`."""
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(_stacked.stack(sample_models(2, K3, 20, seed=1)))
        assert ref() is not None
        _stacked.stack(sample_models(2, K3, 20, seed=2))
        assert ref() is None
        run = instantiate("K(pref)", 2, K3, SMALL_POOL)
        assert soundness_check(run, sample_models(2, K3, 20, seed=1)).ok
        ref = weakref.ref(_stacked.stack(sample_models(2, K3, 20, seed=1)))
        assert soundness_check(run, sample_models(2, K3, 20, seed=2)).ok
        assert ref() is None
    finally:
        gc.enable()


def test_a_grid_hits_the_kept_evaluator_only_as_the_same_object():
    """A `TableGrid` hits only as the same object: an equal grid, or the
    list of its models, gets an evaluator of its own, over itself."""
    grid = enumerate_models(2, K2)
    ev = _stacked.stack(grid)
    assert _stacked.stack(grid) is ev and ev.models is grid
    same = TableGrid(grid.n, grid.outcomes, grid.rows)
    other = _stacked.stack(same)
    assert other is not ev and other.models is same
    assert _stacked.stack(list(grid)) is not other
    assert _stacked.stack(grid) is not ev


def test_stacking_no_models_is_refused():
    """An empty list, tuple or iterator is refused as an empty stack is."""
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError, match="^need at least one model$"):
            _stacked.stack(empty)
    with pytest.raises(ValueError, match="^need at least one model$"):
        soundness_check(instantiate("refl", 2, K2, ()), [])


@pytest.mark.parametrize("scale", list(EQUIVALENCE_SCALES))
def test_a_sweep_of_one_list_reports_what_fresh_evaluators_do(monkeypatch, scale):
    """Checking every schema, unsound builders and planted records one
    `soundness_check` at a time over one model list stacks the list once,
    and gives each call the results a fresh evaluator gives it, each
    counterexample the caller's own model."""
    from scflogic import axioms

    n, outcomes, stack = EQUIVALENCE_SCALES[scale]
    models = stack()
    pool = default_pool(n, outcomes)
    space = _stacked._space(n, outcomes)
    planted = [AxiomInstance("planted", {}, parse("pref(1) a -> a", (n, outcomes)))]
    bogus = [AxiomInstance("func1", {}, Out("b")), AxiomInstance("func1", {}, Rep(1, "a", "b"))]
    runs = [lambda schema=schema: instantiate(schema, n, outcomes, pool) for schema in SCHEMAS]
    runs += [lambda: planted, lambda: bogus]
    for schema, entry in BROKEN.items():
        runs.append(lambda schema=schema, entry=entry: monkeypatch.setitem(axioms._TABLE, schema, entry)
                    or instantiate(schema, n, outcomes, pool))
    kept, evaluators = [], []
    for run in runs:
        kept.append(soundness_check(run(), models).results)
        evaluators.append(space.stacked)
    monkeypatch.undo()
    assert all(ev is evaluators[0] for ev in evaluators)
    assert all(map(operator.is_, evaluators[0].models, models))
    for run, results in zip(runs, kept):
        space.stacked = None
        fresh = soundness_check(run(), models).results
        assert results == fresh
        for ours, theirs in zip(results, fresh):
            if ours.counterexample is not None:
                assert ours.counterexample[1] is theirs.counterexample[1]
                assert any(ours.counterexample[1] is model for model in models)
        monkeypatch.undo()
    assert [r.ok for results in kept[len(SCHEMAS):] for r in results].count(False) >= 4


def test_the_sampled_axioms_command_stacks_its_models_once(monkeypatch, capsys):
    """The `axioms` command over sampled (2,{a,b,c}) reads its model list
    into a grid once, for the size check and the sweep together, and
    prints what it printed when it read it twice."""
    calls = []
    as_grid = _stacked._as_grid
    monkeypatch.setattr(_stacked, "_as_grid", lambda models: calls.append(1) or as_grid(models))
    assert cli.main(["axioms", "--agents", "2", "--outcomes", "a,b,c", "--json"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cfacf23e7fe3ad9a2c2e4fc0d9b1dcc2d5914384253dc8a7e8ef10334406ee18"
    )


def test_a_soundness_check_refuses_instances_over_another_domain():
    """Instances over another agent count or outcome set than the models
    are refused with InvalidDomain, naming both, before any is checked:
    as an `Instances`, as its records, and for the second of two runs.
    antisym' over (2,{a,b}) on (3,{a,b}) models once read as FAIL for a
    sound schema.  The same outcome set in another order is accepted."""
    instances = instantiate("antisym'", 2, K2, default_pool(2, K2))
    cases = [
        (instances, list(enumerate_models(3, K2))[:64], "n=2, K=a,b .* n=3, K=a,b"),
        (list(instances), sample_models(2, K3, 3, seed=1), "n=2, K=a,b .* n=2, K=a,b,c"),
        ([instantiate("refl", 3, K2, ()), instances], enumerate_models(3, K2), "n=2, K=a,b .* n=3, K=a,b"),
    ]
    for run, models, message in cases:
        with pytest.raises(InvalidDomain, match=f"antisym' instances over {message}$"):
            soundness_check(run, models)
    swapped = instantiate("antisym'", 2, ("b", "a"), default_pool(2, ("b", "a")))
    assert soundness_check(swapped, enumerate_models(2, K2)).ok
