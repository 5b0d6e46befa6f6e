"""Tests of the benchmark's own code: seeded generators and span arithmetic.

Run with: python3 -m pytest perfbench
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for gen in (inputs.discr_round, inputs.genus_round):
        assert gen(7) == gen(7)
        assert gen(7) != gen(8)
    order = inputs.classification_order(5, 68, ["1A", "2", "8C"])
    assert order == inputs.classification_order(5, 68, ["1A", "2", "8C"])
    assert order != inputs.classification_order(6, 68, ["1A", "2", "8C"])
    assert sorted(order[0]) == sorted(order[1]) == list(range(68))


def test_unimodular_and_congruence():
    rng = random.Random(1)
    for n in (1, 2, 5, 14):
        p = inputs.unimodular(rng, n)
        assert abs(inputs.determinant(p)) == 1
        assert max(abs(x) for row in p for x in row) <= n + 1
        g, _sig = inputs.block_sum(inputs.parse_blocks("U+2A2+D4")[: max(1, n // 4)])
        if len(g) == n:
            assert inputs.determinant(inputs.congruent(g, p)) == inputs.determinant(g)


def test_block_facts():
    assert inputs.parse_blocks("U+2U(2)+8A1") == ["U", "U(2)", "U(2)"] + ["A1"] * 8
    cases = {"U": (-1, (1, 1)), "U(3)": (-9, (1, 1)), "<-6>": (-6, (0, 1)), "A2": (3, (0, 2)),
             "A2(2)": (12, (0, 2)), "D4": (4, (0, 4)), "E6": (3, (0, 6)), "E8": (1, (0, 8))}
    for name, (det, sig) in cases.items():
        g, s = inputs.block(name)
        assert (inputs.determinant(g), s) == (det, sig), name
    g, sig = inputs.block_sum(["U", "A2", "<6>"])
    assert inputs.determinant(g) == -18 and sig == (2, 3)


def test_genus_rounds_run_every_template():
    items = inputs.genus_round(11)
    for family, templates in inputs.GENUS_FAMILIES.items():
        copies = 1 if family == "extension" else inputs.BASIS_CHANGES
        assert sorted(it["expr"] for it in items if it["family"] == family) == sorted(templates * copies)
    for it in items:
        if it["family"] != "extension":
            assert inputs.determinant(it["moved"]) == it["det"]
            assert inputs.determinant(it["control_gram"]) != it["det"] or it["control"] == "sig"


def test_catalog_sums_and_random_grams():
    multisets = inputs.catalog_multisets()
    ranks = {sum(inputs.CATALOG_RANK[b] for b in names) for names in multisets}
    assert len(multisets) == 15646 and ranks == set(range(1, 11))
    assert len({inputs.render_blocks(names) for names in multisets}) == len(multisets)
    for names in multisets[::997]:
        item = inputs.catalog_sum(names)
        g, _sig = inputs.block_sum(inputs.parse_blocks(item["expr"]))
        assert inputs.determinant(g) == item["det"] and len(g) == item["rank"]
    rng = random.Random(3)
    for _ in range(50):
        item = inputs.random_even(rng)
        assert item["det"] != 0 and all(item["gram"][i][i] % 2 == 0 for i in range(item["rank"]))


def test_discr_round_keeps_the_sweep_ratio():
    items = inputs.discr_round(4)
    catalog = [it["expr"] for it in items if it["population"] == "catalog"]
    assert len(catalog) == len(set(catalog)) == inputs.DISCR_CATALOG
    assert len(items) - len(catalog) == round(inputs.DISCR_CATALOG * 110 / 15646)


def test_discr_rounds_of_different_seeds_hold_the_same_mix():
    def v2(item):
        return inputs.valuation(abs(item["det"]), 2)

    mixes = [sorted(v2(it) for it in inputs.discr_round(seed) if it["population"] == "catalog")
             for seed in (1, 2, 3)]
    assert all(abs(a - b) <= 1 for a, b in zip(mixes[0], mixes[1]))
    assert all(abs(a - b) <= 1 for a, b in zip(mixes[0], mixes[2]))


def test_prefix_rounds_stop_before_the_costliest_operations():
    for workload, seed in (("classification", 2), ("genus-large", 3), ("discr-sweep", 4)):
        whole, _final, _shares = ops.build(workload, seed)
        prefix, _final, _shares = ops.build(workload, seed, prefix=True)
        assert [k for k, _ in prefix] == [k for k, _ in whole[:len(prefix)]]
    kinds = [k for k, _ in ops.build("classification", 2, prefix=True)[0]]
    assert "realize" not in kinds and len(kinds) == 293 - 68
    assert len(ops.build("genus-large", 3, prefix=True)[0]) == 100 - 4 * len(inputs.GENUS_HEAVY)
    assert len(ops.build("discr-sweep", 4, prefix=True)[0]) == len(ops.build("discr-sweep", 4)[0])


def test_schedule_depends_on_workload_and_seconds_only():
    for workload in run.WORKLOADS:
        plan = run.schedule(workload, 40)
        assert plan == run.schedule(workload, 40) and plan[0] == "whole"
        census = plan.count("census")
        if workload in run.CENSUS_FIRST:
            census += plan.count("whole") + plan.count("prefix")
        assert census == run.CENSUS_SAMPLES
        cost = sum(run.ROUND_COST_S[workload].get(k, run.CENSUS_COST_S) for k in plan)
        assert cost <= 40 + 1e-9
    assert run.interleave(["whole"] * 2, "census", 3) == ["whole", "census", "whole", "census", "census"]


def test_scaled_times():
    k, ref = calib.PROBES, calib.REF_S
    # steps at the reference speed leave times as they are; steps twice as slow halve them
    assert calib.scaled([0.5, 0.25], [ref] * 3 * k) == [0.5, 0.25]
    got = calib.scaled([0.5, 0.25], [ref] * k + [2 * ref] * 2 * k)
    assert abs(got[0] - 0.5 / 1.5) < 1e-12 and abs(got[1] - 0.125) < 1e-12
    assert abs(calib.scaled_setup(0.3, [2 * ref] * k + [ref] * k) - 0.15) < 1e-12


def test_harrell_davis_quantile():
    assert abs(run.quantile([4.0] * 9, 0.9) - 4.0) < 1e-9
    assert abs(run.quantile([1.0, 2.0, 3.0], 0.5) - 2.0) < 1e-9
    values = [float(i) for i in range(1, 101)]
    p50, p90 = run.quantile(values, 0.5), run.quantile(values, 0.9)
    assert abs(p50 - 50.5) < 1e-6 and 89 < p90 < 92
    assert run.quantile(values[::-1], 0.9) == p90


def test_self_time_is_duration_minus_children():
    # a(0..10) calls b(1..4) and c(5..9); c calls d(6..7)
    names = ["m.a", "m.b", "m.c", "m.d"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 5.0, 9.0, 0), (3, 6.0, 7.0, 2)]
    assert tracer.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert tracer.inclusive(spans, names, {"m.c", "m.d"}) == 4.0
    assert tracer.inclusive(spans, names, {"m.b", "m.d"}) == 4.0


def test_layer_table_from_spans():
    names = ["classify.realize_pair", "gluing.glue", "exact.smith_normal_form",
             "stability.isomorphic_in_genus", "forms.decompose2"]
    spans = [(0, 0.0, 8.0, -1), (1, 1.0, 5.0, 0), (2, 2.0, 3.0, 1), (2, 3.5, 4.0, 1),
             (3, 6.0, 7.0, 0), (4, 6.25, 6.75, 4)]
    trace = {"names": names, "spans": spans, "sizes": [16, 64],
             "verdicts": {"yes": 3, "unknown": 1}}
    t = tracer.layer_table(trace)
    assert t["classify.calls"] == 1 and t["classify.self_s"] == 3.0
    assert t["gluing.self_s"] == 2.5 and t["gluing.glue_s"] == 4.0
    assert t["exact.calls"] == 2 and t["exact.snf_calls"] == 2 and t["exact.snf_s"] == 1.5
    assert t["stability.self_s"] == 0.5 and t["forms.enum_s"] == 0.5
    assert t["forms.elements_visited"] == 80 and t["forms.max_group"] == 64
    assert t["stability.decided_frac"] == 0.75
    assert t["sextic.calls"] == 0 and t["tables.self_s"] == 0.0


def test_tracer_patches_every_binding():
    import types

    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.exact")
    user = types.ModuleType("fakepkg.lattice")

    def inner(x):
        return x + 1

    inner.__module__ = "fakepkg.exact"
    layer.inner = inner
    user.inner = inner  # as bound by "from .exact import inner"
    user.outer = lambda x: user.inner(x) * 2
    user.outer.__module__ = "fakepkg.lattice"
    mods = {"fakepkg": pkg, "fakepkg.exact": layer, "fakepkg.lattice": user}
    for layer_name in tracer.LAYERS[2:]:
        mods[f"fakepkg.{layer_name}"] = types.ModuleType(f"fakepkg.{layer_name}")
    saved = {k: sys.modules.get(k) for k in mods}
    sys.modules.update(mods)
    try:
        tr = tracer.Tracer()
        tr.install("fakepkg")
        assert user.outer(1) == 4 and layer.inner(5) == 6
        tr.uninstall()
        assert user.inner is inner and layer.inner is inner
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
    names = [tr.names[s[0]] for s in tr.spans]
    assert names == ["lattice.outer", "exact.inner", "exact.inner"]
    assert tr.spans[1][3] == 0 and tr.spans[2][3] == -1
