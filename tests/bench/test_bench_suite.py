"""The benchmark suite: registry, schema validation, baseline comparison."""

import copy

import pytest

from repro.bench import (
    BENCHES,
    QUICK_BENCHES,
    SchemaError,
    compare_runs,
    merge_results,
    run_suite,
    validate_results,
)


@pytest.fixture(scope="module")
def doc():
    return run_suite(("table1", "ext_vm_vs_ledger"), resolution=3, profile="quick")


def test_registry_is_consistent():
    assert set(QUICK_BENCHES) <= set(BENCHES)
    for name, bench in BENCHES.items():
        assert bench.name == name
        assert bench.description
        assert callable(bench.fn)


def test_run_suite_produces_valid_document(doc):
    stats = validate_results(doc)
    assert stats == {"runs": 1, "benches": 2}
    run = doc["runs"]["quick"]
    assert run["resolution"] == 3
    for rec in run["benches"].values():
        assert rec["wall_seconds"] > 0
    # the VM-vs-ledger bench reports its two virtual clocks as extras
    extra = run["benches"]["ext_vm_vs_ledger"]["extra"]
    assert extra["ledger_virtual_seconds"] > 0
    assert extra["vm_virtual_seconds"] > 0


def test_every_repeat_is_cold_and_results_come_from_the_first(monkeypatch):
    from repro.bench.registry import Bench
    from repro.bench.suite import run_bench
    from repro.obs import current_tracer
    from repro.partition import multilevel_kway

    from ..partition.test_partition_properties import random_connected_graph

    graph = random_connected_graph(40, 30, seed=1)
    seen = []

    def probe(resolution):
        multilevel_kway(graph, 4)
        seen.append(multilevel_kway.cache_info()[:2])
        with current_tracer().phase("probe"):
            current_tracer().advance(float(len(seen)))
        return {"repeat": len(seen)}

    monkeypatch.setitem(BENCHES, "probe", Bench("probe", "reuse probe", probe))
    rec = run_bench("probe", resolution=3, repeats=3)
    # each repeat partitioned for itself: one miss, no hit from the last one
    assert seen == [(0, 1)] * 3
    # deterministic results are the first repeat's; only wall is a minimum
    assert rec["extra"] == {"repeat": 1}
    assert rec["virtual_phase_seconds"] == {"probe": 1.0}


def test_run_suite_rejects_unknown_bench():
    with pytest.raises(KeyError, match="unknown benches"):
        run_suite(("nope",), resolution=3)


def test_schema_rejects_malformed_documents(doc):
    for mutate in (
        lambda d: d.update(schema="other/v1"),
        lambda d: d["suite"].pop("numpy"),
        lambda d: d["runs"].update(weird={"resolution": 3, "benches": {}}),
        lambda d: d["runs"]["quick"].update(resolution=0),
        lambda d: d["runs"]["quick"]["benches"]["table1"].update(wall_seconds=0),
        lambda d: d["runs"]["quick"]["benches"]["table1"].update(bogus=1),
        lambda d: d["runs"]["quick"]["benches"]["table1"].update(
            reference_wall_seconds=1.0
        ),  # requires speedup_vs_reference alongside
    ):
        bad = copy.deepcopy(doc)
        mutate(bad)
        with pytest.raises(SchemaError):
            validate_results(bad)


def test_merge_keeps_other_profiles(doc):
    other = copy.deepcopy(doc)
    other["runs"] = {"full": {"resolution": 5, "benches": doc["runs"]["quick"]["benches"]}}
    merged = merge_results(other, doc)
    assert set(merged["runs"]) == {"full", "quick"}
    assert merged["runs"]["full"]["resolution"] == 5
    assert merge_results(None, doc) is doc


def test_compare_flags_wall_regression_and_virtual_drift(doc):
    assert compare_runs(doc, doc, "quick") == []
    # no matching profile in the baseline -> nothing to compare
    base = copy.deepcopy(doc)
    base["runs"]["full"] = base["runs"].pop("quick")
    assert compare_runs(doc, base, "quick") == []

    slow = copy.deepcopy(doc)
    rec = slow["runs"]["quick"]["benches"]["table1"]
    rec["wall_seconds"] = doc["runs"]["quick"]["benches"]["table1"]["wall_seconds"] * 2
    failures = compare_runs(slow, doc, "quick", max_regress=1.15, abs_slack=0.0)
    assert len(failures) == 1 and "wall regression" in failures[0]
    assert compare_runs(slow, doc, "quick", max_regress=2.5, abs_slack=0.0) == []
    # absolute slack absorbs timer noise on sub-second benches
    assert compare_runs(slow, doc, "quick", max_regress=1.15, abs_slack=10.0) == []

    drift = copy.deepcopy(doc)
    vps = drift["runs"]["quick"]["benches"]["ext_vm_vs_ledger"][
        "virtual_phase_seconds"
    ]
    if vps:
        key = next(iter(vps))
        vps[key] += 1.0
    else:
        vps["marking"] = 1.0
    failures = compare_runs(drift, doc, "quick")
    assert len(failures) == 1 and "virtual phase seconds changed" in failures[0]

    mismatched = copy.deepcopy(doc)
    mismatched["runs"]["quick"]["resolution"] = 4
    failures = compare_runs(mismatched, doc, "quick")
    assert len(failures) == 1 and "resolution mismatch" in failures[0]
