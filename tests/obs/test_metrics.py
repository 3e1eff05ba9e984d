"""Labelled metrics registry: kinds, keying, collisions, queries."""

import pytest

from repro.obs import KINDS, MetricsRegistry, Tracer


# --- kinds -------------------------------------------------------------------


def test_counter_accumulates_under_same_key():
    reg = MetricsRegistry()
    reg.counter("repro.vm.words_sent", 10, rank=0)
    reg.counter("repro.vm.words_sent", 5, rank=0)
    assert reg.get("repro.vm.words_sent", rank=0) == 15.0


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge("repro.partition.imbalance", 1.30, cycle=0)
    reg.gauge("repro.partition.imbalance", 1.05, cycle=0)
    assert reg.get("repro.partition.imbalance", cycle=0) == 1.05


def test_histogram_appends_every_observation():
    reg = MetricsRegistry()
    reg.histogram("repro.solver.residual_norm", 0.5, cycle=0)
    reg.histogram("repro.solver.residual_norm", 0.25, cycle=0)
    reg.histogram("repro.solver.residual_norm", [0.125, 0.0625], cycle=0)
    assert reg.get("repro.solver.residual_norm",
                   cycle=0) == [0.5, 0.25, 0.125, 0.0625]


def test_distinct_keys_do_not_merge():
    reg = MetricsRegistry()
    reg.gauge("q", 1.0, labels={"when": "before"}, cycle=0)
    reg.gauge("q", 2.0, labels={"when": "after"}, cycle=0)
    reg.gauge("q", 3.0, labels={"when": "before"}, cycle=1)
    assert len(reg) == 3
    assert reg.get("q", {"when": "before"}, cycle=0) == 1.0
    assert reg.get("q", {"when": "after"}, cycle=0) == 2.0
    assert reg.get("q", {"when": "before"}, cycle=1) == 3.0
    assert reg.get("q", {"when": "before"}, cycle=2) is None


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("n", 1)
    with pytest.raises(ValueError, match="is a counter"):
        reg.gauge("n", 2.0)


def test_unknown_kind_raises():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="unknown metric kind"):
        reg.record("n", 1.0, kind="sampler")
    assert KINDS == ("counter", "gauge", "histogram")


# --- collision warnings (the silent-merge hazard) ----------------------------


def test_label_keyset_mismatch_warns_once():
    reg = MetricsRegistry()
    reg.gauge("q", 1.0, labels={"when": "before"})
    with pytest.warns(RuntimeWarning, match="label keys"):
        reg.gauge("q", 2.0, labels={"phase": "remap"})
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second offence must stay silent
        reg.gauge("q", 3.0, labels={"phase": "remap"})


# --- queries -----------------------------------------------------------------


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    for cycle, (before, after) in enumerate([(1.3, 1.05), (1.2, 1.02)]):
        reg.gauge("imb", before, labels={"when": "before"}, cycle=cycle)
        reg.gauge("imb", after, labels={"when": "after"}, cycle=cycle)
    for cycle in (0, 1):
        for rank, words in ((0, 100), (1, 50)):
            reg.counter("words", words, cycle=cycle, rank=rank)
    return reg


def test_series_is_per_cycle_and_sorted():
    reg = sample_registry()
    assert reg.series("imb", {"when": "before"}) == {0: 1.3, 1: 1.2}
    assert reg.series("imb", {"when": "after"}) == {0: 1.05, 1: 1.02}
    assert reg.series("words", rank=1) == {0: 50.0, 1: 50.0}


def test_per_rank_sums_over_cycles():
    reg = sample_registry()
    assert reg.per_rank("words") == {0: 200.0, 1: 100.0}
    assert reg.per_rank("words", cycle=1) == {0: 100.0, 1: 50.0}


def test_total_and_max_value():
    reg = sample_registry()
    assert reg.total("words") == 300.0
    assert reg.max_value("imb", {"when": "before"}) == 1.3
    assert reg.max_value("absent") is None
    assert reg.total("absent") == 0.0


def test_names_ranks_cycles():
    reg = sample_registry()
    assert reg.names() == ["imb", "words"]
    assert reg.ranks() == [0, 1]
    assert reg.ranks("imb") == []
    assert reg.cycles() == [0, 1]


# --- tracer integration ------------------------------------------------------


def test_tracer_metric_defaults_to_current_cycle_and_vclock():
    tr = Tracer()
    assert tr.begin_cycle() == 0
    tr.advance(2.5)
    s = tr.metric("repro.partition.imbalance", 1.1, when="before")
    assert s.cycle == 0 and s.v_time == 2.5
    assert s.labels_dict == {"when": "before"}
    assert tr.begin_cycle() == 1
    s2 = tr.metric("repro.partition.imbalance", 1.2, when="before")
    assert s2.cycle == 1
    # explicit cycle overrides the ambient one
    s3 = tr.metric("repro.partition.imbalance", 1.3, cycle=7, when="before")
    assert s3.cycle == 7


def test_registry_truthiness():
    reg = MetricsRegistry()
    assert not reg and len(reg) == 0
    reg.gauge("x", 1.0)
    assert reg and len(reg) == 1
