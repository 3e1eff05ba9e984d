"""Labelled metrics registry: kinds, keying, collisions, queries."""

import pytest

from repro.obs import KINDS, MetricsRegistry, Tracer

from tests.fixtures import metric_value


# --- kinds -------------------------------------------------------------------


def test_counter_accumulates_under_same_key():
    reg = MetricsRegistry()
    reg.record("repro.transport.spills", 10, kind="counter", rank=0)
    reg.record("repro.transport.spills", 5, kind="counter", rank=0)
    assert metric_value(reg, "repro.transport.spills", rank=0) == 15.0


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.record("repro.partition.imbalance", 1.30, cycle=0)
    reg.record("repro.partition.imbalance", 1.05, cycle=0)
    assert metric_value(reg, "repro.partition.imbalance", cycle=0) == 1.05


def test_histogram_appends_every_observation():
    reg = MetricsRegistry()
    kw = dict(kind="histogram", cycle=0)
    reg.record("repro.solver.residual_norm", 0.5, **kw)
    reg.record("repro.solver.residual_norm", 0.25, **kw)
    reg.record("repro.solver.residual_norm", [0.125, 0.0625], **kw)
    assert metric_value(reg, "repro.solver.residual_norm",
                        cycle=0) == [0.5, 0.25, 0.125, 0.0625]


def test_distinct_keys_do_not_merge():
    reg = MetricsRegistry()
    reg.record("q", 1.0, labels={"when": "before"}, cycle=0)
    reg.record("q", 2.0, labels={"when": "after"}, cycle=0)
    reg.record("q", 3.0, labels={"when": "before"}, cycle=1)
    assert len(reg) == 3
    assert metric_value(reg, "q", {"when": "before"}, cycle=0) == 1.0
    assert metric_value(reg, "q", {"when": "after"}, cycle=0) == 2.0
    assert metric_value(reg, "q", {"when": "before"}, cycle=1) == 3.0
    assert metric_value(reg, "q", {"when": "before"}, cycle=2) is None


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.record("n", 1, kind="counter")
    with pytest.raises(ValueError, match="is a counter"):
        reg.record("n", 2.0)


def test_unknown_kind_raises():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="unknown metric kind"):
        reg.record("n", 1.0, kind="sampler")
    assert KINDS == ("counter", "gauge", "histogram")


# --- collision warnings (the silent-merge hazard) ----------------------------


def test_label_keyset_mismatch_warns_once():
    reg = MetricsRegistry()
    reg.record("q", 1.0, labels={"when": "before"})
    with pytest.warns(RuntimeWarning, match="label keys"):
        reg.record("q", 2.0, labels={"phase": "remap"})
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second offence must stay silent
        reg.record("q", 3.0, labels={"phase": "remap"})


# --- queries -----------------------------------------------------------------


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    for cycle, (before, after) in enumerate([(1.3, 1.05), (1.2, 1.02)]):
        reg.record("imb", before, labels={"when": "before"}, cycle=cycle)
        reg.record("imb", after, labels={"when": "after"}, cycle=cycle)
    for cycle in (0, 1):
        for rank, words in ((0, 100), (1, 50)):
            reg.record("words", words, kind="counter", cycle=cycle, rank=rank)
    return reg


def test_series_is_per_cycle_and_sorted():
    reg = sample_registry()
    assert reg.series("imb", {"when": "before"}) == {0: 1.3, 1: 1.2}
    assert reg.series("imb", {"when": "after"}) == {0: 1.05, 1: 1.02}
    assert reg.series("words") == {}  # every sample has a rank


def test_per_rank_sums_over_cycles():
    reg = sample_registry()
    assert reg.per_rank("words") == {0: 200.0, 1: 100.0}


def test_total_and_max_value():
    reg = sample_registry()
    assert reg.total("words") == 300.0
    assert reg.max_value("imb", {"when": "before"}) == 1.3
    assert reg.max_value("absent") is None
    assert reg.total("absent") == 0.0


def test_names_ranks_cycles():
    reg = sample_registry()
    samples = reg.samples()
    assert sorted({s.name for s in samples}) == ["imb", "words"]
    assert sorted({s.rank for s in samples if s.rank is not None}) == [0, 1]
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


def test_registry_truthiness():
    reg = MetricsRegistry()
    assert not reg and len(reg) == 0
    reg.record("x", 1.0)
    assert reg and len(reg) == 1
