"""Resource sampling: sampler columns, trace recording, per-rank peaks."""

import pytest

from repro.obs import resource
from repro.obs.export import export_jsonl, read_jsonl, validate_jsonl
from repro.obs.resource import (
    ResourceSample,
    ResourceSampler,
    record_resource_samples,
    resource_peaks,
    sample_resources,
)
from repro.obs.tracer import Tracer

from tests.fixtures import metric_value


def test_sample_resources_shape():
    rss, cpu, gcs = sample_resources()
    assert rss > 0  # a running interpreter has a nonzero RSS
    assert cpu >= 0.0
    assert isinstance(gcs, int) and gcs >= 0


def test_sampler_takes_opening_and_closing_samples(monkeypatch):
    monkeypatch.setattr(resource, "INTERVAL", 10.0)  # loop never fires
    sampler = ResourceSampler()
    sampler.start()
    sampler.stop()
    rows = sampler.rows()
    assert len(rows["times"]) == 2  # one on start, one on stop
    assert rows["times"][0] <= rows["times"][1]
    assert all(len(rows[k]) == 2 for k in ("rss", "cpu", "gcs"))
    assert rows["rss"][0] > 0


def test_sampler_periodic_samples_accumulate(monkeypatch):
    monkeypatch.setattr(resource, "INTERVAL", 0.005)
    import time

    sampler = ResourceSampler().start()
    time.sleep(0.05)
    sampler.stop()
    assert len(sampler.times) >= 3
    assert sampler.times == sorted(sampler.times)


def _rows():
    return {
        "times": [0.0, 0.1, 0.2],
        "rss": [100.0, 300.0, 200.0],
        "cpu": [0.0, 0.05, 0.11],
        "gcs": [10, 12, 15],
    }


def test_record_resource_samples_appends_and_mirrors_peaks():
    tr = Tracer()
    n = record_resource_samples(tr, _rows(), rank=2, backend="shm")
    assert n == 3
    assert [s.rank for s in tr.resource_samples] == [2, 2, 2]
    assert tr.resource_samples[1].rss_bytes == 300.0
    labels = {"backend": "shm"}
    assert metric_value(tr.metrics, "repro.resource.peak_rss_bytes", labels,
                        rank=2) == 300.0
    assert metric_value(tr.metrics, "repro.resource.cpu_seconds", labels,
                        rank=2) == pytest.approx(0.11)
    assert metric_value(tr.metrics, "repro.resource.gc_collections", labels,
                        rank=2) == 5.0


def test_record_resource_samples_guards():
    tr = Tracer()
    assert record_resource_samples(None, _rows()) == 0
    assert record_resource_samples(tr, {}) == 0
    assert record_resource_samples(
        tr, {"times": [], "rss": [], "cpu": [], "gcs": []}
    ) == 0
    assert not tr.resource_samples


def test_resource_samples_roundtrip_v5(tmp_path):
    tr = Tracer()
    with tr.phase("exec"):
        pass
    record_resource_samples(tr, _rows(), rank=None, backend="host")
    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    assert validate_jsonl(path)["resources"] == 3
    back = read_jsonl(path)
    assert back.resource_samples == tr.resource_samples


def test_resource_peaks_per_rank():
    samples = [
        ResourceSample(rank=0, t=0.0, rss_bytes=50.0, cpu_seconds=0.1,
                       gc_collections=1),
        ResourceSample(rank=0, t=0.1, rss_bytes=80.0, cpu_seconds=0.2,
                       gc_collections=3),
        ResourceSample(rank=None, t=0.0, rss_bytes=500.0, cpu_seconds=1.0,
                       gc_collections=9),
    ]
    peaks = resource_peaks(samples)
    assert peaks[0] == {"peak_rss_bytes": 80.0, "cpu_seconds": 0.2,
                        "gc_collections": 3.0, "samples": 2}
    assert peaks[None]["peak_rss_bytes"] == 500.0
    assert peaks[None]["samples"] == 1
