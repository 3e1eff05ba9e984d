"""Resource readings: one per process, as ``repro.resource.*`` gauges."""

import gc
import sys

import pytest

from repro.obs.export import export_jsonl, read_jsonl
from repro.obs.resource import read_resources, record_resources
from repro.obs.tracer import Tracer

from tests.fixtures import metric_value


def test_sample_resources_shape():
    peak, cpu, gcs = read_resources(None)
    assert peak > 0  # a running interpreter has a nonzero high-water mark
    assert cpu >= 0.0
    assert isinstance(gcs, int) and gcs >= 0


def test_gc_collections_count_from_the_opening_reading():
    start = read_resources(None)
    gc.collect()
    _peak, _cpu, since = read_resources(start)
    assert 1 <= since <= read_resources(None)[2]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the kernel's VmHWM from /proc")
def test_peak_rss_is_the_kernels_high_water_mark_in_bytes():
    with open("/proc/self/status") as fh:
        [hwm_kib] = [int(line.split()[1]) for line in fh
                     if line.startswith("VmHWM:")]
    peak = read_resources(None)[0]
    # the two counters are batched apart by a few pages; a wrong unit
    # would be off by a factor of 1024
    assert 0.5 < peak / (hwm_kib * 1024) < 2.0


def test_record_resources_writes_the_three_gauges(tmp_path):
    tr = Tracer()
    record_resources(tr, (300.0, 0.11, 5), 2, "shm")
    record_resources(tr, (900.0, 1.5, 4), None, "host")
    labels = {"backend": "shm"}
    assert metric_value(tr.metrics, "repro.resource.peak_rss_bytes", labels,
                        rank=2) == 300.0
    assert metric_value(tr.metrics, "repro.resource.cpu_seconds", labels,
                        rank=2) == pytest.approx(0.11)
    assert metric_value(tr.metrics, "repro.resource.gc_collections", labels,
                        rank=2) == 5.0
    assert metric_value(tr.metrics, "repro.resource.peak_rss_bytes",
                        {"backend": "host"}, rank=None) == 900.0
    assert all(s.kind == "gauge" for s in tr.metrics.samples())

    path = tmp_path / "trace.jsonl"
    export_jsonl(tr, path)
    assert read_jsonl(path).metrics.samples() == tr.metrics.samples()
