"""Smoke test of the benchmark instrument (not of the program's speed).

Run explicitly: ``python -m pytest benchmarks/e2e -q``.  Tier-1 does not
collect it (``testpaths = ["tests"]``).  The ``--smoke`` sizes are tiny,
so timings mean nothing here; what is asserted is that every stage of
every workload runs, verifies, and reports every metric the contract
names.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from common import SMOKE, planned_ops  # noqa: E402

QUALITY = ("edgecut", "imbalance_mean", "remap_words")


def smoke(tmp_path: Path, *extra: str) -> tuple[dict, float]:
    out = tmp_path / "out.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--passes", "1",
         "--seed", "3", "--json-out", str(out), *extra],
        check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text()), time.perf_counter() - start


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return smoke(tmp_path_factory.mktemp("traced"))


def test_smoke_is_quick_and_correct(traced):
    document, elapsed = traced
    assert elapsed < 30
    assert [r["workload"] for r in document["results"]] == [
        "paper_sweep", "rotor_multistep", "vm_ranks", "cli_session"]
    for res in document["results"]:
        # one untraced and one traced pass, nothing skipped, nothing failed
        assert res["attempted"] == 2 * planned_ops(res["workload"], SMOKE)
        assert res["failed"] == 0 and res["correct"]
        assert res["unresolved"] == [] and res["per_layer"]["bench.unwrapped_n"] == 0
        # child spans never outlast their parent (no negative self time)
        assert res["span_tree_ok"]


def test_every_contract_metric_is_reported(traced):
    spec = bench.load_spec()
    for res in traced[0]["results"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            line = json.loads(bench.contract_line(spec, res, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert set(line["metrics"]) == {e["name"] for e in spec[group]}
            for entry in spec[group]:
                metric = line["metrics"][entry["name"]]
                assert metric["unit"] == entry["unit"]
                assert math.isfinite(metric["value"])
        for name in ("setup_s", "wall_s", "peak_rss_mb", *QUALITY):
            assert res["end_to_end"][name]["median"] > 0


def test_quality_repeats_for_a_seed(traced, tmp_path):
    again, _ = smoke(tmp_path, "--trace", "0")
    for first, second in zip(traced[0]["results"], again["results"]):
        for name in QUALITY:
            assert first["end_to_end"][name] == second["end_to_end"][name]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only the benchmark's own files there is nothing
    to measure: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
