"""Hand-rolled validation of ``BENCH_results.json`` (``repro.bench/v1``).

Same idiom as the ``repro.obs`` trace validator: explicit checks
raising :class:`~repro.obs.SchemaError` with a path-qualified message —
no external JSON-schema dependency.
"""

from __future__ import annotations

from repro.obs import SchemaError

__all__ = ["SCHEMA_ID", "SchemaError", "validate_results"]

SCHEMA_ID = "repro.bench/v1"

_SUITE_STR_FIELDS = ("created", "python", "numpy", "platform", "machine_model")


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _check_number(value, path: str, positive: bool = False) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        path,
        f"expected a number, got {value!r}",
    )
    if positive:
        _require(value > 0, path, f"expected > 0, got {value!r}")


def _check_scalar_map(obj, path: str, value_check) -> None:
    _require(isinstance(obj, dict), path, f"expected an object, got {type(obj).__name__}")
    for key, value in obj.items():
        _require(isinstance(key, str) and key, f"{path} key", f"bad key {key!r}")
        value_check(value, f"{path}[{key!r}]")


def _check_bench(rec, path: str) -> None:
    _require(isinstance(rec, dict), path, "expected an object")
    _check_number(rec.get("wall_seconds"), f"{path}.wall_seconds", positive=True)
    _check_scalar_map(
        rec.get("virtual_phase_seconds"),
        f"{path}.virtual_phase_seconds",
        lambda v, p: (_check_number(v, p), _require(v >= 0, p, "expected >= 0")),
    )
    _check_scalar_map(
        rec.get("counters"), f"{path}.counters", lambda v, p: _check_number(v, p)
    )
    _check_scalar_map(
        rec.get("extra"),
        f"{path}.extra",
        lambda v, p: _require(
            isinstance(v, (int, float, str, bool)), p, f"expected a scalar, got {v!r}"
        ),
    )
    ref = rec.get("reference_wall_seconds")
    if ref is not None:
        _check_number(ref, f"{path}.reference_wall_seconds", positive=True)
        _check_number(
            rec.get("speedup_vs_reference"),
            f"{path}.speedup_vs_reference",
            positive=True,
        )
    metrics = rec.get("metrics")
    if metrics is not None:
        _check_scalar_map(
            metrics, f"{path}.metrics", lambda v, p: _check_number(v, p)
        )
    critical_path = rec.get("critical_path")
    if critical_path is not None:
        _check_scalar_map(
            critical_path,
            f"{path}.critical_path",
            lambda v, p: (_check_number(v, p), _require(v >= 0, p, "expected >= 0")),
        )
    unknown = set(rec) - {
        "wall_seconds",
        "virtual_phase_seconds",
        "counters",
        "extra",
        "metrics",
        "critical_path",
        "reference_wall_seconds",
        "speedup_vs_reference",
    }
    _require(not unknown, path, f"unknown fields {sorted(unknown)}")


def validate_results(doc) -> dict:
    """Validate a ``repro.bench/v1`` results document; returns summary stats."""
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _require(
        doc.get("schema") == SCHEMA_ID,
        "$.schema",
        f"expected {SCHEMA_ID!r}, got {doc.get('schema')!r}",
    )
    suite = doc.get("suite")
    _require(isinstance(suite, dict), "$.suite", "expected an object")
    for field in _SUITE_STR_FIELDS:
        _require(
            isinstance(suite.get(field), str) and suite.get(field),
            f"$.suite.{field}",
            "expected a non-empty string",
        )
    _require(
        isinstance(suite.get("seed"), int) and not isinstance(suite.get("seed"), bool),
        "$.suite.seed",
        f"expected an int, got {suite.get('seed')!r}",
    )

    runs = doc.get("runs")
    _require(isinstance(runs, dict) and runs, "$.runs", "expected a non-empty object")
    nbenches = 0
    for profile, run in runs.items():
        path = f"$.runs[{profile!r}]"
        _require(profile in ("full", "quick"), path, "profile must be full or quick")
        _require(isinstance(run, dict), path, "expected an object")
        res = run.get("resolution")
        _require(
            isinstance(res, int) and not isinstance(res, bool) and res > 0,
            f"{path}.resolution",
            f"expected a positive int, got {res!r}",
        )
        benches = run.get("benches")
        _require(
            isinstance(benches, dict) and benches,
            f"{path}.benches",
            "expected a non-empty object",
        )
        for name, rec in benches.items():
            _check_bench(rec, f"{path}.benches[{name!r}]")
        nbenches += len(benches)
    return {"runs": len(runs), "benches": nbenches}
