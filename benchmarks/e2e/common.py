"""What the pass child and its workloads share: input sizes and the
operation ledger behind ``attempted`` / ``failed``."""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the four workloads.

    The benchmark is defined at :data:`FULL`; :data:`SMOKE` only proves
    that every code path of the instrument runs, in seconds.
    """

    sweep_resolution: int
    sweep_procs: tuple[int, ...]
    rotor_resolution: int
    rotor_nproc: int
    rotor_cycles: int
    vm_resolution: int
    vm_procs: tuple[int, ...]
    halo_ranks: tuple[int, ...]
    #: ``python -m repro`` argument lists, run in this order
    cli_commands: tuple[tuple[str, ...], ...]


def _cli(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines)


FULL = Sizes(
    sweep_resolution=6,
    sweep_procs=(2, 4, 8, 16, 32, 64),
    rotor_resolution=12,
    rotor_nproc=16,
    rotor_cycles=4,
    vm_resolution=8,
    vm_procs=(64, 256),
    halo_ranks=(4096, 16384),
    cli_commands=_cli(
        "step 6 --nproc 16 --trace-out a.jsonl --chrome-out a.json",
        "step 6 --nproc 16 --strategy Real_3 --reassigner optimal_mwbg"
        " --trace-out b.jsonl",
        "step 8 --nproc 64 --trace-out c.jsonl",
        "report a.jsonl --format both",
        "report c.jsonl --format both",
        "critical-path a.jsonl",
        "critical-path c.jsonl",
        "diff a.jsonl b.jsonl",
        "runs list",
        "case 6",
        "scale --ranks 1024",
    ),
)

SMOKE = Sizes(
    sweep_resolution=4,
    sweep_procs=(2, 4, 8),
    rotor_resolution=4,
    rotor_nproc=8,
    rotor_cycles=2,
    vm_resolution=4,
    vm_procs=(4, 8),
    halo_ranks=(256,),
    cli_commands=_cli(
        "step 4 --nproc 4 --trace-out a.jsonl",
        "report a.jsonl --format both",
        "critical-path a.jsonl",
    ),
)


def planned_ops(workload: str, sizes: Sizes) -> int:
    """Operations one pass attempts; what a killed pass is charged with."""
    return {
        # 3 strategies x 2 remap modes x P cycles, then 3 mappers x P rows
        "paper_sweep": 9 * len(sizes.sweep_procs),
        "rotor_multistep": sizes.rotor_cycles,
        # 4 rank programs per P, the halo cycles, 4 programs on 3 backends
        "vm_ranks": 4 * len(sizes.vm_procs) + len(sizes.halo_ranks) + 12,
        "cli_session": len(sizes.cli_commands),
    }[workload]


class Ops:
    """Operations attempted and failed in one pass.

    An operation is one cycle, one mapper row, one rank-program run or
    one CLI command.  It fails when it raises, exits non-zero, or fails a
    verify check; the first reason is kept and printed to stderr.
    """

    def __init__(self) -> None:
        self.attempted: list[str] = []
        self.failed: dict[str, str] = {}

    def fail(self, label: str, why: str) -> None:
        if label not in self.failed:
            self.failed[label] = why
            print(f"FAILED {label}: {why}", file=sys.stderr)

    def check(self, label: str, ok: bool, why: str) -> None:
        if not ok:
            self.fail(label, why)

    def run(self, labels: list[str], fn, *args, **kwargs):
        """Attempt ``labels`` (all done by one call); None if it raised."""
        self.attempted.extend(labels)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # an operation failing must not end the pass
            traceback.print_exc(file=sys.stderr)
            for label in labels:
                self.fail(label, f"raised {exc!r}")
            return None
