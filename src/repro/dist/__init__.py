"""Distributed-mesh layer (paper §3): initialization, SPL bookkeeping,
element migration, and the finalization gather."""

from .decompose import decompose
from .exec_phase import ParallelMarkResult, parallel_mark
from .gather import FinalizeResult, finalize
from .localmesh import LocalMesh
from .migrate import MigrateResult, migrate
from .refine_exec import (
    ParallelRefineResult,
    canonical_signature,
    parallel_refine,
)

__all__ = [
    "FinalizeResult",
    "LocalMesh",
    "MigrateResult",
    "ParallelMarkResult",
    "ParallelRefineResult",
    "canonical_signature",
    "decompose",
    "finalize",
    "migrate",
    "parallel_mark",
    "parallel_refine",
]
