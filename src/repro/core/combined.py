"""Combined TotalV + MaxV reassignment (the paper's stated future work).

§4.4: "Note that TotalV does not consider the execution times of
bottleneck processors while MaxV ignores bandwidth contention.  In
general, the objective function may need to use a combination of both
metrics to effectively incorporate all related costs.  This issue will be
addressed in future work."

We implement that combination: the assignment cost is

    J(map) = (1 − λ) · C_total(map) + λ · C_max(map),

λ = 0 recovering TotalV and λ = 1 MaxV.  The solver seeds from the exact
optima of both endpoints (optimal MWBG and optimal BMCM), then improves J
with pairwise-swap local search to a local optimum — guaranteed no worse
than the better endpoint seed under J.
"""

from __future__ import annotations

import numpy as np

from .metrics import remap_stats
from .reassign import optimal_bmcm, optimal_mwbg

__all__ = ["combined_reassign"]

#: Pairwise-swap sweeps the local search runs at most.
MAX_SWEEPS = 8


def combined_cost(
    S: np.ndarray,
    proc_of_part: np.ndarray,
    lam: float,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> float:
    """J(map) = (1−λ)·C_total + λ·C_max."""
    st = remap_stats(S, proc_of_part, alpha=alpha, beta=beta)
    return (1.0 - lam) * st.c_total + lam * st.c_max


def combined_reassign(
    S: np.ndarray,
    lam: float = 0.5,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> np.ndarray:
    """Assignment minimising the λ-combination of TotalV and MaxV (F = 1).

    Seeds from both exact endpoint optima and locally improves with
    partition-pair swaps; deterministic sweep order.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    S = np.asarray(S, dtype=np.int64)
    seeds = [optimal_mwbg(S), optimal_bmcm(S, alpha=alpha, beta=beta)]
    best = min(seeds, key=lambda m: combined_cost(S, m, lam, alpha, beta))
    best = best.copy()
    best_cost = combined_cost(S, best, lam, alpha, beta)

    npart = S.shape[1]
    for _ in range(MAX_SWEEPS):
        improved = False
        for j in range(npart):
            for k in range(j + 1, npart):
                cand = best.copy()
                cand[j], cand[k] = cand[k], cand[j]
                c = combined_cost(S, cand, lam, alpha, beta)
                if c < best_cost - 1e-12:
                    best, best_cost = cand, c
                    improved = True
        if not improved:
            break
    return best
