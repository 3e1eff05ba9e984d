"""Gain/cost acceptance test for a proposed remapping (paper §4.5–4.6).

The new partitioning and processor reassignment are accepted iff the
computational gain exceeds the redistribution cost:

    T_iter · N_adapt · (W_max_old − W_max_new)  +  (T_refine − T_refine_new)
        >  M · C · T_lat  +  N · T_setup

where ``W_max`` is the Wcomp of the most heavily loaded processor under the
old/new partitionings, the ``T_refine`` term credits the better-balanced
subdivision phase obtained by remapping *before* refinement, ``M`` is the
per-element storage in words, and (C, N) are (C_total, N_total): the
remap is priced under the TotalV metric.  (C_max, N_max), MaxV's pair, is
never larger for the same assignment (:func:`~repro.core.metrics.remap_stats`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.machine import MachineModel, SP2_1997

from .metrics import RemapStats

__all__ = ["CostModel", "Decision"]


@dataclass(frozen=True)
class Decision:
    """Outcome of the gain/cost comparison."""

    gain: float  #: expected seconds saved by balancing
    cost: float  #: expected seconds spent redistributing
    accept: bool
    w_max_old: int
    w_max_new: int
    refine_credit: float


@dataclass(frozen=True)
class CostModel:
    """Machine-dependent parameters of the acceptance test.

    Parameters
    ----------
    machine:
        Supplies :math:`T_{lat}` (``t_word``) and :math:`T_{setup}`.
    t_iter:
        Seconds to run one solver iteration on one element of the original
        mesh (per unit of Wcomp).
    n_adapt:
        Solver iterations between mesh adaptions.
    storage_words:
        M — storage requirement per element for the solver and adaptor.
    t_child:
        Seconds for the subdivision phase to create one element (used for
        the refine-balance credit of §4.6).
    """

    machine: MachineModel = SP2_1997
    t_iter: float = 2.0e-5
    n_adapt: int = 50
    storage_words: int = 24
    t_child: float = 1.0e-5

    # --- pieces ---------------------------------------------------------------

    def redistribution_cost(self, stats: RemapStats) -> float:
        """M·C·T_lat + N·T_setup with the TotalV pair (C_total, N_total)."""
        return (
            self.storage_words * stats.c_total * self.machine.t_word
            + stats.n_total * self.machine.t_setup
        )

    def solver_phase_time(self, w_max: float) -> float:
        """Time of one solve phase given the most-loaded processor's Wcomp."""
        return self.t_iter * self.n_adapt * w_max

    def refine_phase_time(self, children_max: float) -> float:
        """Subdivision-phase time given the max per-processor children."""
        return self.t_child * children_max

    # --- the decision -----------------------------------------------------------

    def decide(
        self,
        wcomp: np.ndarray,
        old_proc: np.ndarray,
        new_proc: np.ndarray,
        nproc: int,
        stats: RemapStats,
    ) -> Decision:
        """Accept/reject a remap given predicted weights and both ownerships.

        ``wcomp`` are the *predicted* post-subdivision weights per initial
        element (§4.6), so the refine-balance credit falls out of the same
        numbers: predicted children ≈ predicted leaves.
        """
        wcomp = np.asarray(wcomp, dtype=np.float64)
        old_loads = np.bincount(old_proc, weights=wcomp, minlength=nproc)
        new_loads = np.bincount(new_proc, weights=wcomp, minlength=nproc)
        w_max_old = float(old_loads.max())
        w_max_new = float(new_loads.max())
        refine_credit = self.refine_phase_time(w_max_old) - self.refine_phase_time(
            w_max_new
        )
        gain = (
            self.solver_phase_time(w_max_old)
            - self.solver_phase_time(w_max_new)
            + refine_credit
        )
        cost = self.redistribution_cost(stats)
        return Decision(
            gain=gain,
            cost=cost,
            accept=gain > cost,
            w_max_old=int(w_max_old),
            w_max_new=int(w_max_new),
            refine_credit=refine_credit,
        )
