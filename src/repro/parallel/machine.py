"""Machine performance models for the virtual parallel machine.

The paper reports all of its evaluation quantities (speedup, remapping
seconds, repartitioning seconds) as wall-clock times measured on a 1997-era
IBM SP2.  We do not have an SP2; instead every "parallel" phase in this
library runs on a deterministic virtual machine whose clock advances
according to the :class:`MachineModel` below.  The model is a LogGP-flavoured
abstraction:

* each message costs ``t_setup`` (software startup: header preparation,
  buffer loading — the paper's :math:`T_{setup}`) plus ``t_word`` per 8-byte
  word transferred (the paper's remote-memory latency :math:`T_{lat}`, a
  per-word memory-to-memory copy cost),
* computation is charged explicitly by the algorithms in abstract *work
  units* converted through ``t_work``.

``SP2_1997`` is calibrated so that the headline magnitudes of the paper's
Section 5 (sub-second repartitioning, remapping around a second on 64
processors for a ~60k element mesh) come out in the right ballpark; the
*shape* of every curve is produced by the algorithms, not the constants.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

__all__ = ["MachineModel", "SP2_1997", "IDEAL", "word_count"]


@dataclass(frozen=True)
class MachineModel:
    """Cost parameters of the simulated message-passing machine.

    Parameters
    ----------
    t_setup:
        Seconds of per-message startup overhead (:math:`T_{setup}`).
    t_word:
        Seconds to move one 8-byte word between processors
        (:math:`T_{lat}` in the paper's remapping cost model).
    t_work:
        Seconds per abstract unit of local computation.  Algorithms charge
        work in units roughly equal to "one element visit".
    alpha, beta:
        Machine-specific scale factors for the ``MaxV`` metric
        (:math:`\\alpha\\times` elements sent, :math:`\\beta\\times`
        elements received); the paper uses :math:`\\alpha=\\beta=1`.
    """

    t_setup: float = 5.0e-5
    t_word: float = 2.5e-7
    t_work: float = 1.0e-6
    alpha: float = 1.0
    beta: float = 1.0

    def work_time(self, units: float) -> float:
        """Time to execute ``units`` of local computation."""
        if units < 0:
            raise ValueError(f"negative work: {units}")
        return self.t_work * units


#: Constants loosely calibrated to the paper's IBM SP2 measurements.
SP2_1997 = MachineModel(t_setup=5.0e-5, t_word=2.5e-7, t_work=1.0e-6)

#: Zero-cost communication; useful for isolating algorithmic load balance.
IDEAL = MachineModel(t_setup=0.0, t_word=0.0, t_work=1.0e-6)


def word_count(obj) -> int:
    """Estimate the size of ``obj`` in 8-byte words for the timing model.

    NumPy arrays are measured exactly from their buffer size; other Python
    objects are measured via their pickle length, which is deterministic for
    the dataclass/tuple/dict payloads used inside this library.
    """
    if obj is None:
        return 0
    # scalars first: collective hops size their accumulator on every hop,
    # so this is the hottest case by far
    if isinstance(obj, (int, float, bool)):
        return 1
    if isinstance(obj, np.ndarray):
        return max(1, obj.nbytes // 8)
    if isinstance(obj, (tuple, list)) and all(
        isinstance(x, (int, float, bool)) for x in obj
    ):
        return max(1, len(obj))
    return max(1, len(pickle.dumps(obj, protocol=4)) // 8)
