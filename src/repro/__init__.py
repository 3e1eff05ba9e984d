"""repro — reproduction of Oliker & Biswas (SPAA 1997).

*Efficient Load Balancing and Data Remapping for Adaptive Grid Calculations.*

The package implements the paper's full framework for parallel adaptive
flow computation — flow solver, 3D_TAG-style tetrahedral mesh adaptor,
multilevel mesh repartitioner, similarity-matrix processor reassignment
(optimal/heuristic MWBG and optimal BMCM), remapping cost model, and the
data remapper — on top of a deterministic virtual message-passing machine.
The :mod:`repro.obs` observability layer records every phase as nestable
spans (virtual + wall clocks) exportable to JSONL and Chrome-trace format.

Start with :class:`repro.core.framework.LoadBalancedAdaptiveSolver` or the
scripts in ``examples/``.
"""

__version__ = "0.1.0"
