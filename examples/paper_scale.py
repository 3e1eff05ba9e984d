#!/usr/bin/env python3
"""Paper-scale run: the key experiments on a ~59k-element rotor mesh.

The paper's UH-1H mesh has 60,968 tetrahedra; resolution 17 of the
synthetic rotor domain gives 58,956 — close enough that the partition-time
model's U-curve minimum lands at the paper's P ≈ 16 and the remapping /
partitioning / refinement times become comparable at large P, as in the
paper's Fig. 6.  Expect several minutes of wall time at full scale.

Run:  python examples/paper_scale.py [resolution=17] [nproc=64]
"""

import sys
import time

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.experiments import make_case
from repro.parallel import SP2_1997
from repro.partition.parallel_model import partition_time


def main(resolution: int = 17, nproc: int = 64) -> None:
    t0 = time.perf_counter()
    case = make_case(resolution)
    print(f"rotor mesh at resolution {resolution}: {case.mesh.ne} elements, "
          f"{case.mesh.nedges} edges (paper: 60,968 / 78,343)")
    print(f"modelled partition time on P={nproc}: "
          f"{partition_time(case.mesh.ne, nproc):.3f} s "
          f"(paper measured 0.58 s at their scale)")
    p_min = min(range(1, 129), key=lambda p: partition_time(case.mesh.ne, p))
    print(f"partition-time minimum at P = {p_min} (paper observed ~16)\n")

    for name in ("Real_1", "Real_2", "Real_3"):
        solver = LoadBalancedAdaptiveSolver(
            case.mesh, nproc, machine=SP2_1997,
            cost_model=CostModel(machine=SP2_1997), imbalance_threshold=1.0,
        )
        rep = solver.adapt_step(edge_mask=case.marking_mask(name))
        moved = rep.remap.elements_moved if rep.remap else 0
        print(f"{name}: G={rep.growth_factor:.3f}  "
              f"imbalance {rep.imbalance_before:.2f} -> {rep.imbalance_after:.2f}  "
              f"moved {moved} elements  "
              f"[mark {rep.marking_time:.3f}s part {rep.partition_time:.3f}s "
              f"remap {rep.remap_time:.3f}s subdiv {rep.subdivision_time:.3f}s]")
    print(f"\ntotal wall time: {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    res = int(sys.argv[1]) if len(sys.argv) > 1 else 17
    p = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    main(res, p)
