"""Table 1 — grid sizes for the three refinement strategies.

Paper (60,968-element UH-1H mesh):

            Vertices  Elements   Edges  BdyFaces
  Initial     13,967    60,968  78,343    6,818
  Real_1      17,880    82,489 104,209    7,682
  Real_2      39,332   201,780 247,115   12,008
  Real_3      61,161   321,841 391,233   16,464

The test regenerates the same rows on the synthetic rotor mesh.
"""

from repro.experiments import REAL_FRACTIONS
from repro.experiments.report import format_table1
from repro.experiments.table1 import grid_sizes


def test_table1_rows(case):
    rows = grid_sizes(case)
    print("\n" + format_table1(rows))

    init = rows["Initial"]
    # strategy ordering: more marking -> strictly larger grids
    for col in ("vertices", "elements", "edges"):
        assert (
            init[col]
            < rows["Real_1"][col]
            < rows["Real_2"][col]
            < rows["Real_3"][col]
        )
    # growth factors near the clustered ideal 7f+1 (paper: 1.35/3.31/5.28)
    for name, frac in REAL_FRACTIONS.items():
        g = rows[name]["elements"] / init["elements"]
        ideal = 7 * frac + 1
        assert ideal <= g <= 1.45 * ideal, f"{name}: G={g:.2f} vs ideal {ideal:.2f}"
    # boundary faces only grow (coarse boundary faces split 1:4 at most)
    assert rows["Real_3"]["bdy_faces"] >= init["bdy_faces"]
