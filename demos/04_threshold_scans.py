"""Threshold scans: condensation bracket for the block model, correlation
onset for the discretised spin model.

Run:  python demos/04_threshold_scans.py   (a few seconds)
"""

import math

from factorcavity import DegreeSpec, lrc_threshold, sbm, threshold_scan
from factorcavity.errors import NoCrossing
from factorcavity.io import csv_body

print("== condensation scan for the two-colour block model ==")
grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
try:
    scan = threshold_scan(lambda b: sbm(2, b, 3), grid, comparator="annealed",
                          seed=0, pop_size=1500, sweeps=80, samples=30_000)
    print(f"crossing bracketed in {scan.bracket}")
    rows = scan.rows
except NoCrossing as err:
    print("no crossing on this grid")
    rows = err.rows

columns = ("param", "B_uniform", "B_pd_uniform_init", "B_pd_planted_init",
           "phi_a", "stderr")
# each row's candidates come in the order sup_bethe tries them
table = [(r.param, *(v for v, _ in r.sup.candidates.values()), r.phi_a,
          r.sup.stderr) for r in rows]
print(csv_body(columns, table))

print("== pair-correlation onset for the spin model (comparator ln 2) ==")
scan = lrc_threshold(beta=1.5, kspec=DegreeSpec.constant(2),
                     d_grid=[0.5, 1.5, 2.5, 3.5, 4.5], seed=1, pop_size=1000,
                     sweeps=60, samples=20_000)
print(f"mean-degree bracket: {scan.bracket}")
for row in scan.rows:
    print(f"  d={row.param}: sup={row.sup.value:.5f} (+-{row.sup.stderr:.5f}) "
          f"vs ln2={math.log(2):.5f}")
