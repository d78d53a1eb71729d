"""Benchmarking the inversion methods against each other.

Times every whole-map method on a dense homogeneous cubic in three
variables across a range of truncation degrees, verifies that all results
agree coefficient for coefficient, and prints the observed ranking (reported, never asserted -
which method wins depends on the shape of H).  Also runs the
layer-vanishing probe on a nilpotent example.

Run:  python demos/04_method_shootout.py
"""

import itertools

from forminv import MapF, MSeries, PolyMap, polynomiality_probe
from forminv.bench import run_bench, to_csv, to_table
from forminv.rat import Rat

# ---------------------------------------------------------------------------
# A dense homogeneous cubic in three variables
# ---------------------------------------------------------------------------
n = 3
pool = [Rat(c) for c in (1, -1, 2, -2, 1, 1, -1, 2, 1, -2)]
cubic_exps = [e for e in itertools.product(range(4), repeat=n) if sum(e) == 3]
components = []
for i in range(n):
    terms = {e: pool[(i + j) % len(pool)] for j, e in enumerate(cubic_exps)}
    components.append(MSeries(n, float("inf"), terms))
f = MapF(PolyMap(components))
print(f"input: dense homogeneous cubic, n = {n}, "
      f"{sum(len(c.terms) for c in f.h.components)} terms")
print()

records, skips = run_bench(
    [("dense-cubic-n3", f)],
    methods=("fixed", "recurrent", "homog", "ag", "bcw"),
    degrees=(4, 6, 8, 10),
    runs=3,
)
print(to_table(records, skips))
print()
print("CSV preview:")
print("\n".join(to_csv(records).splitlines()[:4]))
print()

# ---------------------------------------------------------------------------
# Layer probe: for nilpotent-Jacobian homogeneous maps, do the deformation
# layers vanish after finitely many steps?  (Observed: yes, on every
# instance anyone has checked - deciding it in general for cubics is a
# famous open problem.)
# ---------------------------------------------------------------------------
cascade = PolyMap(
    [
        MSeries.monomial(3, (0, 2, 0), 1) + MSeries.monomial(3, (0, 0, 2), 1),
        MSeries.monomial(3, (0, 0, 2), 1),
        MSeries.zero(3),
    ]
)
print(polynomiality_probe(cascade, 8).to_text())
