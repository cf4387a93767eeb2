"""Exact oracles at desk scale: enumeration, the tilted-pair identity, BP.

Run:  python demos/02_exact_oracles.py
"""

import numpy as np

from factorcavity import (DegreeSpec, bethe_instance, boltzmann_sample,
                          bp_marginals, bp_run, ldgm, nishimori_check,
                          partition_function, sample_null, sbm)

d2 = DegreeSpec.constant(2)
k2 = DegreeSpec.constant(2)

print("== partition function and marginals ==")
model = sbm(2, 1.2, 3)
g = sample_null(8, DegreeSpec.constant(3), k2, model.family, seed=5)
summary = partition_function(g)
print(f"log Z = {summary.log_z:.6f}")
print(f"marginal of x0: {summary.marginals[0].round(4)}")
print(f"pair-correlation score: {partition_function(g, want_pairs=True).two_point:.4f}")

print("\n== exact Boltzmann samples ==")
draws = boltzmann_sample(g, 5, seed=6)
print(draws)

print("\n== the tilted-pair identity, termwise ==")
for name, family in (("sbm(beta=0.7)", sbm(2, 0.7, 3).family),
                     ("ldgm(eta=0.25)", ldgm(0.25, d2, k2).family)):
    disc = nishimori_check(3, d2, k2, family)
    print(f"{name}: max termwise discrepancy {disc:.2e}")

print("\n== sum-product on the loopy instance (an approximation there) ==")
state = bp_run(g, max_iters=2000, damping=0.3, tol=1e-12)
print(f"converged: {state.converged} after {state.iterations} sweeps")
print(f"instance free entropy (BP): {bethe_instance(state):.6f}")
print(f"exact log Z:               {summary.log_z:.6f}")

print("\n== on a tree the same routine is exact ==")
from factorcavity.acceptance import random_tree_graph

tree = random_tree_graph(sbm(2, 1.2, 3), n_target=9, seed=11)
tree_state = bp_run(tree, max_iters=400, damping=0.0, tol=1e-13)
tree_summary = partition_function(tree)
print(f"free entropy gap:   {abs(bethe_instance(tree_state) - tree_summary.log_z):.2e}")
print(f"worst marginal gap: "
      f"{np.abs(bp_marginals(tree_state) - tree_summary.marginals).max():.2e}")
