"""The variational side: annealed value, population dynamics, mutual information.

Run:  python demos/03_bethe_and_population_dynamics.py   (a few seconds)
"""

import math

import numpy as np

from factorcavity import (DegreeSpec, SimplexPopulation, annealed_free_entropy,
                          bethe_estimate, bethe_uniform_atom, ldgm,
                          mi_monte_carlo, mutual_information,
                          population_dynamics, sbm, size_biased, sup_bethe)

d2 = DegreeSpec.constant(2)
k2 = DegreeSpec.constant(2)

print("== size-biased arity law ==")
mixed = DegreeSpec.from_mapping({2: 0.5, 3: 0.5})
print(f"{dict(zip(mixed.support, mixed.mass))} -> "
      f"{dict(zip(size_biased(mixed).support, np.round(size_biased(mixed).mass, 3)))}")

print("\n== the uniform atom reproduces the annealed value ==")
model = sbm(2, 0.9, 3)
atom = SimplexPopulation.uniform_atom(2)
est = bethe_estimate(atom, model, samples=50_000, seed=0)
print(f"monte carlo: {est.value:.10f} +- {est.stderr:.1e}")
print(f"closed form: {bethe_uniform_atom(model):.10f}")
print(f"annealed:    {annealed_free_entropy(model):.10f}")

print("\n== population dynamics above and below condensation ==")
for beta in (0.8, 3.0):
    m = sbm(2, beta, 3)
    pop = population_dynamics(m, pop_size=2000, iters=80,
                              init="planted-polarized", seed=1)
    est = bethe_estimate(pop, m, samples=30_000, seed=2)
    gap = est.value - annealed_free_entropy(m)
    overlap = pop.points[np.arange(pop.size), np.arange(pop.size) % pop.q].mean()
    print(f"beta={beta}: polarised-init value - annealed = {gap:+.4f} "
          f"(+- {est.stderr:.4f}); mean mass on the point's colour {overlap:.3f}")

print("\n== heuristic supremum and mutual information ==")
code = ldgm(0.4, d2, k2)
sup = sup_bethe(code, seed=3, pop_size=2000, sweeps=60, samples=30_000)
print(f"best candidate: {sup.tag} at {sup.value:.6f} (ln 2 = {math.log(2):.6f})")
mi = mutual_information(code, seed=4, pop_size=2000, sweeps=60, samples=30_000)
print(f"variational mutual information: {mi.value:.5f} nats/var")

print("\n== finite-size check against exact enumeration ==")
mc = mi_monte_carlo(code, n=12, graphs=200, seed=5)
print(f"n=12 monte carlo: {mc.value:.5f} +- {mc.stderr:.5f}")
print(f"channel information term: {mi.information_term:.5f} "
      f"(ln2 - H(0.4) = {math.log(2) + 0.4*math.log(0.4) + 0.6*math.log(0.6):.5f})")
