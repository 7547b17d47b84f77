"""Compare the annealer surrogates on one frustrated instance.

The exact backend enumerates the landscape and always answers with a ground
state. The Metropolis backend is the realistic stand-in: good but fallible.
The uniform backend ignores the landscape and models a broken machine.
"""

import numpy as np

from qals import (
    ExactSampler,
    MetropolisSampler,
    RandomSampler,
    WeightMatrix,
    complete_graph,
    energy,
    estimate_argmin,
    exact_minimizers,
)

rng = np.random.default_rng(42)
n = 10
graph = complete_graph(n)
a = rng.uniform(-1, 1, size=(n, n))
weights = WeightMatrix(a + a.T, graph)

minimizers, emin = exact_minimizers(weights)
print(f"instance: n={n}, ground energy {emin:.4f}, {len(minimizers)} ground state(s)\n")

backends = [
    ("exact", ExactSampler()),
    ("metropolis (100 sweeps)", MetropolisSampler(sweeps=100)),
    ("metropolis (5 sweeps)", MetropolisSampler(sweeps=5)),
    ("uniform random", RandomSampler()),
]

k = 10
for name, sampler in backends:
    reads = sampler.sample(weights, k, np.random.default_rng(7))
    energies = sorted(energy(weights, s) for s in reads)
    best = estimate_argmin(sampler, weights, k, np.random.default_rng(7))
    print(f"{name}")
    print(f"  best of {k} reads: {energy(weights, best):9.4f}   (gap to ground {energy(weights, best) - emin:.4f})")
    print(f"  read energies: {', '.join(f'{e:.2f}' for e in energies)}")
    print()
