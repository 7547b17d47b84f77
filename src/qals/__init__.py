"""Learning tabu search for QUBO problems on annealer-style topologies.

The solver keeps a current solution and a tabu matrix of displaced
candidates, re-encodes the deformed objective onto the hardware graph under
evolving variable-to-qubit assignments, and queries a pluggable sampler for
low-energy states. Classical samplers (exact enumeration, annealed
Metropolis chains, uniform noise) stand in for annealing hardware; a JSON
HTTP client talks to remote services.
"""

from .core import (
    QalsParams,
    QuboProblem,
    SolveReport,
    TabuMatrix,
    WeightMatrix,
    decode,
    encode,
    energy,
    objective,
    tabu_init,
    tabu_update,
)
from .harness import (
    ExperimentReport,
    ExperimentSpec,
    brute_force_min,
    random_qubo,
    run_experiment,
)
from .samplers import (
    CapacityError,
    ExactSampler,
    MalformedResponseError,
    MetropolisSampler,
    RandomSampler,
    RemoteSampler,
    SamplerError,
    SampleShapeError,
    TransportError,
    estimate_argmin,
    exact_minimizers,
    scale_to_ranges,
)
from .solver import solve
from .topology import (
    TopologyGraph,
    chimera_graph,
    complete_graph,
    load_edge_list,
    parse_edge_list,
)

__version__ = "0.1.0"
