"""``solve`` against the paper's loop written out literally.

``literal_solve`` transcribes the QALS loop line by line through the public,
checked ``encode``, ``decode``, ``objective``, ``tabu_init``, ``tabu_update``
and ``estimate_argmin``. It rebuilds ``q + lam S`` and encodes it afresh every
iteration, and tests a duplicate with ``np.array_equal``, where ``solve``
rebuilds the coefficients only after an evaluation, places them unchecked and
compares bytes. Both draw from the same named streams, so every report, trace
included, must be the same bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qals import (
    ExactSampler,
    MetropolisSampler,
    QalsParams,
    QuboProblem,
    RandomSampler,
    SolveReport,
    TabuMatrix,
    TopologyGraph,
    complete_graph,
    decode,
    encode,
    estimate_argmin,
    objective,
    solve,
    tabu_init,
    tabu_update,
)
from qals.core import identity_permutation
from qals.fileio import solve_report_to_json
from qals.solver import (
    _named_streams,
    _temperature,
    accept_suboptimal,
    modify_permutation,
    perturb_candidate,
    update_lambda,
    update_p,
)


def literal_solve(problem, graph, sampler, params):
    n = problem.n
    streams = _named_streams(params.seed)
    perm, pert, acc, samp = (streams[s] for s in ("permutation", "perturbation", "acceptance", "sampler"))

    def anneal(coefficients, sigma):
        theta = encode(coefficients, sigma, graph)
        return decode(estimate_argmin(sampler, theta, params.k, samp), sigma)

    sigma1 = modify_permutation(identity_permutation(n), 1.0, perm)
    sigma2 = modify_permutation(identity_permutation(n), 1.0, perm)
    z1, z2 = anneal(problem.q, sigma1), anneal(problem.q, sigma2)
    f1, f2 = objective(problem, z1), objective(problem, z2)
    if f1 < f2:
        z_star, f_star, sigma_star, z_prime = z1, f1, sigma1, z2
    else:
        z_star, f_star, sigma_star, z_prime = z2, f2, sigma2, z1
    tabu = tabu_init(z_prime) if f1 != f2 else TabuMatrix.zeros(n)
    lam, p, i, e, d = params.lambda0, 1.0, 0, 0, 0
    z_best, f_best, best_found_at, evaluations, trace = z_star, f_star, 0, 2, []
    while True:
        if i % params.N == 0:
            p = update_p(p, params.p_delta, params.eta)
        sigma = modify_permutation(sigma_star, p, perm)
        z_prime = anneal(problem.q + lam * tabu.s, sigma)
        if pert.random() < params.q:
            z_prime = perturb_candidate(z_prime, p, pert)
        f_prime, accepted, improved = None, False, False
        if not np.array_equal(z_prime, z_star):
            f_prime = objective(problem, z_prime)
            evaluations += 1
            if f_prime < f_best:
                z_best, f_best, best_found_at = z_prime, f_prime, i + 1
            if f_prime < f_star:
                z_prime, z_star, f_star, sigma_star, e, d = z_star, z_prime, f_prime, sigma, 0, 0
                tabu = tabu_update(tabu, z_prime)
                accepted = improved = True
            else:
                d += 1
                if accept_suboptimal(p, f_prime, f_star, acc):
                    z_prime, z_star, f_star, sigma_star, e = z_star, z_prime, f_prime, sigma, 0
                    accepted = True
            lam = update_lambda(params.lambda0, i, e)
        else:
            e += 1
        trace.append(dict(i=i, p=p, temperature=_temperature(p), lam=lam, f_prime=f_prime,
                          accepted=accepted, improved=improved, e=e, d=d))
        i += 1
        if i == params.i_max or (e + d >= params.N_max and d < params.d_min):
            report = (z_star, f_star, z_best, f_best, i, evaluations, best_found_at, tabu)
            return SolveReport(*report, seed=params.seed, trace=trace)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["uniform", "quarter", "ternary"]))
    entry = {
        "uniform": st.floats(-1.0, 1.0),
        "quarter": st.integers(-8, 8).map(lambda v: v / 4),
        "ternary": st.sampled_from([-1.0, 0.0, 1.0]),
    }[kind]
    a = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    return QuboProblem(np.triu(a) + np.triu(a, 1).T)


drawn_params = st.builds(
    QalsParams,
    p_delta=st.floats(0.01, 0.49),
    eta=st.floats(0.01, 0.99),
    q=st.floats(0.05, 1.0),
    N=st.integers(1, 5),
    lambda0=st.floats(0.1, 4.0),
    k=st.integers(1, 4),
    i_max=st.integers(1, 39),
    N_max=st.integers(1, 10),
    d_min=st.integers(1, 10),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=150)
@given(problems(), st.booleans(), drawn_params)
def test_solve_matches_the_literal_loop(problem, ring, params):
    n = problem.n
    graph = TopologyGraph(n, [(i, (i + 1) % n) for i in range(n) if n > 1]) if ring else complete_graph(n)
    for backend in (RandomSampler, ExactSampler, lambda: MetropolisSampler(2)):
        got = solve(problem, graph, backend(), params, record_trace=True)
        expected = literal_solve(problem, graph, backend(), params)
        assert solve_report_to_json(got) == solve_report_to_json(expected)
        np.testing.assert_array_equal(got.tabu.s, expected.tabu.s)
