"""Simulation costs of quantum channels under no-signalling assisted codes.

The package computes one-shot and zero-error channel simulation costs,
channel max-information, and diamond-norm distances by building semidefinite
and linear programs and solving them with the built-in conic interior-point
solver in :mod:`nscost.conic`.
"""

from nscost.analytic import (
    ClosedForm,
    certificate,
    closed_form_cost,
    depolarizing_erasure_coincidence,
)
from nscost.conic import (
    Block,
    ConicProblem,
    ConicSolution,
    Constraint,
    HermitianProgram,
    SolverFailure,
    problem_from_json,
    problem_to_json,
    solution_to_json,
    solve,
    solve_many,
    solver_options,
)
from nscost.programs import (
    CertificateCheck,
    CertificatePair,
    CostResult,
    choi_compose,
    cost_result_from_trv,
    diamond_norm_dist,
    max_information,
    min_error_noiseless,
    min_error_simulation,
    one_shot_cost_ns,
    one_shot_cost_ns_ppt,
    robustness,
    smooth_max_information,
    verify_certificate,
    zero_error_cost,
    zero_error_costs,
)
from nscost.qmat import (
    QuantumChannel,
    apply_channel,
    choi_of_kraus,
    compose_channels,
    kron,
    make_channel,
    partial_trace,
    partial_transpose,
    tensor_channels,
    trace_norm_hermitian,
)
from nscost.symmetry import (
    classical_cost_lp,
    depolarizing_cost_lp,
    depolarizing_log2_trv,
    depolarizing_mutual_info,
    depolarizing_sweep,
)

__version__ = "0.1.0"
