"""Exact verification and brute-force simulation toolkit for an inverse-free
Heisenberg-limited pure-state estimation protocol."""

from .coeffs import (
    CoeffTable,
    ConsistencyError,
    alpha_beta,
    cg_add_box,
    dim_ratio_check,
    f_squared,
    g_coeff,
    shared_radicand,
    telescoping_check,
    xy_squared,
)
from .fidelity import (
    FidelityReport,
    amplitude_reduction_check,
    bound_ratio,
    closed_form_infidelity,
    expected_fidelity,
    fidelity_report,
    infidelity_sum_form,
    optimal_probe,
    plan_queries,
    protocol_probe,
)
from .simulator import (
    CapacityError,
    CGResidual,
    ExtractionError,
    GTVectorSet,
    MCEstimate,
    casimir_eigenvalue,
    extract_gt_vectors,
    mc_estimates,
    verify_cg_embedding,
)
from .young import (
    GammaParams,
    branching_restrictions,
    gamma_chain,
    gamma_content,
    gamma_plus_shape,
    gamma_shape,
    hook_length_dimension,
    interlaces,
    partitions,
    weyl_dimension,
)

__version__ = "0.1.0"
