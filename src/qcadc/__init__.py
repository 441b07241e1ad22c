"""Non-unitary quantum cellular automata on periodic qubit rings.

Simulation engine for density classification and majority voting: Kraus
channels and Lindbladians assembled as sparse superoperators, discrete
partitioned stepping, continuous flows with a classical diagonal fast path,
generator spectra, and an exact classical bitstring track.
"""
from .config import ENGINE_VERSION as __version__
from .superop import (
    VecState, LocalOperator, SuperOp, LindbladSpec,
    vectorize, devectorize, embed_local, kraus_to_superop,
    assemble_lindbladian, apply_adjoint_generator,
)
from .models import (
    FuksParams, DephasingParams, MLWeights,
    fuks_step, fuks_lindblad, dephasing_lindblad,
    mv_spread_step, mv_consensus_step, mv_lindblads, mv_layer_counts, mv_pad,
    fates_step, ml_lindblad, published_ml_weights, steady_family_state,
)
from .evolve import (
    EvolutionResult, discrete_run, continuous_evolve, diagonal_rate_matrix,
    converge_to_fixed_point, mv_worst_case_times,
)
from .spectra import spectrum, steady_state_basis, gap_scan, loglog_fit
from .observables import (
    expval_sz, density_n, density_profile, project_alpha_beta,
    physicality_check,
)
from .classical import (
    eca_step, fuks_classical_step, mv_classify, tau_formula,
    gamma_p_relation, p_from_gamma_tau,
)
