"""qinlab: a laboratory for reward mechanisms on query incentive networks."""

__version__ = "0.1.0"

from .querytree import (  # noqa: F401
    AgentReport,
    AllocationPath,
    InvalidTreeError,
    QueryTree,
    ReportProfile,
    allocate,
    derive_reported_tree,
    generate_random_tree,
    generate_trees,
    tied_solvers,
)
from .mechanisms import (  # noqa: F401
    GOLDEN_ALPHA,
    MechanismSpec,
    RewardDomainError,
    RewardVector,
    beta_cp,
    beta_sp,
    dgm,
    delta_geom,
    gcrm,
    gcrm_reward,
    map_rho,
    position_reward,
    reward_vector,
    rewards_for_length,
    specs_for_rho,
    tdgm_reward,
    total_reward_closed_form,
)
from .analytics import (  # noqa: F401
    SybilProfile,
    lambda_prime,
    lambda_star,
    n_prime,
    nearest_positive_int,
    optimal_path_length,
    optimal_sybil_count,
    sybil_factor,
    sybil_profile,
)
from .adversary import (  # noqa: F401
    AttackOutcome,
    apply_sybil_to_tree,
    collusion_gain,
    sybil_gain,
)
from .auditor import (  # noqa: F401
    PropertyReport,
    check_bb,
    check_core,
    check_cp,
    check_ic,
    check_monotone_solver_reward,
    check_po,
    check_sp,
    check_split,
    expected_rewards,
    impossibility_certificate,
    replay_witness,
    reward_table,
)
