"""Geometric decoherence-decoupling toolkit for bilinear quantum control systems.

Decides open- and closed-loop decouplability of a coherence output from
the system-environment interaction, synthesizes the classical state
feedback u = alpha(xi) + beta(xi) v that renders the output immune to the
coupling, and verifies everything by direct simulation.
"""

from .algebra import (
    DEFAULT_TOL,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HilbertSpace,
    Operator,
    StateVector,
    basis_state,
    commutator,
    embed_product,
    field_quadrature,
    ladder_pair,
    lie_closure,
    normalize,
    number_operator,
    random_state,
)
from .models import (
    SCENARIOS,
    ControlSystem,
    ScenarioParams,
    build_bait,
    build_commutant_toy,
    build_restructured,
    build_scenario,
    build_single_qubit,
    build_two_qubit,
    dfs_state,
)
from .spans import realified_rank
from .observation import (
    OperatorSpan,
    Verdict,
    build_c_tilde,
    check_closed_loop_necessary,
    check_open_loop,
)
from .tangent import (
    CodistributionBasis,
    DistributionBasis,
    NonRegularPointError,
    bracket_linear_fields,
    bruteforce_invariant_distribution,
    check_controlled_invariance,
    eval_field,
    hermitian_derivative_chain,
    kernel_dy,
    minimal_interaction_distribution,
    omega_closure_closed,
    omega_closure_open,
    output_covectors,
)
from .feedback import (
    CommutingFrame,
    FeedbackLaw,
    FramePlan,
    FrameResult,
    RankDeficiencyError,
    SynthesisError,
    build_frame,
    closed_loop_generator,
    commutant_basis,
    synthesize,
)
from .simulate import (
    CbhReport,
    NormDriftError,
    PulseSchedule,
    Trace,
    cbh_order_check,
    decoupling_pair,
    effective_direction_overlap,
    hsb_generation_search,
    maneuver_schedule,
    propagate,
    propagate_closed_loop,
    verify_commutator_chain,
)

__version__ = "0.1.0"
