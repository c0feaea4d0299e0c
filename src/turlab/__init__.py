"""turlab: exact simulation and verification of thermodynamic trade-off
relations for trace-preserving completely positive maps."""

from ._version import __version__
from .errors import (
    AdmissibilityError,
    ContractError,
    DegenerateChannel,
    LayoutError,
    SingularOperator,
)
from .linalg import (
    SubsystemLayout,
    embed_operator,
    hermitian_inverse,
    partial_trace,
)
from .channels import (
    Dilation,
    KrausChannel,
    apply,
    dv0_dtheta,
    ensure_dilation,
    heisenberg,
    kraus_from_unitary,
    perturbed_kraus,
    synthesize_dilation,
)
from .tur import (
    EvolutionBoundReport,
    PurifiedState,
    TurReport,
    check_general_tur,
    check_observable_evolution_bound,
    classical_correlation_bound,
    final_joint_state,
    purify,
    qfi,
    sld,
    survival_activity,
    survival_activity_protocol_sim,
    survival_activity_series,
)
from .protocol import (
    BoundReport,
    ProtocolState,
    ShotResult,
    correlator_bound,
    exact_correlator,
    protocol_correlator,
    protocol_state,
    sample_shots,
    separable_tur_protocol_check,
)
from .harness import (
    ExperimentConfig,
    RunSummary,
    TrialColumns,
    TrialRecord,
    TrialSetup,
    evaluate_trial,
    generate_trial,
    run_experiment,
    summarize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
