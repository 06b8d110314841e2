"""Repetitive-control design toolkit and simulated ventilation testbench."""

from .errors import (
    ConfigurationError,
    DesignError,
    ExperimentDiverged,
    FitConvergenceWarning,
    IdentificationError,
    SingularityError,
    VentrcError,
)
from .lti import (
    DiscreteTransferFunction,
    FirKernel,
    FrequencyResponse,
    StreamingFilter,
    evaluate,
)
from .plant import (
    CircuitParameters,
    PatientScenario,
    VentilatorPlant,
    load_scenario,
    reference_profile,
)
from .sysid import (
    MultisineSpec,
    average_frf,
    estimate_frf,
    fit_rational,
)
from .rc_design import (
    RcFilterSet,
    StabilityReport,
    check_stability,
    default_stability_grid,
    design_pipeline,
    design_q_fir,
    zpetc_invert,
)
from .control_rt import (
    BENCHMARK_INTEGRAL_GAIN,
    IntegralController,
    RepetitiveController,
    VentilatorController,
    benchmark_controller_tf,
)
from .harness import (
    BreathLog,
    ComparisonTable,
    ExperimentSpec,
    compare_runs,
    emit_report,
    run_experiment,
    run_full_pipeline,
)

__version__ = "0.1.0"
