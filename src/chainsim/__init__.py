"""Chain-bankruptcy simulation and calibration for firm transaction networks."""

from .calibration import (
    CalibrationReport,
    FirmSeries,
    FitOptions,
    FitResult,
    PanelSeries,
    UnderdeterminedError,
    average_error,
    fit_all,
    fit_firm,
)
from .cascade import (
    CascadeConfig,
    CascadeResult,
    Evaluation,
    REASON_EQUITY,
    REASON_NOT_REACHED,
    REASON_WEAK_LINK,
    run_cascade,
)
from .econ import (
    Economy,
    FirmParameters,
    FirmState,
    InvestmentDecision,
    MacroSeries,
    PURE_LOSS,
    TransactionNetwork,
    ZERO_REVENUE,
    bankrupt_interaction,
    customer_terms_sum,
    interaction_term,
    is_bankrupt,
    term_rule,
)
from .game import (
    GameConfig,
    NashResult,
    PayoffContext,
    best_response_closed_form,
    nash_solve,
)
from .netgen import (
    EDGE_MODELS,
    GeneratorConfig,
    SimulationResult,
    economy_from_panel,
    forward_simulate,
    generate_economy,
    generate_gdp,
    generate_network,
    generate_params,
    generate_states,
    simulate_economy,
)

__version__ = "0.1.0"
