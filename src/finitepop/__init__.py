"""Finite-population causal inference as treatment-wise prediction.

Estimators, assumption auditors, partial-identification bounds, linear
regression tools, and a simulation harness that verifies each estimator's
error guarantee against known ground truth.
"""

from .core import (
    Covariate,
    CovariatePartition,
    FinitePopError,
    FuturePopulation,
    ObservedDataset,
    OracleError,
    PartitionCell,
    PredictorError,
    Row,
    SchemaError,
    SupportError,
    SupportReport,
    Unit,
    approx_eq,
    common_support_check,
    empirical_propensity,
)
from .audit import (
    AuditResult,
    audit_cfd,
    audit_compliance_stability,
    audit_dominance,
    audit_dr_condition,
    audit_ml_groupwise,
    audit_sp,
    avg_signed_difference,
    dominance_holds,
)
from .estimate import (
    CoarsenedMatching,
    EstimateReport,
    ExactMatching,
    External,
    Guarantee,
    PanelDataset,
    Policy,
    Predictor,
    RctConstant,
    Tabular,
    ate_estimate,
    coarsened_matching_estimate,
    did_predict,
    doubly_robust_estimate,
    exact_matching_estimate,
    plugin_estimate,
    policy_value_estimate,
    rct_estimate,
    stochastic_policy_value,
)
from .bounds import (
    BoundReport,
    OutcomeBounds,
    iv_ate_lower_bound,
    iv_ate_lower_bound_randomized,
    robins_manski_bounds,
)
from .regress import (
    LinearModel,
    RankDeficiencyError,
    RegressionReport,
    check_linear_identification,
    fit_linear,
    iv_regression_policy_apo,
    ovb_consistency_check,
    xt_covariance,
)
from .simulate import (
    InstrumentSpec,
    PanelSpec,
    Scenario,
    ScenarioSpec,
    convergence_check,
    generate,
    generate_compliance_stable_scenario,
    generate_panel,
    random_partition_concentration,
    scenario_seed,
)

__version__ = "0.1.0"
