"""Verification lab for cocycles of circle homeomorphisms over shifts of finite type."""

from .circlemaps import (
    MetricReport,
    PLMap,
    circle_norm,
    compose,
    fb_family,
    holder_constant,
    invert,
    lipschitz_metric,
    lipschitz_seminorm_diff,
    metric_report,
    uniform_distance,
)
from .cocycles import (
    CocycleSpec,
    DistortionReport,
    DominationReport,
    check_bounded_distortion,
    check_domination,
    holder_const_cocycle,
    iterate,
    power_domination,
)
from .holonomy import (
    AxiomReport,
    ConvergenceTable,
    HolonomyResult,
    gamma_budget,
    holonomy_convergence_table,
    stable_holonomy,
    transport,
    unstable_holonomy,
    verify_holonomy_axioms,
)
from .rigidity import (
    MeasurableConjugacy,
    RigidityReport,
    WindowRule,
    regularize,
)
from .symbolic import (
    MarkovMeasure,
    PseudoOrbit,
    SFTSpace,
    SymbolicPoint,
    bracket,
    closing_point,
    closing_point_range,
    distance,
    distance_exponent,
    homoclinic_points,
    periodic_points,
    resample_future,
    resample_past,
    sample_measure,
    splice,
    stable_agreement_onset,
    unstable_agreement_onset,
    verify_closing_bound,
)
from .transfer import (
    ResidualReport,
    TransferMap,
    build_transfer,
    check_periodic_data,
    estimate_holder,
    holder_regression,
    verify_cohomology,
    verify_lemma1,
)

__version__ = "0.1.0"
