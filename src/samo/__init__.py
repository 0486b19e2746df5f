"""Surrogate-assisted multi-objective optimization toolkit.

Alternates cheap surrogate models (RBF interpolants or small neural
networks) with multi-objective optimizers (an elitist genetic algorithm or
multi-start multiple-gradient descent), resampling the expensive model at
k-means centroids of each surrogate Pareto set until consecutive fronts
stabilize in Hausdorff distance.
"""

from .core import (
    BoxBounds,
    Dataset,
    DecisionVector,
    ObjectiveVector,
    ParetoApproximation,
    Sample,
    SamoError,
    clamp_to_bounds,
    dominates,
    hausdorff_distance,
    non_dominated_filter,
)
from .driver import RunRecord, SamoConfig, check_convergence, igd, sample_size_study, samo_run
from .mgda import MgdaConfig, common_descent_direction, kkt_residual, mgda_run, multistart_mgda
from .moea import MoeaConfig, nsga2_run
from .problems import (
    Excitation,
    Problem,
    QuarterCarParams,
    Trajectory,
    amplitude,
    evaluate_mbs,
    make_analytic_problem,
    make_quarter_car_problem,
    simulate_quarter_car,
)
from .sampling import SamplePlan, kmeans, latin_hypercube, pareto_informed_samples
from .surrogate import (
    MlpModel,
    RbfModel,
    Scaler,
    TrainConfig,
    fit_mlp,
    fit_rbf,
    select_rbf_width,
)

__version__ = "0.1.0"
