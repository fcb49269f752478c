"""Greedy kernel surrogates that warm-start Newton in implicit ODE integration.

Workflow: integrate a parametric problem at a few training parameters,
learn a sparse Gaussian-kernel model of the one-step evolution map, then
use its predictions as Newton starting guesses to cut iterations online.
"""

from .burgers import (
    BurgersGrid,
    burgers_initial,
    burgers_jacobian,
    burgers_rhs,
    make_burgers_problem,
)
from .greedy import (
    GreedyResult,
    TrainConfig,
    TrainingSet,
    greedy_train,
)
from .kernels import GaussianKernel, KernelExpansion
from .model_selection import CrossValidationError, CvConfig, CvResult, select_epsilon
from .ode import (
    PREVIOUS_VALUE,
    Initializer,
    IvpProblem,
    NewtonConfig,
    NewtonStats,
    Trajectory,
    ie_step,
    integrate,
    newton_solve,
    surrogate_initializer,
)
from .pipeline import (
    CaseResult,
    OfflineConfig,
    SurrogateModel,
    assemble_training_set,
    compare_cases,
    load_model,
    offline,
    online,
    save_model,
)
from .problems import available_problems, build_problem, register_problem

__version__ = "0.1.0"

__all__ = [
    "BurgersGrid",
    "burgers_initial",
    "burgers_jacobian",
    "burgers_rhs",
    "make_burgers_problem",
    "GreedyResult",
    "TrainConfig",
    "TrainingSet",
    "greedy_train",
    "GaussianKernel",
    "KernelExpansion",
    "CrossValidationError",
    "CvConfig",
    "CvResult",
    "select_epsilon",
    "PREVIOUS_VALUE",
    "Initializer",
    "IvpProblem",
    "NewtonConfig",
    "NewtonStats",
    "Trajectory",
    "ie_step",
    "integrate",
    "newton_solve",
    "surrogate_initializer",
    "CaseResult",
    "OfflineConfig",
    "SurrogateModel",
    "assemble_training_set",
    "compare_cases",
    "load_model",
    "offline",
    "online",
    "save_model",
    "available_problems",
    "build_problem",
    "register_problem",
    "__version__",
]
