"""KL-divergence influence of observations in hidden Markov models.

Core pieces: scaled forward-backward inference, the linear-time influence
profile with its windowed extension and reference oracles, Baum-Welch
training, and an outlier-detection benchmark (cluster z-scores, local
outlier factor, empirical AUC).
"""

__version__ = "0.1.0"

from .inference import ForwardBackward, forward_backward, posterior_marginals
from .influence import (
    InfluenceProfile,
    LeaveOneOutImpossibleError,
    StarForward,
    WindowInfluenceProfile,
    forward_star,
    kl_divergence,
    kld_influence,
    loo_marginal,
    windowed_influence,
)
from .model import (
    DiscreteEmission,
    EvidenceImpossibleError,
    GaussianEmission,
    HmmModel,
    ModelError,
    ObservationSequence,
    sample,
)
from .outliers import (
    BenchmarkRow,
    LofStatResult,
    RocResult,
    ScoredReplicate,
    SimulationConfig,
    ZScoreResult,
    empirical_auc,
    lof_scores,
    lof_statistic,
    run_benchmark,
    simulate,
    z_value_scores,
)
from .reference import kld_influence_naive
from .training import (
    DegenerateFitError,
    EmConfig,
    EmResult,
    canonical_state_order,
    em_fit,
    kmeans_1d,
    reorder_states,
)

__all__ = [
    "BenchmarkRow",
    "DegenerateFitError",
    "DiscreteEmission",
    "EmConfig",
    "EmResult",
    "EvidenceImpossibleError",
    "ForwardBackward",
    "GaussianEmission",
    "HmmModel",
    "InfluenceProfile",
    "LeaveOneOutImpossibleError",
    "LofStatResult",
    "ModelError",
    "ObservationSequence",
    "RocResult",
    "ScoredReplicate",
    "SimulationConfig",
    "StarForward",
    "WindowInfluenceProfile",
    "ZScoreResult",
    "canonical_state_order",
    "em_fit",
    "empirical_auc",
    "forward_backward",
    "forward_star",
    "kl_divergence",
    "kld_influence",
    "kld_influence_naive",
    "kmeans_1d",
    "lof_scores",
    "lof_statistic",
    "loo_marginal",
    "posterior_marginals",
    "reorder_states",
    "run_benchmark",
    "sample",
    "simulate",
    "windowed_influence",
    "z_value_scores",
]
