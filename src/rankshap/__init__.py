"""Listwise Shapley feature attribution for ranking models."""

from .attribution import (
    Attribution,
    EstimatorConfig,
    exact_shapley,
    kernel_shap,
    permutation_shapley,
    pointwise_shap_explain,
    rankingshap_explain,
    shapley_weight,
)
from .baselines import FULL, GreedyResult, greedy_attribution, random_attribution
from .data import (
    BackgroundSet,
    Document,
    QueryGroup,
    group_by_query,
    parse_letor,
    sample_background,
    serialize_letor,
)
from .errors import (
    CapacityError,
    DimensionError,
    EstimationError,
    ParseError,
    RankShapError,
)
from .evaluation import (
    EvalReport,
    GroundTruth,
    estimate_ground_truth,
    order_metric,
    run_benchmark,
    stability_curve,
    valdis_metric,
)
from .masking import coalition_to_template
from .objectives import (
    DocRankObjective,
    KendallTauObjective,
    ListwiseObjective,
    TopKTauObjective,
    make_objective,
    reference_ranking,
)
from .rankers import LinearScorer, Scorer, load_scorer, rank
from .synthetic import build_scenarios, run_synthetic, sample_talent_background
from .talent import (
    CANDIDATES,
    TalentCandidate,
    TalentScorer,
    University,
    UniversityScheme,
    talent_features,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
