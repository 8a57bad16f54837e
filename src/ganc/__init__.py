"""Long-tail novelty preference learning and top-N re-ranking."""

from .dataset import (
    ItemStats,
    Rating,
    SplitDataset,
    activity_popularity_profile,
    compute_item_stats,
    load_ratings,
    min_max_normalize,
    split_per_user,
)
from .preference import (
    PreferenceVector,
    theta_activity,
    theta_baseline,
    theta_generalized,
    theta_normalized_longtail,
    theta_tfidf,
)
from .recommenders import (
    MFModel,
    load_external_scores,
    mf_accuracy_scorer,
    pop_scorer,
    rand_coverage,
    rmse,
    rsvd_train,
    stat_coverage,
)
from .core import (
    OslgRun,
    SnapshotStore,
    TopNCollection,
    independent_greedy,
    kde_sample,
    locally_greedy_full,
    oslg,
)
from .metrics import (
    EvalReport,
    evaluate,
    gini,
)

__version__ = "0.1.0"
