"""Cross-lingual sentence-embedding alignment and isomorphism toolkit.

Quantifies how well the per-language subspaces of a shared sentence-embedding
space align (bitext-retrieval F1, average margin score) and how isomorphic
they are (singular value gap, effective-condition-number harmonic mean, and a
Gromov-Hausdorff proxy via bottleneck distance), then relates those metrics to
linguistic and training-data predictors with a battery of statistical
analyses.
"""

from .corpus import (
    BitextPair,
    Corpus,
    EmbeddingMatrix,
    LanguageMeta,
    WordOrder,
    align_pair,
    load_corpus,
    load_embeddings,
    load_language_table,
    save_embeddings,
)
from .features import (
    FEATURE_NAMES,
    PairFeatureVector,
    pair_features,
    training_aggregates,
    typological_distance,
)
from .isomorphism import (
    PersistenceDiagram,
    SingularSpectrum,
    bottleneck_distance,
    econd_hm,
    effective_condition_number,
    effective_rank,
    gh_distance,
    persistence_diagram_0d,
    singular_values,
    svg,
)
from .knn import NeighborList, cosine, knn_search
from .mining import (
    MinedAlignment,
    RetrievalScore,
    average_margin,
    mine_intersection,
    retrieval_f1,
)
from .pipeline import (
    AlignmentMetrics,
    METRIC_NAMES,
    RunConfig,
    compute_pair_metrics,
    group_metrics_by_word_order_class,
    load_config,
    per_language_metrics,
    run_case_study_compare,
    run_pair_metrics,
    run_report,
    run_zero_shot_analysis,
)
from .stats import (
    AnovaResult,
    ablation_single_step,
    adjusted_r2,
    ancova,
    anova_oneway,
    feature_search_report,
    pca,
    pcr,
    pearson,
    semipartial,
    tukey_hsd,
)

__version__ = "0.1.0"
