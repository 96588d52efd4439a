"""Link prediction on small graphs.

Local neighborhood similarity indices, the random-walk-with-restart global
index, and walk-based node embeddings with a logistic edge classifier, all
evaluated through a sampling AUC estimator and a paired repeated-partition
experiment harness.
"""

from .evaluate import (
    AucTally,
    ExperimentResult,
    LevelSummary,
    Scorer,
    ScorerFactory,
    TrialRecord,
    derive_seed,
    draw_comparisons,
    estimate_auc,
    paired_difference,
    run_experiment,
    summarize,
    write_records_csv,
    write_summary_csv,
)
from .graph import (
    EdgeListParseError,
    EdgePartition,
    Graph,
    SaturatedNodeError,
    load_edge_list,
    sample_non_neighbor,
    split_edges,
)
from .indices import (
    LOCAL_INDICES,
    adamic_adar,
    common_neighbors,
    hub_depressed,
    hub_promoted,
    lhn1,
    lhn1_variant,
)
from .pipelines import embedding_factory, local_index_factory, rwr_factory
from .predictor import (
    LogisticModel,
    build_training_set,
    edge_features,
    predict_score,
    train_logistic,
)
from .rwr import RwrModel, build_rwr, build_transition, rwr_score
from .skipgram import (
    EmbeddingModel,
    EmbeddingParseError,
    TrainConfig,
    load_embedding,
    pair_stream,
    save_embedding,
    sgns_step,
    train,
)
from .walks import (
    AliasEntry,
    AliasTable,
    WalkParams,
    alias_distribution,
    alias_draw,
    build_alias_table,
    generate_corpus,
    restart_walk,
    transition_weight,
    weighted_walk,
)

__version__ = "0.1.0"
