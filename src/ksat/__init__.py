"""Knowledge-infused self-attention over short posts.

A four-layer attention stack whose layers correspond to screening outcomes
of increasing severity. Each layer carries a learned knowledge token, a
data-driven context token, a sigmoid-gated mix between them, and a
graph-context penalty: a nonpositive term added to every outcome logit of
its layer, which pulls sentences close in the concept graph toward similar
knowledge-token contributions. Everything runs on numpy with hand-derived
gradients; a finite-difference checker keeps the math honest.
"""

from .annotation import (
    AnnotationParams,
    GridSearchResult,
    apply_annotations,
    bernoulli_log_likelihood,
    default_params,
    grid_search,
)
from .corpus import (
    Dataset,
    Post,
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    split,
)
from .embeddings import EmbeddingConfig, cosine_similarity, embed_text, load_embeddings
from .errors import DataFormatError, KsatError, NumericalError
from .knowledge import (
    LAYER_ORDER,
    N_OUTCOMES,
    Concept,
    KnowledgeTree,
    Outcome,
    default_tree,
    load_taxonomy,
)
from .model import (
    KsatLayerParams,
    KsatModel,
    aggregate_probs,
    forward,
    kg_bias,
    layer_forward,
    layer_probabilities,
    load_model,
    normalize_probs,
    predict,
    save_model,
)
from .training import (
    GradientReport,
    Gradients,
    TrainConfig,
    TrainResult,
    backward,
    finite_diff_check,
    gradient_report,
    loss,
    train,
)
from .analysis import (
    Metrics,
    auc_roc,
    binary_auc,
    compute_metrics,
    confusion_matrix,
    contribution_report,
    distance_report,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationParams",
    "Concept",
    "DataFormatError",
    "Dataset",
    "EmbeddingConfig",
    "GradientReport",
    "Gradients",
    "GridSearchResult",
    "KnowledgeTree",
    "KsatError",
    "KsatLayerParams",
    "KsatModel",
    "LAYER_ORDER",
    "Metrics",
    "N_OUTCOMES",
    "NumericalError",
    "Outcome",
    "Post",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "aggregate_probs",
    "apply_annotations",
    "auc_roc",
    "backward",
    "bernoulli_log_likelihood",
    "binary_auc",
    "compute_metrics",
    "confusion_matrix",
    "contribution_report",
    "cosine_similarity",
    "default_params",
    "default_synthetic_spec",
    "default_tree",
    "distance_report",
    "embed_text",
    "finite_diff_check",
    "forward",
    "generate_synthetic",
    "gradient_report",
    "grid_search",
    "kg_bias",
    "layer_forward",
    "layer_probabilities",
    "load_embeddings",
    "load_jsonl",
    "load_model",
    "load_taxonomy",
    "loss",
    "normalize_probs",
    "predict",
    "save_jsonl",
    "save_model",
    "split",
    "train",
]
