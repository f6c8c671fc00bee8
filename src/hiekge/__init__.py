"""Knowledge-graph embeddings with joint distance/semantic hierarchical scoring."""

from .baselines import BaselineConfig, BaselineParams
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .evaluator import MetricsReport, RankResult, aggregate_metrics, evaluate, full_report
from .hie_model import HieConfig, HieParams, init_params, score_batch, score_triples
from .kg_data import (
    DataError,
    KnowledgeGraph,
    RelationCategory,
    build_filter_index,
    classify_relations,
    load_kg,
)
from .trainer import NumericError, TrainConfig, grad_check, init_model, train

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig",
    "BaselineParams",
    "Checkpoint",
    "CheckpointError",
    "DataError",
    "HieConfig",
    "HieParams",
    "KnowledgeGraph",
    "MetricsReport",
    "NumericError",
    "RankResult",
    "RelationCategory",
    "TrainConfig",
    "aggregate_metrics",
    "build_filter_index",
    "classify_relations",
    "evaluate",
    "full_report",
    "grad_check",
    "init_model",
    "init_params",
    "load_checkpoint",
    "load_kg",
    "save_checkpoint",
    "score_batch",
    "score_triples",
    "train",
]
