"""Step-level anomaly detection and self-correction for multi-agent traces."""

__version__ = "0.1.0"

from .detector import (
    AnomalyVerdict,
    BackboneSpec,
    DetectorModel,
    DetectorStream,
    score_trajectory,
)
from .embedding import (
    EmbedderSpec,
    embed_step,
    embed_text,
    embed_trajectory,
)
from .trace import (
    DatasetSplit,
    Step,
    Trajectory,
    error_position_histogram,
    load_trajectories,
    parse_trajectory,
    save_trajectories,
    serialize_trajectory,
    split_dataset,
)
from .training import (
    PROFILES,
    Calibration,
    TrainConfig,
    TrainReport,
    calibrate_threshold,
    train,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .correction import (
    CorrectionRequest,
    CorrectionResult,
    apply_correction,
    build_correction_prompt,
    parse_correction_response,
)
from .evaluation import (
    MetricsReport,
    ScoredStep,
    auc_roc,
    compute_metrics,
    embedding_distance_diagnostics,
    score_histogram,
    step_accuracy,
)
from .simulator import (
    AgentSpec,
    FaultSpec,
    MascHook,
    RunReport,
    Topology,
    inject_fault,
    run_trajectory,
    schedule,
)
from .experiment import ExperimentConfig, MascSettings, batch_experiment

__all__ = [
    "AgentSpec",
    "AnomalyVerdict",
    "BackboneSpec",
    "Calibration",
    "CorrectionRequest",
    "CorrectionResult",
    "DatasetSplit",
    "DetectorModel",
    "DetectorStream",
    "EmbedderSpec",
    "ExperimentConfig",
    "FaultSpec",
    "MascHook",
    "MascSettings",
    "MetricsReport",
    "PROFILES",
    "RunReport",
    "ScoredStep",
    "Step",
    "Topology",
    "TrainConfig",
    "TrainReport",
    "Trajectory",
    "apply_correction",
    "auc_roc",
    "batch_experiment",
    "build_correction_prompt",
    "calibrate_threshold",
    "compute_metrics",
    "embed_step",
    "embed_text",
    "embed_trajectory",
    "embedding_distance_diagnostics",
    "error_position_histogram",
    "inject_fault",
    "load_checkpoint",
    "load_trajectories",
    "parse_correction_response",
    "parse_trajectory",
    "run_trajectory",
    "save_checkpoint",
    "save_trajectories",
    "schedule",
    "score_histogram",
    "score_trajectory",
    "serialize_trajectory",
    "split_dataset",
    "step_accuracy",
    "train",
]
