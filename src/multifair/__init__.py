"""Bias detection and multi-level, multi-attribute sample reweighting for
tabular binary classification."""

from .data import (
    Dataset,
    GroupAssignment,
    SplitSpec,
    binarize_by_mean,
    binarize_by_threshold,
    load_csv,
    save_csv,
    set_privileged,
    split,
)
from .detection import DetectionConfig, DetectionResult, detect
from .errors import (
    ConfigError,
    DataError,
    DegenerateAttributeError,
    MetricUndefinedError,
    MultifairError,
    PipelineError,
    UnreachableCellError,
)
from .experiment import (
    DatasetConfig,
    ExperimentConfig,
    ExperimentReport,
    GridPoint,
    GridSearchConfig,
    GridSearchResult,
    GridWinnerError,
    ReportRow,
    compute_training_weights,
    emit_detection,
    emit_grid,
    emit_report,
    export_training_weights,
    format_report_table,
    grid_search,
    load_report,
    run_detection,
    run_experiment,
    select_grid_winner,
)
from .metrics import (
    FairnessReport,
    PredictionSet,
    accuracy,
    auprc,
    auroc,
    average_odds_difference,
    disparate_impact,
    equal_opportunity_difference,
    evaluate_fairness,
    statistical_parity_difference,
)
from .model import (
    ModelParams,
    TrainConfig,
    fit,
    predict_scores,
    weighted_loss_and_gradient,
)
from .reweighting import (
    LevelWeightConfig,
    SampleWeights,
    compute_sensitivity_levels,
    m3fair,
    reweight,
    reweight_sequential,
    reweight_single_attribute,
    save_weights_csv,
)

__version__ = "0.1.0"
