"""Multi-class anomaly score distribution alignment toolkit."""

from .align import (
    ClassStats,
    DegenerateScaleWarning,
    align_maps,
    class_scales,
    fit_class_stats,
    normalize_meanmax,
    scale_by_class,
)
from .heads import (
    HeadConfig,
    HeadModel,
    TrainConfig,
    predict_class,
    predict_stats,
    predicted_scale,
    train_classifier,
    train_regressor,
)
from .metrics import (
    MetricsReport,
    UndefinedMetricError,
    auroc,
    average_precision,
    evaluate,
    image_score,
)
from .synth import SynthConfig, fit_coreset, generate, score_knn
from .tensorio import (
    DatasetManifest,
    ImageEntry,
    ManifestError,
    TensorFormatError,
    read_manifest,
    read_tensor,
    write_manifest,
    write_tensor,
)

__version__ = "0.1.0"
