"""End-to-end video anomaly detection with an optimizing inference graph engine.

Pipeline: video source -> preprocessing (resize 256, ten-crop 224, normalize)
-> 3-D convolutional feature extraction with non-local attention -> top-k
feature-magnitude anomaly scoring -> alerting. The extractor runs on a small
compute-graph engine with fusion, emulated-FP16 lowering, and static memory
planning passes, plus a benchmark harness for FPS / memory / FLOP accounting.
"""

from .tensor import F16, F32, Tensor
from .videopre import ClipBatch, NormConstants, RawVideo, SnippetPlan
from .extractor import ExtractorConfig, desk_scale_config, full_scale_config
from .graphopt import ComputeGraph, GraphRunner, MemoryPlan, execute, fuse, lower_precision, optimize, plan_memory
from .rtfm import HeadConfig, MstnConfig, RtfmModel, TrainConfig
from .pipeline import PipelineConfig, ScoreRecord, run_pipeline, run_sequential
from .metrics import roc_auc, video_verdict
from .bench import BenchReport, count_params_flops, measure

__version__ = "0.1.0"

__all__ = [
    "F16", "F32", "Tensor",
    "ClipBatch", "NormConstants", "RawVideo", "SnippetPlan",
    "ExtractorConfig", "desk_scale_config", "full_scale_config",
    "ComputeGraph", "GraphRunner", "MemoryPlan", "execute", "fuse", "lower_precision",
    "optimize", "plan_memory",
    "HeadConfig", "MstnConfig", "RtfmModel", "TrainConfig",
    "PipelineConfig", "ScoreRecord", "run_pipeline", "run_sequential",
    "roc_auc", "video_verdict",
    "BenchReport", "count_params_flops", "measure",
]
