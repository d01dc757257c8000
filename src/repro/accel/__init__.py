"""Accelerator layer: EXMA accelerator model, baselines, configs, metrics."""

from .baselines import (
    AcceleratorModel,
    stream_merge_ratio,
    CpuMemoryParameters,
    CpuThroughputModel,
    SoftwareAlgorithm,
    asic_model,
    exma_analytic_model,
    finder_model,
    fpga_model,
    gpu_model,
    medal_model,
    standard_accelerator_suite,
)
from .config import (
    DEFAULT_ACCELERATOR_CONFIG,
    DEFAULT_CPU_CONFIG,
    CpuConfig,
    ExmaAcceleratorConfig,
    ex_2stage_config,
    ex_acc_config,
    exma_full_config,
)
from .exma_accelerator import (
    AcceleratorRunResult,
    ExmaAccelerator,
    WindowedRunResult,
    replay_epoch,
)
from .metrics import ApplicationRun, SearchThroughput, geometric_mean, normalise

__all__ = [
    "AcceleratorModel",
    "CpuMemoryParameters",
    "CpuThroughputModel",
    "SoftwareAlgorithm",
    "asic_model",
    "exma_analytic_model",
    "finder_model",
    "fpga_model",
    "gpu_model",
    "medal_model",
    "standard_accelerator_suite",
    "DEFAULT_ACCELERATOR_CONFIG",
    "DEFAULT_CPU_CONFIG",
    "CpuConfig",
    "ExmaAcceleratorConfig",
    "ex_2stage_config",
    "ex_acc_config",
    "exma_full_config",
    "AcceleratorRunResult",
    "ExmaAccelerator",
    "WindowedRunResult",
    "replay_epoch",
    "stream_merge_ratio",
    "ApplicationRun",
    "SearchThroughput",
    "geometric_mean",
    "normalise",
]
