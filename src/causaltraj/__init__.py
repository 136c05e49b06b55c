"""Temporally causal, likelihood-based multi-agent trajectory forecasting."""

from .errors import (
    CausalTrajError,
    ConfigError,
    DataError,
    GradCheckError,
    GraphReleasedError,
    ParameterizationError,
    ShapeError,
    TrajectoryFormatError,
)
from .model import ModelConfig, ScenarioSample, TrajectoryModel
from .tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "CausalTrajError",
    "ConfigError",
    "DataError",
    "GradCheckError",
    "GraphReleasedError",
    "ModelConfig",
    "ParameterizationError",
    "ScenarioSample",
    "ShapeError",
    "Tensor",
    "TrajectoryFormatError",
    "TrajectoryModel",
    "no_grad",
    "__version__",
]
