"""Frame-wise sparse mixture routing over stacked layer features, trained
jointly for speech denoising and emotion recognition on synthetic audio."""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config
from .model import JointModel, build_model

__all__ = [
    "ExperimentConfig",
    "JointModel",
    "build_model",
    "load_config",
    "__version__",
]
