"""DCT-based frequency/time-domain mixing forecaster."""

from .diffarray import AdamState, DiffArray, adam_step, backward, parameter
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    FtMixerError,
    NumericError,
    ParseError,
)
from .loss_metrics import LossBreakdown, dual_domain_loss, mae, mse
from .model import (
    FtMixerParams,
    ModelConfig,
    ftmixer_forward,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .spectral import dct, dft_symmetric_extension_oracle, idct
# ``train`` the function stays at ``ftmixer.train.train``: re-exported here it
# would shadow the submodule of the same name.
from .train import RunReport, TrainConfig, evaluate, run_length_sweep

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ConfigError",
    "ContractError",
    "DataError",
    "DiffArray",
    "DimensionError",
    "FtMixerError",
    "FtMixerParams",
    "LossBreakdown",
    "ModelConfig",
    "NumericError",
    "ParseError",
    "RunReport",
    "TrainConfig",
    "adam_step",
    "backward",
    "dct",
    "dft_symmetric_extension_oracle",
    "dual_domain_loss",
    "evaluate",
    "ftmixer_forward",
    "idct",
    "load_checkpoint",
    "mae",
    "mse",
    "param_count",
    "parameter",
    "run_length_sweep",
    "save_checkpoint",
]
