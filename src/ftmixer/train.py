"""Training loop, evaluation sweep, early stopping, variant runners."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import data as data_mod
from . import diffarray as da
from . import loss_metrics
from .data import SeriesDataset, iter_batches, window_samples
from .errors import ConfigError, NumericError
from .model import (
    ABLATIONS,
    FtMixerParams,
    ModelConfig,
    default_patch_scales,
    ftmixer_forward,
    save_checkpoint,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    patience: int = 5
    seed: int = 0
    ablation: str = "full"
    clip_norm: float = 5.0
    eval_batch_size: int = 256

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(
                f"unknown ablation {self.ablation!r}; expected one of {ABLATIONS}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunReport:
    """Per-epoch loss history plus the test metrics of the best checkpoint."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    test_mse: float = float("nan")
    test_mae: float = float("nan")
    wall_seconds: float = 0.0
    model_config: dict = field(default_factory=dict)
    train_config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "test_mse": self.test_mse,
            "test_mae": self.test_mae,
            "wall_seconds": self.wall_seconds,
            "model_config": self.model_config,
            "train_config": self.train_config,
        }


def evaluate(
    params: FtMixerParams,
    model_config: ModelConfig,
    dataset: SeriesDataset,
    split: str,
    batch_size: int = 256,
    ablation: str = "full",
) -> dict:
    """Stride-1 metrics over every window of a split, tail batch included."""
    if model_config.channels != dataset.channels:
        raise ConfigError(
            f"checkpoint expects {model_config.channels} channels, dataset has "
            f"{dataset.channels}"
        )
    starts = window_samples(dataset, split, model_config.lookback, model_config.horizon)
    sq_sum = 0.0
    abs_sum = 0.0
    elems = 0
    for batch in iter_batches(
        dataset, starts, model_config.lookback, model_config.horizon, batch_size
    ):
        pred = ftmixer_forward(batch.inputs, params, model_config, ablation=ablation).values
        diff = pred - batch.targets
        sq_sum += float(np.sum(diff * diff))
        abs_sum += float(np.sum(np.abs(diff)))
        elems += diff.size
    return {
        "mse": sq_sum / elems,
        "mae": abs_sum / elems,
        "horizon": model_config.horizon,
        "dataset": dataset.name,
        "split": split,
        "samples": int(len(starts)),
    }


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    dataset: SeriesDataset,
    checkpoint_path=None,
) -> tuple[RunReport, FtMixerParams]:
    """Adam on the dual-domain loss with per-epoch validation.

    Keeps the parameters of the epoch with the best validation MSE (saved
    to ``checkpoint_path`` on every improvement when given) and reports
    test metrics from that checkpoint.  A non-finite loss aborts with
    :class:`NumericError`; the last good checkpoint stays on disk.
    """
    if model_config.channels != dataset.channels:
        raise ConfigError(
            f"model expects {model_config.channels} channels, dataset has "
            f"{dataset.channels}"
        )
    started = time.perf_counter()
    lookback, horizon = model_config.lookback, model_config.horizon
    train_starts = window_samples(dataset, "train", lookback, horizon)
    params = FtMixerParams.initialize(model_config)
    adam = da.AdamState(learning_rate=train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    report = RunReport(
        model_config=model_config.to_dict(), train_config=train_config.to_dict()
    )
    ablation = train_config.ablation
    checkpoint_meta = {"train_config": train_config.to_dict(), "dataset": dataset.name}

    best_val = float("inf")
    best_values: dict[str, np.ndarray] | None = None
    stale_epochs = 0
    for epoch in range(train_config.epochs):
        order = rng.permutation(train_starts)
        time_sum = freq_sum = total_sum = 0.0
        seen = 0
        grad_norms = []
        for batch in iter_batches(
            dataset, order, lookback, horizon, train_config.batch_size
        ):
            try:
                prediction = ftmixer_forward(
                    batch.inputs, params, model_config, ablation=ablation
                )
                loss = loss_metrics.dual_domain_loss(batch.targets, prediction)
                finite = np.isfinite(loss.total)
            except NumericError as exc:
                raise NumericError(
                    f"numeric failure at epoch {epoch}, sample offset {seen}: {exc}; "
                    f"aborting (best checkpoint is from epoch {report.best_epoch})"
                ) from None
            if not finite:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, sample offset {seen}; "
                    f"aborting (best checkpoint is from epoch {report.best_epoch})"
                )
            if ablation == "no_freq_loss":
                objective = loss.time_node
            elif ablation == "no_time_loss":
                objective = loss.freq_node
            else:
                objective = loss.total_node
            da.zero_grads(params.all())
            da.backward(objective)
            grads = [
                p.grad if p.grad is not None else np.zeros_like(p.values)
                for p in params.all()
            ]
            grad_norms.append(da.clip_global_norm(grads, train_config.clip_norm))
            da.adam_step(params.all(), grads, adam)
            n = batch.inputs.shape[0]
            time_sum += loss.time_loss * n
            freq_sum += loss.freq_loss * n
            total_sum += loss.total * n
            seen += n
        val = evaluate(
            params,
            model_config,
            dataset,
            "val",
            batch_size=train_config.eval_batch_size,
            ablation=ablation,
        )
        record = {
            "epoch": epoch,
            "time_loss": time_sum / seen,
            "freq_loss": freq_sum / seen,
            "total": total_sum / seen,
            "val_mse": val["mse"],
            # pre-clip global gradient norm over the epoch's steps
            "grad_norm_mean": float(np.mean(grad_norms)),
            "grad_norm_max": float(np.max(grad_norms)),
            "clipped_share": float(np.mean(np.array(grad_norms) > train_config.clip_norm)),
        }
        report.epochs.append(record)
        log.info(
            "epoch %d: train total %.6f (time %.6f, freq %.6f), val mse %.6f",
            epoch, record["total"], record["time_loss"], record["freq_loss"], val["mse"],
        )
        if val["mse"] < best_val:
            best_val = val["mse"]
            report.best_epoch = epoch
            best_values = params.copy_values()
            stale_epochs = 0
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, params, checkpoint_meta)
        else:
            stale_epochs += 1
            if stale_epochs >= train_config.patience:
                log.info("early stop at epoch %d (patience %d)", epoch, train_config.patience)
                break

    if best_values is not None:
        params.load_values(best_values)
    test = evaluate(
        params,
        model_config,
        dataset,
        "test",
        batch_size=train_config.eval_batch_size,
        ablation=ablation,
    )
    report.test_mse = test["mse"]
    report.test_mae = test["mae"]
    report.wall_seconds = time.perf_counter() - started
    return report, params


def run_length_sweep(
    raw_dataset: SeriesDataset,
    ratios: tuple[float, float, float],
    lengths: tuple[int, ...],
    horizon: int,
    train_config: TrainConfig,
    base_config: ModelConfig | None = None,
) -> list[dict]:
    """One trained model per lookback length; returns MSE/MAE table rows.

    Patch scales are re-derived per length so every scale divides it.
    """
    rows = []
    for lookback in lengths:
        kwargs = dict(
            lookback=int(lookback),
            horizon=horizon,
            channels=raw_dataset.channels,
            patch_scales=default_patch_scales(int(lookback)),
        )
        if base_config is not None:
            kwargs.update(
                fcc_embed_dim=base_config.fcc_embed_dim,
                patch_embed_dim=base_config.patch_embed_dim,
                wfc_kernel_size=base_config.wfc_kernel_size,
                ds_dw_kernel_size=base_config.ds_dw_kernel_size,
                revin_epsilon=base_config.revin_epsilon,
            )
        kwargs["seed"] = train_config.seed
        config = ModelConfig(**kwargs)
        prepared = data_mod.prepare(raw_dataset, ratios, config.lookback, horizon)
        report, _ = train(config, train_config, prepared)
        log.info(
            "sweep lookback %d: test mse %.6f, mae %.6f",
            lookback, report.test_mse, report.test_mae,
        )
        rows.append(
            {"lookback": int(lookback), "mse": report.test_mse, "mae": report.test_mae}
        )
    return rows
