"""Training loop, evaluation sweep, early stopping, variant runners."""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace

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
    require_int_fields,
    save_checkpoint,
)

log = logging.getLogger(__name__)

# Bytes of the widest per-window activation that one forward of evaluate()
# holds, so that a row block stays in a core's L2 (2 MiB on the 2-core host
# it was tuned on).  Sweep, evaluate() windows/s over 3053 windows at the
# paper shape, B=256, median of 4 interleaved rounds: 128 KiB (1 row) 1235,
# 256 KiB (3) 2161, 512 KiB (6) 2713, 1 MiB (13) 2888, 2 MiB (27) 2909,
# 4 MiB (55) 2634, unblocked (256) 1864.  1 and 2 MiB tie; the smaller
# leaves L2 room for the weights.  Re-measured after the head fold, BLAS at
# 1 thread, median of 8 interleaved rounds, serial / 2 workers: 512 KiB
# (6 rows) 3718 / 5077, 1 MiB (13) 3883 / 6099, 1.5 MiB (20) 3754 / 6352,
# 2 MiB (27) 3846 / 5630.  13 and 20 rows tie within the rounds' spread, so
# the budget stays.
EVAL_BLOCK_BUDGET = 1 << 20


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
        require_int_fields(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("learning_rate", "clip_norm"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eval_batch_size < 1:
            raise ConfigError(f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(
                f"unknown ablation {self.ablation!r}; expected one of {ABLATIONS}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunReport:
    """Per-epoch loss history plus the test metrics of the best checkpoint.

    ``epochs`` holds what a seed determines, so two runs of one seed
    compare equal; wall times are kept beside it (``eval_seconds``, one
    validation pass per epoch) and joined into each epoch's ``eval_s`` by
    :meth:`to_dict`.
    """

    epochs: list[dict] = field(default_factory=list)
    eval_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    test_mse: float = float("nan")
    test_mae: float = float("nan")
    wall_seconds: float = 0.0
    model_config: dict = field(default_factory=dict)
    train_config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epochs": [
                dict(record, eval_s=seconds)
                for record, seconds in zip(self.epochs, self.eval_seconds, strict=True)
            ],
            "best_epoch": self.best_epoch,
            "test_mse": self.test_mse,
            "test_mae": self.test_mae,
            "wall_seconds": self.wall_seconds,
            "model_config": self.model_config,
            "train_config": self.train_config,
        }


def _eval_workers() -> int:
    """The worker count ``W`` of :func:`evaluate`: the cores the BLAS
    threads leave free."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, cpus // blas_threads)


def evaluate(
    params: FtMixerParams,
    model_config: ModelConfig,
    dataset: SeriesDataset,
    split: str,
    batch_size: int = TrainConfig.eval_batch_size,
    ablation: str = "full",
) -> dict:
    """Stride-1 metrics over every window of a split, tail batch included.

    The forwards run on ``params.frozen()``: no tape is recorded and the
    fixed-map folds are built once for the call.  The frozen set lives
    for this call only, because an optimizer step between two calls
    changes the values its folds were built from.

    ``batch_size`` windows are gathered at a time, and each batch is
    forwarded in consecutive row blocks of
    ``max(1, EVAL_BLOCK_BUDGET // (8 * N * max(L, n_tot * D_p, D_f)))``
    windows, so that the widest activation of a block (float64, per
    window ``N`` rows of the widest of the input, the joined local
    patches and the global embedding) stays in cache: 13 windows at the
    paper shape, where 1 MiB tied for fastest in the sweep given at
    ``EVAL_BLOCK_BUDGET``.  Errors are summed per batch.

    The blocks of a batch run on ``W`` workers, the calling thread and
    ``W - 1`` helper threads (no thread when ``W = 1``), which take block
    starts from one shared iterator; numpy releases the GIL inside BLAS
    calls and ufunc loops, so the workers overlap.  ``W = max(1, cpus //
    blas_threads)``.  ``cpus`` is the number of CPUs this process may run
    on (``os.sched_getaffinity``, else ``os.cpu_count()``).
    ``blas_threads`` is the first positive integer among
    ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and ``OMP_NUM_THREADS``;
    when none is set it is ``cpus``, the OpenBLAS and MKL default.  So an
    environment that leaves BLAS threading alone runs serially: its BLAS
    threads already fill the cores, and workers on top only oversubscribe
    them (measured slower on 2 cores).  Each block writes only its own
    rows of the batch's prediction, and the errors are summed once every
    block is done, so the metrics are bit-identical for any ``W``.  An
    error in any block is raised as itself after every worker has
    stopped.
    """
    if model_config.channels != dataset.channels:
        raise ConfigError(
            f"checkpoint expects {model_config.channels} channels, dataset has "
            f"{dataset.channels}"
        )
    starts = window_samples(dataset, split, model_config.lookback, model_config.horizon)
    frozen = params.frozen()
    widest = max(
        model_config.lookback,
        model_config.total_patches * model_config.patch_embed_dim,
        model_config.fcc_embed_dim,
    )
    rows = max(1, EVAL_BLOCK_BUDGET // (8 * model_config.channels * widest))
    helpers = _eval_workers() - 1

    def drain(inputs, pred, blocks):
        """Forward row blocks into ``pred`` until ``blocks`` runs out."""
        for lo in blocks:
            pred[lo : lo + rows] = ftmixer_forward(
                inputs[lo : lo + rows], frozen, model_config, ablation=ablation
            ).values

    sq_sum = 0.0
    abs_sum = 0.0
    elems = 0
    # a pool starts its threads on first submit, so W = 1 starts none
    with ThreadPoolExecutor(max(1, helpers)) as pool:
        for batch in iter_batches(
            dataset, starts, model_config.lookback, model_config.horizon, batch_size
        ):
            pred = np.empty(batch.targets.shape)
            work = (batch.inputs, pred, iter(range(0, len(pred), rows)))
            running = [pool.submit(drain, *work) for _ in range(helpers)]
            try:
                drain(*work)
            finally:
                wait(running)
            for future in running:
                future.result()
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
        eval_started = time.perf_counter()
        val = evaluate(
            params,
            model_config,
            dataset,
            "val",
            batch_size=train_config.eval_batch_size,
            ablation=ablation,
        )
        report.eval_seconds.append(time.perf_counter() - eval_started)
        record = {
            "epoch": epoch,
            "time_loss": time_sum / seen,
            "freq_loss": freq_sum / seen,
            "total": total_sum / seen,
            "val_mse": val["mse"],
            "val_mae": val["mae"],
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

    Each length's model config is ``base_config`` (default: the
    ModelConfig defaults) at that lookback, ``horizon`` and the training
    seed, with patch scales re-derived so every scale divides the length.
    """
    rows = []
    for lookback in lengths:
        per_length = dict(
            lookback=int(lookback),
            horizon=horizon,
            patch_scales=default_patch_scales(int(lookback)),
            seed=train_config.seed,
        )
        if base_config is None:
            config = ModelConfig(channels=raw_dataset.channels, **per_length)
        else:
            config = replace(base_config, **per_length)
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
