"""Training loop, evaluation sweep, early stopping, variant runners."""

from __future__ import annotations

import ctypes
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

# Bytes of that widest activation a training shard must hold to outrun the
# GIL its autodiff bookkeeping takes: a smaller batch trains as one shard.
# Sweep, one train step (forward, loss, backward) serial / on 2 shards, BLAS
# at 1 thread on 2 cores, median of 4 interleaved rounds, by batch bytes:
# 192 KiB (N=1, L=96, B=32) 4.0 / 7.9 ms, 384 KiB 5.9 / 6.8, 672-768 KiB
# 1.08-1.56x slower on 3 of 4 shapes, 1008 KiB (N=3, L=336, B=32) 15.6 /
# 13.1, 1176 KiB 18.0 / 14.0, 2352 KiB (the paper shape, B=32) 40.2 / 25.3.
TRAIN_SHARD_MIN_BYTES = 1 << 19

# glibc's malloc_trim (None elsewhere), which train() calls once its helper
# threads are gone: their malloc arenas keep what they free resident.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


def _workers() -> int:
    """The worker count ``W`` of :func:`evaluate` and :func:`train`: the
    cores the BLAS threads leave free, ``max(1, cpus // blas_threads)``.

    ``cpus`` is the number of CPUs this process may run on
    (``os.sched_getaffinity``, else ``os.cpu_count()``).  ``blas_threads``
    is the first positive integer among ``OPENBLAS_NUM_THREADS``,
    ``MKL_NUM_THREADS`` and ``OMP_NUM_THREADS``; when none is set it is
    ``cpus``, the OpenBLAS and MKL default.  So an environment that leaves
    BLAS threading alone runs serially: its BLAS threads already fill the
    cores, and workers on top only oversubscribe them (measured slower on
    2 cores).
    """
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


def _window_bytes(model_config: ModelConfig) -> int:
    """Bytes of a forward's widest activation per window: float64, ``N``
    rows of the widest of the input, the joined local patches and the
    global embedding."""
    widest = max(
        model_config.lookback,
        model_config.total_patches * model_config.patch_embed_dim,
        model_config.fcc_embed_dim,
    )
    return 8 * model_config.channels * widest


def _map(pool: ThreadPoolExecutor, workers: int, count: int, work) -> list:
    """``[work(0), ..., work(count - 1)]``, run on the calling thread and on
    ``min(workers, count) - 1`` helper threads of ``pool``, which take the
    indices from one shared iterator; numpy releases the GIL inside BLAS
    calls and ufunc loops, so the runs overlap.

    Returns when every run has ended.  An error in any run is raised as
    itself once they all have, the caller's before a helper's.
    """
    results: list = [None] * count
    pending = iter(range(count))

    def drain():
        for i in pending:
            results[i] = work(i)

    running = [pool.submit(drain) for _ in range(min(workers, count) - 1)]
    try:
        drain()
    finally:
        wait(running)
    for future in running:
        future.result()
    return results


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
    forwarded in consecutive row blocks of ``max(1, EVAL_BLOCK_BUDGET //
    _window_bytes(model_config))`` windows, so that a block's widest
    activation stays in cache: 13 windows at the paper shape, where 1 MiB
    tied for fastest in the sweep given at ``EVAL_BLOCK_BUDGET``.  The
    blocks run through :func:`_map` on :func:`_workers` workers; each
    writes only its own rows of the batch's prediction, and the errors
    are summed per batch once every block is done, so the metrics are
    bit-identical for any worker count.
    """
    if model_config.channels != dataset.channels:
        raise ConfigError(
            f"checkpoint expects {model_config.channels} channels, dataset has "
            f"{dataset.channels}"
        )
    starts = window_samples(dataset, split, model_config.lookback, model_config.horizon)
    frozen = params.frozen()
    rows = max(1, EVAL_BLOCK_BUDGET // _window_bytes(model_config))
    workers = _workers()
    sq_sum = 0.0
    abs_sum = 0.0
    elems = 0
    # a pool starts its threads on first submit, so W = 1 starts none
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        for batch in iter_batches(
            dataset, starts, model_config.lookback, model_config.horizon, batch_size
        ):
            pred = np.empty(batch.targets.shape)

            def block(k):
                lo = k * rows
                pred[lo : lo + rows] = ftmixer_forward(
                    batch.inputs[lo : lo + rows], frozen, model_config, ablation=ablation
                ).values

            _map(pool, workers, -(-len(pred) // rows), block)
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


def _shard_step(params: FtMixerParams, inputs, targets, model_config: ModelConfig,
                ablation: str):
    """Forward, loss and backward of one shard on its own tracked ``params``.

    Returns ``((time_loss, freq_loss, total), grads)``: the leaf gradient
    of every parameter (zeros for one the objective does not reach).  A
    loss that is not finite raises :class:`NumericError` before any
    backward.  Only floats and gradients leave, so the graph dies in the
    thread that built it.
    """
    prediction = ftmixer_forward(inputs, params, model_config, ablation=ablation)
    loss = loss_metrics.dual_domain_loss(targets, prediction)
    if not np.isfinite(loss.total):
        raise NumericError("non-finite loss")
    if ablation == "no_freq_loss":
        objective = loss.time_node
    elif ablation == "no_time_loss":
        objective = loss.freq_node
    else:
        objective = loss.total_node
    da.backward(objective)
    return (loss.time_loss, loss.freq_loss, loss.total), [
        p.grad if p.grad is not None else np.zeros_like(p.values) for p in params.all()
    ]


def _batch_step(pool: ThreadPoolExecutor, workers: int, params: FtMixerParams, batch,
                model_config: ModelConfig, ablation: str):
    """Loss components and gradients of one training batch, run as shards.

    The ``n`` windows are split into ``S`` contiguous shards of ``n_i``
    windows (the rule is in :func:`train`), and :func:`_map` runs shard
    ``i`` as :func:`_shard_step` on a fresh :meth:`~FtMixerParams.replica`
    of ``params``, so ``params`` itself never holds a gradient.  Returns
    ``((time_loss, freq_loss, total), grads)``, each the sum over the
    shards, in shard order, of ``n_i / n`` times the shard's own.  With
    ``S = 1`` they are the shard's own, untouched.
    """
    n = batch.inputs.shape[0]
    fits = n * _window_bytes(model_config) // TRAIN_SHARD_MIN_BYTES
    count = max(1, min(workers, n, fits))
    bounds = [i * n // count for i in range(count + 1)]

    def shard(i):
        lo, hi = bounds[i], bounds[i + 1]
        return _shard_step(params.replica(), batch.inputs[lo:hi], batch.targets[lo:hi],
                           model_config, ablation)

    shards = _map(pool, workers, count, shard)
    weights = [(hi - lo) / n for lo, hi in zip(bounds, bounds[1:])]
    losses = tuple(
        sum(weight * shard[0][k] for weight, shard in zip(weights, shards)) for k in range(3)
    )
    grads = shards[0][1]
    if count > 1:
        for g in grads:
            g *= weights[0]
        for weight, (_, shard_grads) in zip(weights[1:], shards[1:]):
            for total, g in zip(grads, shard_grads):
                g *= weight
                total += g
    return losses, grads


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    dataset: SeriesDataset,
    checkpoint_path=None,
) -> tuple[RunReport, FtMixerParams]:
    """Adam on the dual-domain loss with per-epoch validation.

    Keeps the parameters of the epoch with the best validation MSE (saved
    to ``checkpoint_path`` on every improvement when given) and reports
    test metrics from that checkpoint.  A non-finite loss or gradient
    aborts with a :class:`NumericError` that names the epoch and sample
    offset; the last good checkpoint stays on disk.

    Each batch of ``n`` windows runs as ``S = max(1, min(W, n, n * bytes
    // TRAIN_SHARD_MIN_BYTES))`` contiguous shards through
    :func:`_batch_step`: ``W`` is :func:`_workers` and ``bytes`` is
    :func:`_window_bytes`, so a shard holds at least 512 KiB of its widest
    activation (a smaller one runs slower on a thread than in series).  No
    op in the model couples the windows of a batch, so the batch's
    gradient is ``sum_i (n_i / n) * g_i``, summed in shard order before
    clipping and Adam, and the epoch's loss records are weighted the same
    way.  ``S = 1`` runs the whole batch as a serial loop would, bit for
    bit.  A run is deterministic for its ``W``; a run with another ``W``
    agrees with it up to rounding, since the shards sum over their windows
    apart.
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
    workers = _workers()
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
    # a pool starts its threads on first submit, so W = 1 starts none
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        for epoch in range(train_config.epochs):
            order = rng.permutation(train_starts)
            time_sum = freq_sum = total_sum = 0.0
            seen = 0
            grad_norms = []
            for batch in iter_batches(
                dataset, order, lookback, horizon, train_config.batch_size
            ):
                try:
                    losses, grads = _batch_step(pool, workers, params, batch, model_config, ablation)
                    grad_norms.append(da.clip_global_norm(grads, train_config.clip_norm))
                    da.adam_step(params.all(), grads, adam)
                except NumericError as exc:
                    raise NumericError(
                        f"numeric failure at epoch {epoch}, sample offset {seen}: {exc}; "
                        f"aborting (best checkpoint is from epoch {report.best_epoch})"
                    ) from None
                n = batch.inputs.shape[0]
                time_sum += losses[0] * n
                freq_sum += losses[1] * n
                total_sum += losses[2] * n
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
                "clipped_share": float(
                    np.mean(np.array(grad_norms) > train_config.clip_norm)
                ),
            }
            report.epochs.append(record)
            log.info(
                "epoch %d: train total %.6f (time %.6f, freq %.6f), val mse %.6f",
                epoch, record["total"], record["time_loss"], record["freq_loss"],
                val["mse"],
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
                    log.info(
                        "early stop at epoch %d (patience %d)", epoch, train_config.patience
                    )
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
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
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
