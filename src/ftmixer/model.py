"""The forecasting network: instance norm, frequency mixing, prediction.

Data flow for one instance (N channels, lookback L, horizon tau):

1. reversible per-channel standardization over the lookback window
2. global branch: per-channel spectrum of the full window, linear
   embedding L -> D_f, a convolution along the channel axis mixing the
   N series at every embedded position, inverse transform over D_f
3. local branch, per channel and per window scale w: split into L/w
   patches, per-patch spectrum, convolution across frequency bins,
   inverse transform, residual add of the raw patch, embedding w -> D_p;
   scales are concatenated along the patch axis
4. the local branch is mixed by a depthwise (per-feature, along the
   patch axis of all channels joined end to end) plus pointwise conv and
   a SiLU, one ``diffarray.separable_conv`` node, then projected per
   channel to D_f so both branches can be summed
5. a shared linear head maps D_f -> tau per channel, and the instance
   statistics from step 1 are restored

The fixed maps in steps 2 and 3 (cosine bases, the banded matrices of
the channel and bin convolutions) are folded into the learned matrices
next to them: the global branch runs as ``idct(T_N(k) @ (x @ (F_L @ W)
+ b))`` and each local scale as ``patches @ ((I + F_w T_w(k)^T F_w^-1)
@ E_w) + b_w``.  The parameters are the unfolded ones.  The blocks fetch
these folds through ``FtMixerParams.fold``: a tracked set rebuilds them on
every forward, the untracked ``FtMixerParams.frozen()`` set used for
evaluation builds them once.

On a frozen set the linear head of step 5 also folds into both branches,
since everything after each branch's last nonlinearity is linear: the
global branch runs as ``T_N(k) @ (x @ A + c)`` with ``A = F_L @ W @
F_{D_f}^-1 @ P`` ([L, tau]) and ``c = b @ F_{D_f}^-1 @ P``, so its inverse
transform goes away, and the local branch's projection is ``flat @
(W_ds @ P) + b_ds @ P``; the forward adds the head bias to their sum.
That cuts the multiply-adds per window from 2.64M to 2.07M at the paper
shape.  A tracked set keeps the unfolded head: a fold per training step
would cost more than it saves (45M against 41M multiply-adds at B=32).

All entry points accept an optional leading batch dimension.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, fields

import numpy as np

from . import diffarray as da
from . import spectral
from .diffarray import DiffArray
from .errors import ConfigError, ContractError, DataError, DimensionError, NumericError

ABLATIONS = ("full", "no_fcc", "no_wfc", "no_freq_loss", "no_time_loss")


@dataclass(frozen=True)
class ModelConfig:
    lookback: int
    horizon: int
    channels: int
    fcc_embed_dim: int = 128
    patch_scales: tuple[int, ...] | None = None  # None -> default_patch_scales(lookback)
    patch_embed_dim: int = 64
    fcc_kernel_size: int | None = None  # None -> channel count (full cross-channel view)
    wfc_kernel_size: int = 3
    ds_dw_kernel_size: int = 3
    revin_epsilon: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        require_int_fields(self)
        scales = self.patch_scales
        if scales is None:
            scales = default_patch_scales(self.lookback)
        object.__setattr__(self, "patch_scales", tuple(_as_int("patch scale", w) for w in scales))
        for name in ("lookback", "horizon", "channels", "fcc_embed_dim", "patch_embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lookback < 2:
            raise ConfigError("lookback must be >= 2 for instance statistics")
        if not self.patch_scales:
            raise ConfigError("patch_scales must not be empty")
        for w in self.patch_scales:
            if w < 1 or self.lookback % w:
                raise ConfigError(
                    f"patch scale {w} must divide lookback {self.lookback}"
                )
        if len(set(self.patch_scales)) != len(self.patch_scales):
            raise ConfigError(f"duplicate patch scales: {self.patch_scales}")
        for name in ("wfc_kernel_size", "ds_dw_kernel_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.fcc_kernel_size is not None and self.fcc_kernel_size < 1:
            raise ConfigError(f"fcc_kernel_size must be >= 1, got {self.fcc_kernel_size}")
        if not 0 < self.revin_epsilon < np.inf:
            raise ConfigError(f"revin_epsilon must be finite and > 0, got {self.revin_epsilon}")

    @property
    def fcc_kernel(self) -> int:
        return self.fcc_kernel_size if self.fcc_kernel_size is not None else self.channels

    @property
    def total_patches(self) -> int:
        return sum(self.lookback // w for w in self.patch_scales)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["patch_scales"] = list(self.patch_scales)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["patch_scales"] = tuple(d["patch_scales"])
        return cls(**d)


def _as_int(name: str, value) -> int:
    """``value`` as an int; ConfigError unless it is integral (NaN, inf,
    2.5 and "3" are not)."""
    if isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_int_fields(config) -> None:
    """Coerce every int field of a frozen config dataclass to int, raising
    ConfigError for one that is not integral (``int | None`` may be None)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" or (f.type == "int | None" and value is not None):
            object.__setattr__(config, f.name, _as_int(f.name, value))


def default_patch_scales(lookback: int) -> tuple[int, ...]:
    """Two largest candidate scales dividing the lookback with >= 4 patches each."""
    chosen = []
    for w in (48, 24, 12, 8, 6, 4, 3, 2):
        if lookback % w == 0 and lookback // w >= 4:
            chosen.append(w)
        if len(chosen) == 2:
            break
    if not chosen:
        return (1,)
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# parameters


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], int]]:
    """Ordered name -> (shape, fan_in) map; the single source of truth for
    initialization, counting, and checkpoint validation."""
    L, tau, N = config.lookback, config.horizon, config.channels
    df, dp = config.fcc_embed_dim, config.patch_embed_dim
    spec: dict[str, tuple[tuple[int, ...], int]] = {
        "fcc_embed_w": ((L, df), L),
        "fcc_embed_b": ((df,), L),
        "fcc_conv_k": ((1, 1, config.fcc_kernel), config.fcc_kernel),
    }
    for w in config.patch_scales:
        spec[f"wfc_conv_k_{w}"] = ((1, 1, config.wfc_kernel_size), config.wfc_kernel_size)
        spec[f"wfc_embed_w_{w}"] = ((w, dp), w)
        spec[f"wfc_embed_b_{w}"] = ((dp,), w)
    flat = config.total_patches * dp
    spec["ds_dw_k"] = ((dp, 1, config.ds_dw_kernel_size), config.ds_dw_kernel_size)
    spec["ds_pw_k"] = ((dp, dp, 1), dp)
    spec["ds_proj_w"] = ((flat, df), flat)
    spec["ds_proj_b"] = ((df,), flat)
    spec["pred_w"] = ((df, tau), df)
    spec["pred_b"] = ((tau,), df)
    return spec


def param_count(config: ModelConfig) -> int:
    """Learnable-parameter count for a configuration."""
    return sum(math.prod(shape) for shape, _ in parameter_shapes(config).values())


class FtMixerParams:
    """The complete learnable parameter set, addressable by name."""

    def __init__(self, config: ModelConfig, entries: dict[str, DiffArray]):
        spec = parameter_shapes(config)
        if set(entries) != set(spec):
            missing = sorted(set(spec) - set(entries))
            extra = sorted(set(entries) - set(spec))
            raise ContractError(f"parameter names mismatch: missing={missing} extra={extra}")
        for name, (shape, _) in spec.items():
            if entries[name].shape != shape:
                raise ContractError(
                    f"parameter {name}: expected shape {shape}, got {entries[name].shape}"
                )
        self.config = config
        self._order = list(spec)
        self._entries = entries
        self._folds: dict[str, DiffArray] | None = None  # memo of a frozen set
        self._fold_lock = threading.RLock()

    @classmethod
    def initialize(cls, config: ModelConfig) -> "FtMixerParams":
        """Seeded uniform init in +-1/sqrt(fan_in) per layer."""
        rng = np.random.default_rng(config.seed)
        entries = {}
        for name, (shape, fan_in) in parameter_shapes(config).items():
            bound = 1.0 / np.sqrt(fan_in)
            entries[name] = da.parameter(rng.uniform(-bound, bound, size=shape))
        return cls(config, entries)

    def __getitem__(self, name: str) -> DiffArray:
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._order)

    def all(self) -> list[DiffArray]:
        return [self._entries[name] for name in self._order]

    def frozen(self) -> "FtMixerParams":
        """An untracked set over read-only views of the current values.

        Nothing is copied, and no forward through the frozen set records a
        tape, so its intermediates are freed as soon as they are used.  The
        set memoizes the fixed-map folds the blocks fetch through
        :meth:`fold` (``T_N(k)`` of the global branch, each local scale's
        patch map), built on first use.  Its forward also folds the head
        into both branches (:attr:`is_frozen`), memoized the same way: the
        global branch's ``F_L @ W @ F^-1 @ P`` and ``b @ F^-1 @ P``, the
        local branch's ``W_ds @ P`` and ``b_ds @ P``.  Those folds are only
        valid while the values stay as they were when the set was made, and
        an optimizer step changes them in place; so build a frozen set for
        one evaluation or prediction and never keep it.  Within that use,
        threads may share the set: its forward only reads, and :meth:`fold`
        builds each fold once however many threads ask for it first.
        """
        entries = {}
        for name in self._order:
            view = self._entries[name].values.view()
            view.flags.writeable = False
            entries[name] = DiffArray(view)
        frozen = FtMixerParams(self.config, entries)
        frozen._folds = {}
        return frozen

    def replica(self) -> "FtMixerParams":
        """A tracked set whose leaves hold this set's value arrays, uncopied.

        Its leaves keep their own ``grad``, so threads that each run a
        forward and backward on their own replica do not share gradients,
        while an in-place optimizer step on this set shows in every
        replica.
        """
        entries = {name: da.parameter(self._entries[name].values) for name in self._order}
        return FtMixerParams(self.config, entries)

    @property
    def is_frozen(self) -> bool:
        """True for a set made by :meth:`frozen`: its forward folds the head
        into both branches."""
        return self._folds is not None

    def fold(self, key: str, build) -> DiffArray:
        """``build()``, memoized under ``key`` on a frozen set.

        A tracked set builds on every call: its values change between
        forwards, and the gradient flows through the fold to them.  On a
        frozen set the lookup and the build hold a lock, so threads that
        ask for one key at once get one build between them.
        """
        if self._folds is None:
            return build()
        with self._fold_lock:
            if key not in self._folds:
                self._folds[key] = build()
            return self._folds[key]


def save_checkpoint(path, params: FtMixerParams, extra_metadata: dict | None = None) -> None:
    meta = {"model_config": params.config.to_dict()}
    if extra_metadata:
        meta.update(extra_metadata)
    da.save_arrays(path, {n: params[n].values for n in params.names()}, meta)


def load_checkpoint(path) -> tuple[FtMixerParams, dict]:
    """Parameters and metadata of a checkpoint; any defect, a non-finite
    parameter value included, raises DataError."""
    arrays, meta = da.load_arrays(path)
    try:
        config = ModelConfig.from_dict(meta["model_config"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: missing or malformed model_config: {exc!r}") from None
    entries = {name: da.parameter(arr) for name, arr in arrays.items()}
    try:
        params = FtMixerParams(config, entries)
    except ContractError as exc:
        raise DataError(f"{path}: parameters do not match model_config: {exc}") from None
    for name in params.names():
        if not np.isfinite(params[name].values).all():
            raise DataError(f"{path}: parameter {name} holds a non-finite value")
    return params, meta


# ---------------------------------------------------------------------------
# reversible instance normalization


@dataclass
class RevinState:
    """Per-instance, per-channel lookback statistics, shape [..., N, 1]."""

    mean: DiffArray
    std: DiffArray


def revin_normalize(x, epsilon: float) -> tuple[DiffArray, RevinState]:
    """Standardize each channel by its own lookback mean and std.

    The std is floored at ``epsilon`` (the variance is clamped before the
    square root so zero-variance channels keep finite gradients).
    """
    x = da._lift(x)
    if x.values.ndim < 2 or x.shape[-1] < 2:
        raise ContractError(f"revin_normalize: need [..., N, L>=2], got {x.shape}")
    mean = da.reduce_mean(x, axis=-1)
    centered = da.sub(x, mean)
    var = da.reduce_mean(da.mul(centered, centered), axis=-1)
    std = da.sqrt(da.clamp_min(var, epsilon * epsilon))
    return da.div(centered, std), RevinState(mean=mean, std=std)


def revin_denormalize(y, state: RevinState) -> DiffArray:
    """Invert :func:`revin_normalize` on a horizon window."""
    y = da._lift(y)
    channels = state.mean.shape[-2]
    if y.values.ndim < 2 or y.shape[-2] != channels:
        raise ContractError(
            f"revin_denormalize: prediction has {y.shape} but state has {channels} channels"
        )
    return da.add(da.mul(y, state.std), state.mean)


# ---------------------------------------------------------------------------
# network blocks


def _fold_head(params: FtMixerParams, branch: str, weight, bias_row):
    """``(weight() @ P, bias_row() @ P)`` with the head's ``P = pred_w``,
    fetched through :meth:`FtMixerParams.fold` as ``{branch}_head_w`` and
    ``{branch}_head_b``; ``bias_row()`` is [1, D_f]."""
    pred_w = params["pred_w"]
    return (
        params.fold(f"{branch}_head_w", lambda: da.matmul(weight(), pred_w)),
        params.fold(f"{branch}_head_b", lambda: da.matmul(bias_row(), pred_w)),
    )


def fcc_forward(x, params: FtMixerParams, config: ModelConfig) -> DiffArray:
    """Global branch: [..., N, L] -> [..., N, D_f].

    Per-channel spectrum over the full window, shared linear embedding
    L -> D_f, then a same-padded convolution along the channel axis at
    every embedded position, and an inverse transform over D_f.  Runs as
    ``idct(T_N(k) @ (x @ (F_L @ W) + b))``: the spectrum folds into the
    embedding and the channel conv is its banded matrix T_N(k).

    On a frozen set (:attr:`FtMixerParams.is_frozen`) the branch's share
    of the prediction head (``pred_w``, not its bias) is applied too,
    giving [..., N, tau]: the inverse transform and ``pred_w`` fold into
    the embedding, ``T_N(k) @ (x @ A + c)`` with ``A = F_L @ W @ F^-1 @
    P`` and ``c = b @ F^-1 @ P``.
    """
    x = da._lift(x)
    if x.shape[-2:] != (config.channels, config.lookback):
        raise DimensionError(
            f"fcc_forward: expected [..., {config.channels}, {config.lookback}], "
            f"got {x.shape}"
        )
    across = params.fold("fcc_across", lambda: da.same_conv_matrix(
        params["fcc_conv_k"], config.channels))
    spectrum = spectral.basis_pair(config.lookback)[0]
    if params.is_frozen:
        inverse = spectral.basis_pair(config.fcc_embed_dim)[1]
        embed, bias = _fold_head(
            params, "fcc",
            lambda: da.matmul(da.matmul(spectrum, params["fcc_embed_w"]), inverse),
            lambda: da.matmul(da.reshape(params["fcc_embed_b"], (1, -1)), inverse),
        )
        return da.matmul(across, da.matmul(x, embed, bias))
    spectrum_embed = params.fold("fcc_spectrum_embed", lambda: da.matmul(
        spectrum, params["fcc_embed_w"]))
    embedded = da.matmul(x, spectrum_embed, params["fcc_embed_b"])
    return spectral.idct(da.matmul(across, embedded))


def wfc_forward(x, params: FtMixerParams, scale: int) -> DiffArray:
    """Local branch for one channel and one scale: [..., L] -> [..., L/w, D_p].

    Non-overlapping patches are transformed, convolved across frequency
    bins, inverted, residually combined with the raw patch, and embedded.
    All of that but the bias is one [w, D_p] matrix per scale,
    ``(I + F_w T_w(k)^T F_w^-1) @ E_w``, applied to every patch.
    """
    x = da._lift(x)
    length = x.shape[-1]
    if scale < 1 or scale > length:
        raise ConfigError(f"wfc_forward: scale {scale} invalid for length {length}")
    if length % scale:
        raise ConfigError(f"wfc_forward: scale {scale} does not divide length {length}")
    try:
        kernel = params[f"wfc_conv_k_{scale}"]
        embed_w = params[f"wfc_embed_w_{scale}"]
        embed_b = params[f"wfc_embed_b_{scale}"]
    except KeyError:
        raise ConfigError(f"wfc_forward: no parameters for scale {scale}") from None
    n = length // scale
    patches = da.reshape(x, x.shape[:-1] + (n, scale))

    def build_patch_map():
        forward_basis, inverse_basis = spectral.basis_pair(scale)
        bins = da.swapaxes(da.same_conv_matrix(kernel, scale), 0, 1)  # T_w(k)^T
        spectral_mix = da.matmul(da.matmul(forward_basis, bins), inverse_basis)
        return da.matmul(da.add(np.eye(scale), spectral_mix), embed_w)

    patch_map = params.fold(f"wfc_patch_map_{scale}", build_patch_map)
    return da.matmul(patches, patch_map, embed_b)


def ds_conv(z, params: FtMixerParams, config: ModelConfig) -> DiffArray:
    """Separable-convolution mixer: [..., N, n_tot, D_p] -> [..., N, D_f].

    :func:`diffarray.separable_conv` runs the depthwise conv (``ds_dw_k``,
    along the N channels' patches joined end to end, ``N * n_tot`` rows
    per window), the pointwise conv (``ds_pw_k``) and the SiLU; a learned
    per-channel projection of the flattened patch features then aligns
    the output with the global branch.

    On a frozen set the branch's share of the prediction head (``pred_w``,
    not its bias) is folded into the projection, giving [..., N, tau]:
    ``flat @ (W_ds @ P) + b_ds @ P``.
    """
    z = da._lift(z)
    n_tot, dp = config.total_patches, config.patch_embed_dim
    if z.shape[-3:] != (config.channels, n_tot, dp):
        raise DimensionError(
            f"ds_conv: expected [..., {config.channels}, {n_tot}, {dp}], got {z.shape}"
        )
    mixed = da.separable_conv(z, params["ds_dw_k"], params["ds_pw_k"],
                              segment=config.channels * n_tot)
    flat_dim = n_tot * dp
    flat = da.reshape(mixed, mixed.shape[:-2] + (flat_dim,))
    if params.is_frozen:
        proj, bias = _fold_head(
            params, "ds",
            lambda: params["ds_proj_w"],
            lambda: da.reshape(params["ds_proj_b"], (1, -1)),
        )
        return da.matmul(flat, proj, bias)
    return da.matmul(flat, params["ds_proj_w"], params["ds_proj_b"])


def ftmixer_forward(x, params: FtMixerParams, config: ModelConfig,
                    ablation: str = "full") -> DiffArray:
    """Full forward pass: [..., N, L] -> [..., N, tau].

    ``ablation`` may disable one branch ("no_fcc" keeps only the local
    branch, "no_wfc" only the global one); loss-side ablation values
    leave the forward untouched.

    An input that is not a :class:`DiffArray` is taken as one C-ordered
    float64 array, copied once if it is not one already (a strided view
    from :func:`~ftmixer.data.gather_batch`): numpy would carry a view's
    layout into every elementwise result and turn the branches' reshapes
    into copies.
    """
    if ablation not in ABLATIONS:
        raise ConfigError(f"unknown ablation {ablation!r}; expected one of {ABLATIONS}")
    if not isinstance(x, DiffArray):
        x = DiffArray(np.asarray(x, dtype=np.float64, order="C"))
    if x.shape[-2:] != (config.channels, config.lookback):
        raise DimensionError(
            f"ftmixer_forward: expected [..., {config.channels}, {config.lookback}], "
            f"got {x.shape}"
        )
    if not np.all(np.isfinite(x.values)):
        raise NumericError("ftmixer_forward: input contains non-finite values")
    normalized, state = revin_normalize(x, config.revin_epsilon)

    z = None
    if ablation != "no_fcc":
        z = fcc_forward(normalized, params, config)
    if ablation != "no_wfc":
        per_scale = [wfc_forward(normalized, params, w) for w in config.patch_scales]
        local = per_scale[0] if len(per_scale) == 1 else da.concat(per_scale, axis=-2)
        z_ds = ds_conv(local, params, config)
        z = z_ds if z is None else da.add(z, z_ds)

    if params.is_frozen:  # the branches applied pred_w themselves
        predicted = da.add(z, params["pred_b"])
    else:
        predicted = da.matmul(z, params["pred_w"], params["pred_b"])
    return revin_denormalize(predicted, state)
