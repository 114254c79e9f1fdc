"""Dense float64 arrays with reverse-mode automatic differentiation.

Every tensor in this package -- model inputs, parameters, intermediates --
is a :class:`DiffArray` wrapping a float64 ndarray.  Operations record a
graph of parent links plus backward closures (a tape in reverse
topological order); :func:`backward` on a scalar loss replays it and
accumulates gradients into every tracked ancestor.

Conventions:

- float64 everywhere; the tight gradient-check tolerances in the test
  suite depend on it
- first-order gradients only; calling backward twice without zeroing
  accumulates
- elementwise ops broadcast by numpy rules; gradients of broadcast
  operands are summed back down to the operand shape
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    NumericError,
)

Array = np.ndarray


class DiffArray:
    """A float64 array that can participate in gradient tracking.

    ``grad`` stays ``None`` until a backward pass reaches this node;
    repeated backward passes accumulate into it.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad: bool = False):
        self.values: Array = np.asarray(values, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[DiffArray, ...] = ()
        self._backprop: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"DiffArray(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None


def parameter(values) -> DiffArray:
    """A tracked leaf array (model weight)."""
    return DiffArray(values, requires_grad=True)


def _lift(x) -> DiffArray:
    return x if isinstance(x, DiffArray) else DiffArray(x)


def _node(values: Array, parents: Sequence[DiffArray], backprop) -> DiffArray:
    out = DiffArray(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


def _accum(node: DiffArray, g: Array) -> None:
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = np.array(np.broadcast_to(g, node.values.shape))
    else:
        node.grad += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: DiffArray, b: DiffArray, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> DiffArray:
    a, b = _lift(a), _lift(b)
    _check_broadcast(a, b, "add")
    out = a.values + b.values

    def backprop(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(out, (a, b), backprop)


def sub(a, b) -> DiffArray:
    a, b = _lift(a), _lift(b)
    _check_broadcast(a, b, "sub")
    out = a.values - b.values

    def backprop(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _node(out, (a, b), backprop)


def mul(a, b) -> DiffArray:
    """Elementwise (Hadamard) product with broadcasting."""
    a, b = _lift(a), _lift(b)
    _check_broadcast(a, b, "mul")
    out = a.values * b.values

    def backprop(g):
        _accum(a, _unbroadcast(g * b.values, a.shape))
        _accum(b, _unbroadcast(g * a.values, b.shape))

    return _node(out, (a, b), backprop)


def div(a, b) -> DiffArray:
    a, b = _lift(a), _lift(b)
    _check_broadcast(a, b, "div")
    out = a.values / b.values

    def backprop(g):
        _accum(a, _unbroadcast(g / b.values, a.shape))
        _accum(b, _unbroadcast(-g * a.values / (b.values * b.values), b.shape))

    return _node(out, (a, b), backprop)


def scale(x, factor: float) -> DiffArray:
    """Multiply by a python scalar."""
    x = _lift(x)
    factor = float(factor)
    out = x.values * factor

    def backprop(g):
        _accum(x, g * factor)

    return _node(out, (x,), backprop)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> DiffArray:
    """Matrix product; inputs need >= 2 dims, leading dims broadcast."""
    a, b = _lift(a), _lift(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise DimensionError(
            f"matmul: operands need at least 2 dims, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions differ, got {a.shape} @ {b.shape}"
        )
    out = a.values @ b.values

    def backprop(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.shape))
        if b.requires_grad:
            if b.values.ndim == 2:
                # collapse stacked dims into one BLAS call
                k = a.shape[-1]
                n = g.shape[-1]
                _accum(b, a.values.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accum(b, _unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.shape))

    return _node(out, (a, b), backprop)


def same_conv_matrix(taps, length: int) -> DiffArray:
    """Banded (Toeplitz) [length, length] matrix of a same-padded cross-correlation.

    ``(M @ v)[i] = sum_j taps[j] * v[i + j - (K - 1) // 2]``, with zeros
    outside ``v``; ``taps`` holds the K taps in any shape (read flattened).
    The matrix is a gather from the taps, so its gradient is a bincount
    over the gather index.
    """
    taps = _lift(taps)
    ksize = taps.size
    index = _same_conv_index(ksize, int(length))
    out = np.append(taps.values.reshape(-1), 0.0)[index]

    def backprop(g):
        grad = np.bincount(index.reshape(-1), weights=g.reshape(-1), minlength=ksize + 1)
        _accum(taps, grad[:ksize].reshape(taps.shape))

    return _node(out, (taps,), backprop)


@lru_cache(maxsize=32)
def _same_conv_index(ksize: int, length: int) -> Array:
    """Tap index j of each matrix entry [i, c]; ``ksize`` marks a zero entry."""
    pos = np.arange(length)
    index = pos[None, :] - pos[:, None] + (ksize - 1) // 2
    index[(index < 0) | (index >= ksize)] = ksize
    index.setflags(write=False)
    return index


def conv1d(x, kernels, padding: str = "same", groups: int = 1) -> DiffArray:
    """Depthwise same-padded 1-D cross-correlation along the last axis.

    Parameters
    ----------
    x : DiffArray or array, shape [..., C, L]
    kernels : DiffArray or array, shape [C, 1, K], one kernel per channel
    padding : only "same" (output length == L, stride 1)
    groups : must equal C

    Every other fixed convolution in the model runs as a matmul against
    :func:`same_conv_matrix`; any other mode raises :class:`ConfigError`.
    """
    x, k = _lift(x), _lift(kernels)
    if x.values.ndim < 2:
        raise DimensionError(f"conv1d: input needs (channels, length) dims, got {x.shape}")
    if k.values.ndim != 3:
        raise DimensionError(f"conv1d: kernels need (C, 1, K) dims, got {k.shape}")
    channels, length = x.shape[-2], x.shape[-1]
    if padding != "same" or groups != channels or k.shape[:2] != (channels, 1):
        raise ConfigError(
            f"conv1d: only the depthwise 'same' mode is supported (kernels [C, 1, K], "
            f"groups == C); got padding={padding!r}, groups={groups}, kernels {k.shape} "
            f"for {channels} input channels"
        )
    ksize = k.shape[-1]
    left = (ksize - 1) // 2
    taps = k.values.reshape(channels, ksize)
    xp = np.pad(x.values.reshape(-1, channels, length),
                ((0, 0), (0, 0), (left, ksize - 1 - left)))
    y = np.zeros((xp.shape[0], channels, length))
    for j in range(ksize):
        y += xp[..., j : j + length] * taps[:, j][:, None]

    def backprop(g):
        gg = g.reshape(-1, channels, length)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for j in range(ksize):
                dxp[..., j : j + length] += gg * taps[:, j][:, None]
            _accum(x, dxp[..., left : left + length].reshape(x.shape))
        if k.requires_grad:
            dk = np.zeros((channels, ksize))
            for j in range(ksize):
                dk[:, j] = np.sum(gg * xp[..., j : j + length], axis=(0, 2))
            _accum(k, dk.reshape(k.shape))

    return _node(y.reshape(x.shape), (x, k), backprop)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape) -> DiffArray:
    x = _lift(x)
    out = x.values.reshape(shape)

    def backprop(g):
        _accum(x, g.reshape(x.shape))

    return _node(out, (x,), backprop)


def swapaxes(x, a: int, b: int) -> DiffArray:
    x = _lift(x)
    out = np.swapaxes(x.values, a, b)

    def backprop(g):
        _accum(x, np.swapaxes(g, a, b))

    return _node(out, (x,), backprop)


def concat(parts: Sequence, axis: int = -1) -> DiffArray:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ContractError("concat: need at least one array")
    out = np.concatenate([p.values for p in parts], axis=axis)
    ax = axis % out.ndim
    sizes = [p.shape[ax] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backprop(g):
        for p, s0, s1 in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[ax] = slice(int(s0), int(s1))
                _accum(p, g[tuple(sl)])

    return _node(out, tuple(parts), backprop)


# ---------------------------------------------------------------------------
# reductions and elementwise nonlinearities


def _expand_reduced(g: Array, shape: tuple[int, ...], axis, keepdims: bool) -> Array:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(x, axis=None, keepdims: bool = False) -> DiffArray:
    x = _lift(x)
    out = np.sum(x.values, axis=axis, keepdims=keepdims)

    def backprop(g):
        _accum(x, _expand_reduced(g, x.shape, axis, keepdims))

    return _node(out, (x,), backprop)


def reduce_mean(x, axis=None, keepdims: bool = False) -> DiffArray:
    x = _lift(x)
    out = np.mean(x.values, axis=axis, keepdims=keepdims)
    count = x.values.size if axis is None else x.values.size // out.size if out.size else 1

    def backprop(g):
        _accum(x, _expand_reduced(g / count, x.shape, axis, keepdims))

    return _node(out, (x,), backprop)


def sqrt(x) -> DiffArray:
    x = _lift(x)
    out = np.sqrt(x.values)

    def backprop(g):
        _accum(x, g * 0.5 / out)

    return _node(out, (x,), backprop)


def absolute(x) -> DiffArray:
    """|x| with subgradient 0 at exact zeros."""
    x = _lift(x)
    out = np.abs(x.values)

    def backprop(g):
        _accum(x, g * np.sign(x.values))

    return _node(out, (x,), backprop)


def clamp_min(x, floor: float) -> DiffArray:
    """max(x, floor); clamped coordinates get zero gradient."""
    x = _lift(x)
    floor = float(floor)
    out = np.maximum(x.values, floor)

    def backprop(g):
        _accum(x, g * (x.values > floor))

    return _node(out, (x,), backprop)


def silu(x) -> DiffArray:
    """Smooth ramp activation x * sigmoid(x)."""
    x = _lift(x)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x.values))
    out = x.values * sig

    def backprop(g):
        _accum(x, g * sig * (1.0 + x.values * (1.0 - sig)))

    return _node(out, (x,), backprop)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: DiffArray) -> None:
    """Populate grads of every tracked node reachable from a scalar loss."""
    if loss.values.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo: list[DiffArray] = []
    visited: set[int] = set()
    stack: list[tuple[DiffArray, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    _accum(loss, np.ones_like(loss.values))
    for node in reversed(topo):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)


def zero_grads(params: Sequence[DiffArray]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Adam optimizer


@dataclass
class AdamState:
    """Per-parameter moment buffers plus optimizer hyperparameters."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: list[Array] = field(default_factory=list)
    second_moment: list[Array] = field(default_factory=list)


def adam_step(params: Sequence[DiffArray], grads: Sequence[Array], state: AdamState) -> None:
    """One in-place Adam update with bias correction.

    Aborts (raising :class:`NumericError`, parameters untouched) if any
    gradient contains non-finite values.
    """
    params = list(params)
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(params) != len(grads):
        raise ContractError(f"adam_step: {len(params)} params but {len(grads)} grads")
    for p, g in zip(params, grads):
        if g.shape != p.shape:
            raise DimensionError(f"adam_step: grad shape {g.shape} != param shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError("adam_step: non-finite gradient, update aborted")
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p.values) for p in params]
        state.second_moment = [np.zeros_like(p.values) for p in params]
    if len(state.first_moment) != len(params):
        raise ContractError("adam_step: state was initialized for a different parameter set")

    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.values -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


def clip_global_norm(grads: Sequence[Array], max_norm: float) -> float:
    """Scale grads in place so their joint L2 norm is at most max_norm."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


# ---------------------------------------------------------------------------
# named-array container (checkpoints)

_MAGIC = b"FTMX"
CONTAINER_VERSION = 1


def save_arrays(path, arrays: dict[str, Array], metadata: dict | None = None) -> None:
    """Write named float64 arrays plus a JSON metadata blob.

    Binary layout: magic, u32 version, u32 metadata length + UTF-8 JSON,
    u32 entry count, then per entry: u16 name length + name, u8 ndim,
    u32 dims, little-endian float64 payload.  Round trips bit-exactly.
    """
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", CONTAINER_VERSION))
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            a = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", a.ndim))
            if a.ndim:
                f.write(struct.pack(f"<{a.ndim}I", *a.shape))
            f.write(a.tobytes())


def load_arrays(path) -> tuple[dict[str, Array], dict]:
    """Inverse of :func:`save_arrays`.

    An unreadable, truncated or malformed file, or one with bytes after
    its last entry, raises :class:`DataError`.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    if raw[:4] != _MAGIC:
        raise DataError(f"{path}: not a ftmixer checkpoint (bad magic)")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if n > len(raw) - off:
            raise DataError(
                f"{path}: truncated checkpoint ({n} bytes needed at offset {off}, "
                f"file has {len(raw)})"
            )
        off += n
        return raw[off - n : off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (version,) = unpack("<I")
    if version != CONTAINER_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = unpack("<I")
    try:
        metadata = json.loads(take(meta_len))
    except ValueError as exc:
        raise DataError(f"{path}: checkpoint metadata is not valid JSON: {exc}") from None
    if not isinstance(metadata, dict):
        raise DataError(f"{path}: checkpoint metadata is not a JSON object")
    (count,) = unpack("<I")
    arrays: dict[str, Array] = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: checkpoint entry name is not UTF-8") from None
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I") if ndim else ()
        payload = take(8 * math.prod(shape))
        # own, writeable copy
        arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} unexpected bytes after the last entry")
    return arrays, metadata
