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
- only leaves (nodes without a backward closure, such as parameters) own
  a writable ``grad``; :func:`clip_global_norm` and :func:`adam_step`
  may write into it.  An interior node keeps the gradient it is handed,
  which may be a read-only view shared with other nodes, and accumulates
  out of place, so no backward closure may write into a gradient it
  receives
- :func:`backward` drops an interior node's gradient as soon as its
  closure has run, so after it returns only leaves hold a ``grad``
- a matmul whose right operand is 2-D runs as one GEMM over the left
  operand's flattened leading dims, forward and backward; a bias given
  to :func:`matmul` is added into the product in place
- no op writes into an operand's values, in its forward or its
  backward: an op writes only into arrays it allocated.  Leaf values
  change only between graphs, by an optimizer step such as
  :func:`adam_step`
- :func:`concat` re-homes its tracked interior parts: each one's
  ``values`` becomes a view of its slice of the output, so the tape
  holds that data once.  By the convention above, a closure that later
  reads a part's values sees the same numbers, through the view or
  through the array it kept
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ContractError, DataError, DimensionError, NumericError

Array = np.ndarray


class DiffArray:
    """A float64 array that can participate in gradient tracking.

    A leaf's ``grad`` stays ``None`` until a backward pass reaches it;
    repeated backward passes accumulate into it.  An interior node holds
    a ``grad`` only while :func:`backward` runs.
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
    if node._backprop is not None:
        # interior: keep the (possibly shared, read-only) array uncopied
        node.grad = g if node.grad is None else node.grad + g
    elif node.grad is None:
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


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b, bias=None) -> DiffArray:
    """Matrix product ``a @ b``, plus ``bias`` if given; inputs need >= 2
    dims, leading dims broadcast.

    A bias needs a 2-D ``b`` and must broadcast against the product
    without widening it.  It is added into the product in place, so no
    separate product array is kept; values and gradients are those of
    ``add(matmul(a, b), bias)``, bit for bit.
    """
    a, b = _lift(a), _lift(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise DimensionError(
            f"matmul: operands need at least 2 dims, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions differ, got {a.shape} @ {b.shape}"
        )
    # numpy runs a stacked product as one small GEMM per leading index;
    # with a 2-D right operand the leading dims collapse into one GEMM
    gemm = b.values.ndim == 2
    k, n = b.shape[-2:]
    if gemm:
        out = (a.values.reshape(-1, k) @ b.values).reshape(a.shape[:-1] + (n,))
    else:
        out = a.values @ b.values
    parents = (a, b)
    if bias is not None:
        bias = _lift(bias)
        try:
            fits = gemm and np.broadcast_shapes(out.shape, bias.shape) == out.shape
        except ValueError:
            fits = False
        if not fits:
            raise DimensionError(f"matmul: bias {bias.shape} does not fit {a.shape} @ {b.shape}")
        out += bias.values
        parents = (a, b, bias)

    def backprop(g):
        if a.requires_grad:
            if gemm:
                _accum(a, (g.reshape(-1, n) @ b.values.T).reshape(a.shape))
            else:
                _accum(a, _unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.shape))
        if b.requires_grad:
            if gemm:
                _accum(b, a.values.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accum(b, _unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.shape))
        if bias is not None:
            _accum(bias, _unbroadcast(g, bias.shape))

    return _node(out, parents, backprop)


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


# Rows per separable_conv block (L2-sized).  Train step p50, paper shape as two 16-window shards,
# BLAS at 1 thread, 256 / 512 / 1024 / 2048 rows: 13.3 / 11.6 / 11.4 / 11.3 ms (four-node
# composition 11.4); train_wide, 512 / 1024 / 2048: 54.6 / 54.4 / 53.1 ms (composition 62.7).
SEPARABLE_BLOCK_ROWS = 1024


def separable_conv(z, dw_k, pw_k, segment: int) -> DiffArray:
    """A depthwise-separable convolution and its SiLU, as one node.

    ``z`` [..., D] is read as rows of D features in memory order, each
    run of ``segment`` rows one sequence.  Per feature, ``dw_k`` [D, 1, K]
    is a same-padded cross-correlation along the sequence, ``deep[i] =
    sum_j dw_k[:, 0, j] * z[i + j - (K - 1) // 2]`` with zeros outside it;
    then ``pre = deep @ pw_k[:, :, 0]^T`` mixes the features, and the
    result is ``pre * sigmoid(pre)`` in ``z``'s shape.

    The rows run in blocks of at most :data:`SEPARABLE_BLOCK_ROWS`, whole
    sequences or part of a long one, and the depthwise output only ever
    fills a block buffer.  A tracked call keeps the output and the SiLU's
    slope, an untracked one the output; the backward recomputes the
    depthwise output and allocates one array of ``z``'s size, its gradient.
    """
    z, dw_k, pw_k = _lift(z), _lift(dw_k), _lift(pw_k)
    dim = z.shape[-1] if z.values.ndim >= 2 else 0
    if (dim < 1 or dw_k.values.ndim != 3 or dw_k.shape[:2] != (dim, 1)
            or pw_k.shape != (dim, dim, 1) or segment < 1 or (z.size // dim) % segment):
        raise DimensionError(f"separable_conv: need z [..., D] of whole {segment}-row "
                             f"sequences, dw_k [D, 1, K] and pw_k [D, D, 1]; got {z.shape}, "
                             f"{dw_k.shape} and {pw_k.shape}")
    ksize, left = dw_k.shape[-1], (dw_k.shape[-1] - 1) // 2
    taps = np.ascontiguousarray(dw_k.values.reshape(dim, ksize).T)  # [K, D]
    mix = pw_k.values.reshape(dim, dim)  # [out, in]
    x = z.values.reshape(-1, segment, dim)
    # (s0, s1, a, b): rows a:b of sequences s0:s1, whole ones if they fit,
    # so a block is contiguous and reshaping it gives a view to write into
    step = max(1, SEPARABLE_BLOCK_ROWS // segment)
    blocks = [(s, min(s + step, len(x)), a, min(a + SEPARABLE_BLOCK_ROWS, segment))
              for s in range(0, len(x), step) for a in range(0, segment, SEPARABLE_BLOCK_ROWS)]
    width = max(((s1 - s0) * (b - a) * dim for s0, s1, a, b in blocks), default=0)
    padded_width = width + ksize * dim * min(step, len(x))

    def padded(buf, m, a, b, before):
        """``buf`` as m sequences' rows from ``a - before``, zero outside; the inside's slices."""
        pad = _head(buf, (m, b - a + ksize - 1, dim))
        lo, hi = max(0, before - a), min(pad.shape[1], segment + before - a)
        pad[:, :lo] = pad[:, hi:] = 0.0
        return pad, slice(lo, hi), slice(a - before + lo, a - before + hi)

    def depthwise(buf, s0, s1, a, b, deep):
        """Rows ``a:b`` of sequences ``s0:s1`` of the depthwise output into ``deep``."""
        pad, inside, rows = padded(buf, s1 - s0, a, b, left)
        pad[:, inside] = x[s0:s1, rows]
        np.einsum("mrkd,kd->mrd", _windows(pad, ksize), taps, out=deep)
        return pad

    out = np.empty(x.shape)
    slope = np.empty(x.shape) if any(p.requires_grad for p in (z, dw_k, pw_k)) else None
    pad_buf, deep_buf, sig_buf = np.empty(padded_width), np.empty(width), np.empty(width)
    with np.errstate(over="ignore"):
        for s0, s1, a, b in blocks:
            n = (s1 - s0) * (b - a)
            deep = _head(deep_buf, (s1 - s0, b - a, dim))
            depthwise(pad_buf, s0, s1, a, b, deep)
            o, s = out[s0:s1, a:b].reshape(n, dim), _head(sig_buf, (n, dim))
            np.matmul(deep.reshape(n, dim), mix.T, out=o)
            np.exp(np.negative(o, out=s), out=s)
            np.reciprocal(np.add(s, 1.0, out=s), out=s)
            o *= s
            if slope is not None:  # silu'(pre) = sig + out - out * sig
                d = slope[s0:s1, a:b].reshape(n, dim)
                np.subtract(o, np.multiply(o, s, out=d), out=d)
                d += s

    def backprop(g):
        g = g.reshape(x.shape)
        dx = np.empty(x.shape)
        dk, dmix = np.zeros((ksize, dim)), np.zeros((dim, dim))
        pad_buf, dd_buf, dpre_buf, deep_buf = (np.empty(padded_width) for _ in range(4))
        for s0, s1, a, b in blocks:
            # deep's gradient dd, padded so that dx[i] = sum_j dd[i - j + left] * tap j
            # is a window sum with the taps reversed (it reads past a partial block)
            m, right = s1 - s0, ksize - 1 - left
            dd, inside, rows = padded(dd_buf, m, a, b, right)
            dpre = np.multiply(g[s0:s1, rows], slope[s0:s1, rows],
                               out=_head(dpre_buf, (m, rows.stop - rows.start, dim)))
            deep = _head(deep_buf, (m, b - a, dim))
            pad = depthwise(pad_buf, s0, s1, a, b, deep)
            inner = dpre[:, a - rows.start : b - rows.start]
            dmix += inner.reshape(-1, dim).T @ deep.reshape(-1, dim)
            np.matmul(dpre, mix, out=dd[:, inside])
            dk += np.einsum("mrd,mrkd->kd", dd[:, right : right + b - a], _windows(pad, ksize))
            np.einsum("mrkd,kd->mrd", _windows(dd, ksize), taps[::-1], out=dx[s0:s1, a:b])
        _accum(z, dx.reshape(z.shape))
        _accum(dw_k, dk.T.reshape(dw_k.shape))
        _accum(pw_k, dmix.reshape(pw_k.shape))

    return _node(out.reshape(z.shape), (z, dw_k, pw_k), backprop)


def _windows(pad: Array, ksize: int) -> Array:
    """Read-only [m, rows - K + 1, K, D] view of ``pad`` [m, rows, D]:
    window [.., i, j, :] is row i + j."""
    m, rows, dim = pad.shape
    return as_strided(pad, (m, rows - ksize + 1, ksize, dim),
                      pad.strides[:2] + pad.strides[1:], writeable=False)


def _head(buf: Array, shape) -> Array:
    """The first ``prod(shape)`` values of the flat ``buf``, as ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


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
    """The parts joined along ``axis``.

    Each tracked interior part (one with a backward closure) then holds
    a view of its slice of the output in place of its own array, so the
    tape keeps the joined data once; leaves and untracked parts keep
    their arrays.  Values and gradients are unchanged: the backward
    reads no part's values, and no op writes into an operand's values.
    """
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ContractError("concat: need at least one array")
    out = np.concatenate([p.values for p in parts], axis=axis)
    ax = axis % out.ndim
    bounds = np.cumsum([0] + [p.shape[ax] for p in parts]).tolist()
    slices = [(slice(None),) * ax + (slice(s0, s1),) for s0, s1 in zip(bounds, bounds[1:])]
    for p, sl in zip(parts, slices):
        if p._backprop is not None:
            p.values = out[sl]

    def backprop(g):
        for p, sl in zip(parts, slices):
            if p.requires_grad:
                _accum(p, g[sl])

    return _node(out, tuple(parts), backprop)


# ---------------------------------------------------------------------------
# reductions and elementwise nonlinearities


def reduce_sum(x, axis=None) -> DiffArray:
    """Sum over ``axis``, kept as size 1; over everything to a scalar
    without one."""
    x = _lift(x)
    out = np.sum(x.values, axis=axis, keepdims=axis is not None)

    def backprop(g):
        _accum(x, np.broadcast_to(g, x.shape))

    return _node(out, (x,), backprop)


def reduce_mean(x, axis=None) -> DiffArray:
    """Mean over ``axis``, kept as size 1; over everything to a scalar
    without one."""
    x = _lift(x)
    out = np.mean(x.values, axis=axis, keepdims=axis is not None)
    count = x.values.size // out.size if out.size else 1

    def backprop(g):
        _accum(x, np.broadcast_to(g / count, x.shape))

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


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: DiffArray) -> None:
    """Populate grads of every tracked leaf reachable from a scalar loss.

    Each interior node's gradient is released once its closure has handed
    it on, so a graph's gradients are not all alive at once.
    """
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
            node.grad = None


def zero_grads(params: Sequence[DiffArray]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Adam optimizer


# Elements per fused Adam chunk.
# Median of 180 steps over the paper shape's 15 parameters (236,717 values),
# 2 cores, BLAS at 1 thread: 4 Ki 2.4-3.0 ms, 16 Ki 2.0-2.6 ms, 32-64 Ki
# within that, one chunk per parameter 4.1 ms; the whole-array update took
# 3.7-3.9 ms.
ADAM_CHUNK = 16384


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
    coef = (state.beta1, state.beta2, 1.0 - state.beta1**t, 1.0 - state.beta2**t,
            state.learning_rate, state.epsilon)
    width = min(ADAM_CHUNK, max((p.values.size for p in params), default=0))
    a, b = np.empty(width), np.empty(width)
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if not all(x.flags.c_contiguous for x in (p.values, m, v)):
            # reshape(-1) would copy, and the update would be lost
            _adam_chunk(p.values, g, m, v, np.empty(p.shape), np.empty(p.shape), coef)
            continue
        flat = [x.reshape(-1) for x in (p.values, g, m, v)]
        for lo in range(0, p.values.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, p.values.size)
            _adam_chunk(*(x[lo:hi] for x in flat), a[: hi - lo], b[: hi - lo], coef)


def _adam_chunk(p, g, m, v, a, b, coef) -> None:
    """Adam on one chunk, in place, with ``a`` and ``b`` as scratch.

    The same ufuncs in the same order as ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and ``p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``,
    so the result is bit-identical to those whole-array expressions.
    """
    b1, b2, bc1, bc2, lr, eps = coef
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=a)
    np.add(m, a, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, 1.0 - b2, out=a)
    np.multiply(a, g, out=a)
    np.add(v, a, out=v)
    np.divide(m, bc1, out=a)
    np.multiply(a, lr, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    np.add(b, eps, out=b)
    np.divide(a, b, out=a)
    np.subtract(p, a, out=p)


def clip_global_norm(grads: Sequence[Array], max_norm: float) -> float:
    """Scale grads in place so their joint L2 norm is at most max_norm.

    ``max_norm`` must be positive: a negative one would flip every
    gradient's sign and zero would erase them.  Finite gradients whose
    squares overflow are measured again scaled by their largest magnitude,
    so the norm stays finite; a non-finite gradient gives a non-finite
    norm.
    """
    if not max_norm > 0:
        raise ContractError(f"clip_global_norm: max_norm must be > 0, got {max_norm}")
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads:
            total += float(np.sum(g * g))
    scale = 1.0
    if not np.isfinite(total) and all(np.isfinite(g).all() for g in grads):
        scale = max(float(np.max(np.abs(g), initial=0.0)) for g in grads)
        total = sum(float(np.sum((g / scale) ** 2)) for g in grads)
    norm = scale * float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


# ---------------------------------------------------------------------------
# named-array container (checkpoints)

_MAGIC = b"FTMX"
CONTAINER_VERSION = 2


def save_arrays(path, arrays: dict[str, Array], metadata: dict | None = None) -> None:
    """Write named float64 arrays plus a JSON metadata blob.

    Binary layout: magic, u32 version, u32 metadata length + UTF-8 JSON,
    u32 entry count, then per entry: u16 name length + name, u8 ndim,
    u32 dims, little-endian float64 payload; version 2 ends with a u32
    ``zlib.crc32`` of every byte before it.  Round trips bit-exactly.
    State beyond the parameters (optimizer moments, RNG state) fits as
    more entries and metadata, without a new version.

    The file is written through :func:`_atomic_file`, so ``path`` is never
    half-written; a ``path`` that cannot be written raises
    :class:`ConfigError`.
    """
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    crc = 0
    with _atomic_file(path) as f:

        def write(data: bytes) -> None:
            nonlocal crc
            crc = zlib.crc32(data, crc)
            f.write(data)

        write(_MAGIC)
        write(struct.pack("<I", CONTAINER_VERSION))
        write(struct.pack("<I", len(meta)))
        write(meta)
        write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            a = np.asarray(arr, dtype="<f8")  # ascontiguousarray would make a 0-d array 1-d
            nb = name.encode("utf-8")
            write(struct.pack("<H", len(nb)))
            write(nb)
            write(struct.pack("<B", a.ndim))
            if a.ndim:
                write(struct.pack(f"<{a.ndim}I", *a.shape))
            write(a.tobytes())
        f.write(struct.pack("<I", crc))


@contextmanager
def _atomic_file(path, text: bool = False):
    """A new file that replaces ``path`` only once it is complete.

    Yields a file opened for writing (binary, or with ``text`` UTF-8 text
    with newlines as written) under a temporary name in ``path``'s
    directory.  When the block ends it is synced and renamed over
    ``path``; when the block raises (an interrupt included) it is removed
    and ``path`` stays as it was.  An ``OSError`` from opening the
    temporary file or from the rename (``path`` is a directory, say)
    raises :class:`ConfigError`.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        f = open(tmp, "x", encoding="utf-8", newline="") if text else open(tmp, "xb")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    except BaseException:
        os.remove(tmp)
        raise


def require_writable(path) -> None:
    """Raise now the :class:`ConfigError` that writing ``path`` through
    :func:`_atomic_file` would raise because ``path`` is a directory or its
    directory takes no new file.  ``path`` itself is left as it is."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    probe = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        os.close(os.open(probe, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def load_arrays(path) -> tuple[dict[str, Array], dict]:
    """Inverse of :func:`save_arrays`.

    An unreadable, truncated or malformed file, one with bytes after its
    last entry or that names an entry twice, one whose checksum does not
    match, or one of another version than :data:`CONTAINER_VERSION` (so a
    version-1 file, which carries no checksum) raises :class:`DataError`.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    if raw[:4] != _MAGIC:
        raise DataError(f"{path}: not a ftmixer checkpoint (bad magic)")
    off, end = 4, len(raw)

    def take(n: int) -> bytes:
        nonlocal off
        if n > end - off:
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
    end -= 4
    if end < off or raw[end:] != struct.pack("<I", zlib.crc32(memoryview(raw)[:end])):
        raise DataError(f"{path}: checkpoint checksum mismatch (corrupt or cut file)")
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
        if name in arrays:
            raise DataError(f"{path}: checkpoint names entry {name!r} twice")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I") if ndim else ()
        payload = take(8 * math.prod(shape))
        # own, writeable copy
        arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if off != end:
        raise DataError(f"{path}: {end - off} unexpected bytes after the last entry")
    return arrays, metadata
