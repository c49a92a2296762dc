"""The op table: every autograd primitive, defined once.

Each entry is one primitive that something in the repository calls, and
it serves the three places a primitive runs:

* **eager** — :func:`~repro.nn.tensor.apply` runs ``forward`` over the
  operands' arrays and keeps ``(entry, ctx)`` on the output node;
  :meth:`~repro.nn.tensor.Tensor.backward` later calls ``vjp`` over arrays;
* **record** — when an operand is traced, the same :func:`apply` call hands
  the application to :meth:`~repro.nn.trace.Trace.record`, which runs
  ``forward`` and then ``record``: the record-time checks (index
  validation, axis normalization, trailing-axis alignment, the vector side
  of a matmul), which never run on the eager path;
* **replay** — :class:`~repro.nn.trace.BatchedReplay` applies ``replay`` to
  every tape entry: the same primitive over a leading client axis, built
  from table entries so the replayed graph differentiates with the same
  VJPs.  An entry whose ``replay`` is ``None`` raises
  :exc:`~repro.nn.trace.UntraceableError` when recorded.

The contract between the last two is bitwise equivalence: slice ``k`` of
every replayed op equals the op the per-client path computes for client
``k``.  Reductions, reshapes and indexing recorded against unbatched
operands are remapped by shifting one axis right, and elementwise operands
of lower rank get an explicit leading-ones reshape so numpy broadcasting
aligns their *trailing* axes the same way it did unbatched.

The entry protocol (see :class:`Op`):

``forward(*arrays, **params) -> (out, ctx)``
    The output array and what the VJP reads beyond its inputs.
``vjp(ctx, grad, inputs, needs) -> grads``
    One gradient per input array, ``None`` where ``needs`` is false.  The
    numpy calls are the engine's own: there is no second copy.
``record(trace, operands, params, out) -> (operands, params)``
    What the tape stores for this application.
``replay(replay, inputs, params, out_shape)``
    The K-client output tensor, given the stacked inputs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import OPS, Tensor, apply, unbroadcast
from .trace import UntraceableError

__all__ = ["OPS", "Op", "register"]


def register(cls):
    """Add one entry (an :class:`Op` subclass) to the table under its kind."""
    OPS[cls.kind] = cls()
    return cls


class Op:
    """One primitive: forward, VJP, record-time checks and replay rule.

    The defaults fit an op that acts on each client's slice independently
    with unchanged params: record stores the operands and params as given,
    and replay applies the entry to the stacked inputs.  ``vjp = None``
    marks an entry whose output never requires grad.
    """

    kind: str = ""
    vjp = None

    def forward(self, *arrays, **params):
        raise NotImplementedError

    def record(self, trace, operands, params, out):
        return operands, params

    def replay(self, replay, inputs, params, out_shape):
        return apply(self.kind, *inputs, **params)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

class _Binary(Op):
    """Broadcasting binary ops: record restores trailing-axis alignment.

    Unbatched, numpy aligns broadcast operands on *trailing* axes; with a
    leading client axis a rank-r traced operand would instead align on the
    batch side.  A recorded reshape to ``(1,)*(R-r) + shape`` restores
    trailing alignment and is bitwise-free (reshape forward and backward
    copy/flatten without any arithmetic).
    """

    def record(self, trace, operands, params, out):
        return tuple(
            x.reshape((1,) * (out.ndim - x.ndim) + x.shape)
            if x._trace is trace and x.ndim < out.ndim else x
            for x in operands), params


@register
class Add(_Binary):
    kind = "add"

    def forward(self, a, b):
        return a + b, None

    def vjp(self, ctx, grad, inputs, needs):
        a, b = inputs
        return (unbroadcast(grad, a.shape) if needs[0] else None,
                unbroadcast(grad, b.shape) if needs[1] else None)


@register
class Mul(_Binary):
    kind = "mul"

    def forward(self, a, b):
        return a * b, None

    def vjp(self, ctx, grad, inputs, needs):
        a, b = inputs
        return (unbroadcast(grad * b, a.shape) if needs[0] else None,
                unbroadcast(grad * a, b.shape) if needs[1] else None)


@register
class TrueDiv(_Binary):
    kind = "truediv"

    def forward(self, a, b):
        return a / b, None

    def vjp(self, ctx, grad, inputs, needs):
        a, b = inputs
        return (unbroadcast(grad / b, a.shape) if needs[0] else None,
                unbroadcast(-grad * a / (b**2), b.shape) if needs[1] else None)


@register
class Neg(Op):
    kind = "neg"

    def forward(self, a):
        return -a, None

    def vjp(self, ctx, grad, inputs, needs):
        return (-grad,)


@register
class MatMul(Op):
    """``a @ b``, including matrix-vector products.

    Replay gives a 1-D operand an explicit unit axis (``params["vector"]``
    names its side) — the axis numpy's own 1-D promotion adds unbatched.
    A traced vector arrives as ``(K, n)``, which numpy would read as a
    matrix, and the 1-D VJP assumes an unbatched partner.
    """

    kind = "matmul"

    def forward(self, a, b):
        return a @ b, None

    def vjp(self, ctx, grad, inputs, needs):
        a, b = inputs
        grad_a = grad_b = None
        if needs[0]:
            if b.ndim == 1:
                grad_a = np.outer(grad, b) if grad.ndim else grad * b
            else:
                grad_a = unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
        if needs[1]:
            if a.ndim == 1:
                grad_b = np.outer(a, grad)
            else:
                grad_b = unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
        return grad_a, grad_b

    def record(self, trace, operands, params, out):
        ranks = (operands[0].ndim, operands[1].ndim)
        if min(ranks) == 0 or ranks == (1, 1):
            raise UntraceableError("matmul of scalars or two vectors is not traceable")
        vector = "left" if ranks[0] == 1 else "right" if ranks[1] == 1 else None
        return operands, {"vector": vector}

    def replay(self, replay, inputs, params, out_shape):
        left, right = inputs
        if params["vector"] == "left":
            left = left.expand_dims(-2)
        elif params["vector"] == "right":
            right = right.expand_dims(-1)
        else:
            return left @ right
        return (left @ right).reshape((replay.num_clients,) + out_shape)


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------

@register
class Exp(Op):
    kind = "exp"

    def forward(self, a):
        value = np.exp(a)
        return value, value

    def vjp(self, value, grad, inputs, needs):
        return (grad * value,)


@register
class Log(Op):
    kind = "log"

    def forward(self, a):
        return np.log(a), None

    def vjp(self, ctx, grad, inputs, needs):
        return (grad / inputs[0],)


@register
class Sqrt(Op):
    kind = "sqrt"

    def forward(self, a):
        value = np.sqrt(a)
        return value, value

    def vjp(self, value, grad, inputs, needs):
        return (grad * 0.5 / value,)


@register
class Relu(Op):
    kind = "relu"

    def forward(self, a):
        mask = a > 0
        return a * mask, mask

    def vjp(self, mask, grad, inputs, needs):
        return (grad * mask,)


@register
class Clip(Op):
    kind = "clip"

    def forward(self, a, low=None, high=None):
        return np.clip(a, low, high), (low, high)

    def vjp(self, bounds, grad, inputs, needs):
        (a,), (low, high) = inputs, bounds
        inside = np.ones_like(a, dtype=bool)
        if low is not None:
            inside &= a >= low
        if high is not None:
            inside &= a <= high
        return (grad * inside,)


@register
class Detach(Op):
    """The operand's array, cut from the graph (no VJP)."""

    kind = "detach"

    def forward(self, a):
        return a, None


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _expand_reduced(grad: np.ndarray, axis, keepdims: bool, ndim: int) -> np.ndarray:
    """Re-insert the axes a reduction without ``keepdims`` removed."""
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % ndim for a in axes)
        grad = np.expand_dims(grad, tuple(sorted(axes)))
    return grad


class _Reduction(Op):
    """Reductions over ``axis``: recorded axes are normalized (sorted,
    non-negative) and replayed one axis to the right."""

    def record(self, trace, operands, params, out):
        axis = params["axis"]
        if axis is not None:
            ndim = operands[0].ndim
            axes = axis if isinstance(axis, tuple) else (axis,)
            axis = tuple(sorted(int(a) % ndim for a in axes))
        return operands, {"axis": axis, "keepdims": bool(params["keepdims"])}

    def replay(self, replay, inputs, params, out_shape):
        (x,), axis = inputs, params["axis"]
        axis = tuple(range(1, x.ndim)) if axis is None else tuple(a + 1 for a in axis)
        return apply(self.kind, x, axis=axis, keepdims=params["keepdims"])


@register
class Sum(_Reduction):
    kind = "sum"

    def forward(self, a, axis=None, keepdims=False):
        return a.sum(axis=axis, keepdims=keepdims), (axis, keepdims)

    def vjp(self, ctx, grad, inputs, needs):
        (a,), (axis, keepdims) = inputs, ctx
        grad = _expand_reduced(grad, axis, keepdims, a.ndim)
        return (np.broadcast_to(grad, a.shape).copy(),)


@register
class Max(_Reduction):
    """Max reduction; ties split the gradient evenly."""

    kind = "max"

    def forward(self, a, axis=None, keepdims=False):
        return a.max(axis=axis, keepdims=keepdims), (axis, keepdims)

    def vjp(self, ctx, grad, inputs, needs):
        (a,), (axis, keepdims) = inputs, ctx
        expanded = a.max(axis=axis, keepdims=True)
        mask = (a == expanded).astype(a.dtype)
        mask = mask / mask.sum(axis=axis, keepdims=True)
        return (mask * _expand_reduced(grad, axis, keepdims, a.ndim),)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

@register
class Reshape(Op):
    kind = "reshape"

    def forward(self, a, shape):
        return a.reshape(shape), None

    def vjp(self, ctx, grad, inputs, needs):
        return (grad.reshape(inputs[0].shape),)

    def record(self, trace, operands, params, out):
        return operands, {"shape": out.shape}

    def replay(self, replay, inputs, params, out_shape):
        return apply("reshape", inputs[0], shape=(replay.num_clients,) + params["shape"])


@register
class Transpose(Op):
    kind = "transpose"

    def forward(self, a, axes):
        return a.transpose(axes), axes

    def vjp(self, axes, grad, inputs, needs):
        return (grad.transpose(np.argsort(axes)),)

    def record(self, trace, operands, params, out):
        ndim = operands[0].ndim
        return operands, {"axes": tuple(int(a) % ndim for a in params["axes"])}

    def replay(self, replay, inputs, params, out_shape):
        axes = (0,) + tuple(a + 1 for a in params["axes"])
        return apply("transpose", inputs[0], axes=axes)


@register
class ExpandDims(Op):
    kind = "expand_dims"

    def forward(self, a, axis):
        return np.expand_dims(a, axis), axis

    def vjp(self, axis, grad, inputs, needs):
        return (np.squeeze(grad, axis=axis),)

    def record(self, trace, operands, params, out):
        axis = int(params["axis"])
        return operands, {"axis": axis + operands[0].ndim + 1 if axis < 0 else axis}

    def replay(self, replay, inputs, params, out_shape):
        return apply("expand_dims", inputs[0], axis=params["axis"] + 1)


def _normalize_index(index, ndim: int) -> Tuple:
    """Validate and normalize a ``__getitem__`` index for batched replay.

    Allowed: ints, slices with int (or None) bounds, and integer arrays whose
    advanced-index block is contiguous — exactly the cases where prepending
    ``slice(None)`` yields per-slice-identical results.  Everything else
    (bool masks, None/Ellipsis, separated advanced indices) is untraceable.
    """
    parts = index if isinstance(index, tuple) else (index,)
    if len(parts) > ndim:
        raise UntraceableError(f"index has more components than dimensions ({len(parts)} > {ndim})")
    normalized = []
    advanced_positions = []
    has_array = False
    for position, part in enumerate(parts):
        if part is None or part is Ellipsis:
            raise UntraceableError("None/Ellipsis indexing is not traceable")
        if isinstance(part, slice):
            for bound in (part.start, part.stop, part.step):
                if bound is not None and not isinstance(bound, (int, np.integer)):
                    raise UntraceableError("non-integer slice bounds are not traceable")
            normalized.append(slice(part.start, part.stop, part.step))
            continue
        if isinstance(part, (int, np.integer)):
            normalized.append(int(part))
            advanced_positions.append(position)
            continue
        array = np.asarray(part)
        if array.dtype.kind == "b":
            raise UntraceableError("boolean-mask indexing is not traceable")
        if array.dtype.kind not in "iu":
            raise UntraceableError(f"unsupported index component dtype {array.dtype}")
        normalized.append(np.array(array, copy=True))
        advanced_positions.append(position)
        has_array = True
    if has_array and advanced_positions != list(
            range(advanced_positions[0], advanced_positions[0] + len(advanced_positions))):
        raise UntraceableError("non-adjacent advanced indices are not traceable")
    return tuple(normalized)


@register
class GetItem(Op):
    """``a[index]``; or ``a[rows]`` for a per-client row index.

    A row index registered by :meth:`~repro.nn.trace.Trace.add_index` is a
    second operand rather than a param: replay then selects each client's
    own rows of its own slice, where a plain integer array would be
    captured as the donor client's constant.
    """

    kind = "getitem"

    def forward(self, a, rows=None, index=None):
        index = index if rows is None else rows
        return a[index], index

    def vjp(self, index, grad, inputs, needs):
        grad_in = np.zeros_like(inputs[0])
        np.add.at(grad_in, index, grad)
        return (grad_in,)

    def record(self, trace, operands, params, out):
        if len(operands) == 2:
            if operands[0]._trace is None:
                raise UntraceableError(
                    "a per-client row index must select rows of a traced tensor")
            return operands, {}
        return operands, {"index": _normalize_index(params["index"], operands[0].ndim)}

    def replay(self, replay, inputs, params, out_shape):
        if len(inputs) == 2:
            x, rows = inputs
            return apply("getitem", x, index=(np.arange(replay.num_clients)[:, None], rows))
        out = apply("getitem", inputs[0], index=(slice(None),) + params["index"])
        # Advanced indexing on the unbatched tensor returns a fresh
        # C-contiguous array, but with the leading client slice numpy
        # moves the advanced axes to the front and transposes back — a
        # *strided* result.  Downstream pairwise-summed reductions block
        # differently over strided memory, breaking bitwise equality with
        # the per-client path, so restore the layout the per-client result
        # has.
        if (any(isinstance(part, np.ndarray) for part in params["index"])
                and not out.data.flags["C_CONTIGUOUS"]):
            out.data = np.ascontiguousarray(out.data)
        return out


@register
class Concat(Op):
    kind = "concat"

    def forward(self, *arrays, axis=0):
        return np.concatenate(arrays, axis=axis), axis

    def vjp(self, axis, grad, inputs, needs):
        offsets = np.cumsum([0] + [a.shape[axis] for a in inputs])
        grads = []
        for start, stop, need in zip(offsets[:-1], offsets[1:], needs):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            grads.append(grad[tuple(slicer)] if need else None)
        return grads

    def record(self, trace, operands, params, out):
        return operands, {"axis": int(params["axis"]) % out.ndim}

    def replay(self, replay, inputs, params, out_shape):
        k = replay.num_clients
        # Captured constants broadcast across the client axis.
        parts = [Tensor(np.broadcast_to(part.data, (k,) + part.shape).copy())
                 if part.ndim == len(out_shape) else part for part in inputs]
        return apply("concat", *parts, axis=params["axis"] + 1)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding windows: (N, C, H, W) -> (N, C, kh, kw, Ho, Wo)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"conv output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}"
        )
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ns, cs, hs, ws = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, kh, kw, ho, wo),
        strides=(ns, cs, hs, ws, hs * sh, ws * sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows), (ho, wo)


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add sliding windows back: inverse of :func:`_im2col`."""
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    ho, wo = cols.shape[4], cols.shape[5]
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += cols[:, :, i, j]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


@register
class Conv2d(Op):
    """2-D cross-correlation via im2col: operands ``(x, weight[, bias])``.

    No replay rule yet, so a conv encoder trains per client: recording one
    raises :exc:`~repro.nn.trace.UntraceableError`.
    """

    kind = "conv2d"
    replay = None

    def forward(self, x, weight, bias=None, *, stride, padding):
        n, c_in, _, _ = x.shape
        c_out, c_in_w, kh, kw = weight.shape
        if c_in != c_in_w:
            raise ValueError(f"conv2d channel mismatch: input {c_in} vs weight {c_in_w}")
        cols, (ho, wo) = _im2col(x, (kh, kw), stride, padding)
        cols_mat = cols.reshape(n, c_in * kh * kw, ho * wo)
        w_mat = weight.reshape(c_out, c_in * kh * kw)
        out = np.einsum("ok,nkp->nop", w_mat, cols_mat, optimize=True)
        out = out.reshape(n, c_out, ho, wo)
        if bias is not None:
            out = out + bias.reshape(1, c_out, 1, 1)
        return out, (cols_mat, w_mat, stride, padding)

    def vjp(self, ctx, grad, inputs, needs):
        cols_mat, w_mat, stride, padding = ctx
        x, weight = inputs[0], inputs[1]
        n, c_out, ho, wo = grad.shape
        kernel = weight.shape[2:]
        grad = grad.reshape(n, c_out, ho * wo)
        grads = [None] * len(inputs)
        if len(inputs) == 3 and needs[2]:
            grads[2] = grad.sum(axis=(0, 2))
        if needs[1]:
            grad_w = np.einsum("nop,nkp->ok", grad, cols_mat, optimize=True)
            grads[1] = grad_w.reshape(weight.shape)
        if needs[0]:
            grad_cols = np.einsum("ok,nop->nkp", w_mat, grad, optimize=True)
            grad_cols = grad_cols.reshape((n, x.shape[1]) + kernel + (ho, wo))
            grads[0] = _col2im(grad_cols, x.shape, kernel, stride, padding)
        return grads


# ---------------------------------------------------------------------------
# Batch-norm running statistics: the one side-effect entry
# ---------------------------------------------------------------------------

@register
class BnUpdate(Op):
    """The training-mode batch-norm buffer update; it has no output.

    Eagerly it updates ``running_mean``/``running_var`` in place.  Recorded,
    the buffers are named by their registered slots.  Replayed, the K
    clients' updates are staged in :attr:`BatchedReplay.staged
    <repro.nn.trace.BatchedReplay>` — chained, so the two updates per step
    (one per view) read each other exactly like the in-place per-client
    updates — and committed only after the optimizer step.
    """

    kind = "bn_update"

    def forward(self, x, *, running_mean, running_var, axes, momentum, count_scale):
        batch_mean = x.mean(axis=axes)
        batch_var = x.var(axis=axes)
        unbiased = batch_var * count_scale
        running_mean *= 1.0 - momentum
        running_mean += momentum * batch_mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
        return None, None

    def record(self, trace, operands, params, out):
        return operands, {
            "mean_slot": trace.buffer_slot(params["running_mean"]),
            "var_slot": trace.buffer_slot(params["running_var"]),
            "axes": tuple(int(a) for a in params["axes"]),
            "momentum": float(params["momentum"]),
            "count_scale": float(params["count_scale"])}

    def replay(self, replay, inputs, params, out_shape):
        x = inputs[0].data
        axes = tuple(a + 1 for a in params["axes"])
        momentum = params["momentum"]
        batch_mean = x.mean(axis=axes)
        batch_var = x.var(axis=axes)
        unbiased = batch_var * params["count_scale"]
        for slot, stat in ((params["mean_slot"], batch_mean),
                           (params["var_slot"], unbiased)):
            current: Optional[np.ndarray] = replay.staged.get(slot)
            if current is None:
                current = replay.buffers[slot]
            replay.staged[slot] = current * (1.0 - momentum) + momentum * stat
