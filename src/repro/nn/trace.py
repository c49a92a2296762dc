"""Trace/replay vectorization: a client axis for the autograd engine.

The FL hot path runs the *same* SSL training step for dozens of homogeneous
clients per round, and :mod:`repro.nn.tensor` pays Python-side graph
bookkeeping per client per op.  This module removes the per-client factor:

1. **Record** — run one client's forward once with :class:`TraceTensor`
   operands.  Every primitive computes its result eagerly (so shape checks
   and data-dependent Python control flow behave exactly as in a normal
   run) and appends a :class:`TapeOp` to a :class:`Trace`.
2. **Replay** — :class:`BatchedReplay` re-executes the tape over K clients'
   data stacked into a new leading axis, as *real* :class:`Tensor` ops with
   gradients enabled.  One graph of K-wide numpy ops replaces K graphs, and
   ``backward()`` comes from the existing engine unchanged.

The contract is bitwise equivalence: slice ``k`` of every replayed op equals
the op the per-client path would have computed for client ``k``.  Axis
handling is therefore exact, not approximate — reductions/reshapes/indexing
recorded against unbatched operands are remapped by shifting one axis right,
and elementwise operands of lower rank get an explicit leading-ones reshape
so numpy broadcasting aligns their *trailing* axes the same way it did
unbatched.

Anything that cannot keep that contract raises :exc:`UntraceableError` —
including any op that reaches the base-class graph plumbing
(``_make_output``), data-dependent constants (dropout masks), and eval-mode
batch norm (which reads per-client buffers).  Callers treat the exception
as "fall back to the per-client loop", never as corruption.

Batch-norm running statistics are the one intentional side effect: the
training-mode buffer update is recorded as a ``bn_update`` tape entry and
replayed against K-stacked buffers, *staged* so the two sequential updates
per step (one per view) chain exactly like the in-place per-client updates.

Per-client data enters a tape only as a leaf: float arrays through
:meth:`Trace.add_input`, integer row selections through
:meth:`Trace.add_index` (``x[index]`` then reads each client's own rows at
replay).  Besides the scalar loss, a trace may name extra outputs
(:meth:`Trace.add_output`) — per-batch metrics, or the features a caller
needs before it can build the next trace's inputs.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .tensor import Tensor, as_tensor

__all__ = [
    "UntraceableError",
    "TapeOp",
    "Trace",
    "TraceTensor",
    "TraceIndex",
    "BatchedReplay",
    "input_leaves",
    "traced_concat",
    "patched_parameters",
    "commit_buffer_updates",
]

# Elementwise binary kinds whose lower-rank traced operands need an explicit
# leading-ones reshape before the batch axis is added (see _aligned_operand).
_ELEMENTWISE_BINARY = ("add", "mul", "truediv")


class UntraceableError(RuntimeError):
    """The computation cannot be recorded for batched replay.

    Raised during recording when an op falls outside the traceable primitive
    set or would capture per-client data as a shared constant.  Callers fall
    back to the per-client execution path; results are never silently wrong.
    """


class TapeOp:
    """One recorded primitive: kind, operands, params, and unbatched output.

    ``inputs`` holds operand encodings: ``("t", tid)`` for traced tensors,
    ``("c", ndarray)`` for constants captured (copied) at record time.
    ``out`` is the output's trace id, or ``None`` for side-effect entries
    (``bn_update``).  ``out_shape`` is the *unbatched* output shape used to
    validate every replayed op against ``(K,) + out_shape``.
    """

    __slots__ = ("kind", "out", "inputs", "params", "out_shape", "out_dtype")

    def __init__(self, kind: str, out: Optional[int], inputs: Tuple,
                 params: Dict, out_shape: Tuple[int, ...], out_dtype: str):
        self.kind = kind
        self.out = out
        self.inputs = inputs
        self.params = params
        self.out_shape = out_shape
        self.out_dtype = out_dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TapeOp({self.kind}, out={self.out}, shape={self.out_shape})"


class Trace:
    """A recorded single-client computation, replayable over a client axis.

    Leaves are registered via :meth:`add_input` (per-step data) and
    :meth:`add_param` (per-client model parameters); both return the
    :class:`TraceTensor` to feed into the computation being recorded;
    :meth:`add_index` registers a per-client integer row index.
    Buffer identity (for batch-norm running stats) is registered by array
    ``id`` during recording and dropped by :meth:`seal`, so sealed traces
    are picklable and safe to cache across rounds and processes.
    """

    def __init__(self):
        self.ops: List[TapeOp] = []
        self.inputs: "OrderedDict[str, Tuple[int, Tuple[int, ...], str]]" = OrderedDict()
        self.indices: "OrderedDict[str, Tuple[int, Tuple[int, ...], str]]" = OrderedDict()
        self.params: "OrderedDict[str, Tuple[int, Tuple[int, ...], str]]" = OrderedDict()
        self.output: Optional[int] = None
        self.outputs: "OrderedDict[str, int]" = OrderedDict()
        self.sealed = False
        self._next_tid = 0
        self._buffer_slots: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Leaf registration
    # ------------------------------------------------------------------
    def _new_tensor(self, data: np.ndarray) -> "TraceTensor":
        tid = self._next_tid
        self._next_tid += 1
        return TraceTensor(data, self, tid)

    def add_input(self, name: str, value: np.ndarray) -> "TraceTensor":
        if name in self.inputs or name in self.indices:
            raise ValueError(f"duplicate trace input {name!r}")
        leaf = self._new_tensor(np.asarray(value))
        self.inputs[name] = (leaf._tid, leaf.data.shape, str(leaf.data.dtype))
        return leaf

    def add_index(self, name: str, value: np.ndarray) -> "TraceIndex":
        """Register a per-client 1-D integer index; replay feeds ``(K, n)``."""
        if name in self.inputs or name in self.indices:
            raise ValueError(f"duplicate trace input {name!r}")
        array = np.asarray(value)
        if array.ndim != 1 or array.dtype.kind not in "iu":
            raise UntraceableError(
                f"index input {name!r} must be a 1-D integer array, got "
                f"{array.shape}/{array.dtype}")
        tid = self._next_tid
        self._next_tid += 1
        self.indices[name] = (tid, array.shape, str(array.dtype))
        return TraceIndex(self, tid, array)

    def add_param(self, name: str, value: np.ndarray) -> "TraceTensor":
        if name in self.params:
            raise ValueError(f"duplicate trace parameter {name!r}")
        leaf = self._new_tensor(np.asarray(value))
        self.params[name] = (leaf._tid, leaf.data.shape, str(leaf.data.dtype))
        return leaf

    def register_buffers(self, named_buffers: Iterable[Tuple[str, np.ndarray]]) -> None:
        """Remember buffer identities so bn_update entries can name them."""
        for name, buffer in named_buffers:
            self._buffer_slots[id(buffer)] = name

    def _traced_id(self, value, what: str) -> int:
        if not isinstance(value, TraceTensor) or value._trace is not self:
            raise UntraceableError(
                f"the recorded {what} is not a traced tensor of this trace — "
                "some op silently dropped the trace")
        return value._tid

    def set_output(self, value: "TraceTensor") -> None:
        tid = self._traced_id(value, "loss")
        if value.data.shape != ():
            raise UntraceableError(
                f"traced loss must be a scalar, got shape {value.data.shape}")
        self.output = tid

    def add_output(self, name: str, value: "TraceTensor") -> None:
        """Name an extra output (any shape); replay returns it per client."""
        if name in self.outputs:
            raise ValueError(f"duplicate trace output {name!r}")
        self.outputs[name] = self._traced_id(value, f"output {name!r}")

    def seal(self) -> None:
        """Finish recording: drop id-keyed state, freeze the tape."""
        if self.output is None and not self.outputs:
            raise UntraceableError("cannot seal a trace without an output")
        self._buffer_slots = {}
        self.sealed = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def operand(self, value) -> Tuple:
        """Encode ``value`` as a tape operand (traced ref or copied constant)."""
        if isinstance(value, TraceTensor):
            if value._trace is not self:
                raise UntraceableError("cannot mix tensors from different traces")
            return ("t", value._tid)
        if isinstance(value, Tensor):
            return ("c", np.array(value.data, copy=True))
        return ("c", np.array(as_tensor(value).data, copy=True))

    def record(self, kind: str, data: np.ndarray, inputs: Sequence[Tuple],
               params: Optional[Dict] = None) -> "TraceTensor":
        if self.sealed:
            raise UntraceableError("trace is sealed; recording is finished")
        out = self._new_tensor(data)
        self.ops.append(TapeOp(kind, out._tid, tuple(inputs), dict(params or {}),
                               tuple(data.shape), str(data.dtype)))
        return out

    def _aligned_operand(self, value, out_ndim: int) -> Tuple:
        """Encode an elementwise operand, reshaping lower-rank traced ones.

        Unbatched, numpy aligns broadcast operands on *trailing* axes; with a
        leading client axis a rank-r traced operand would instead align on the
        batch side.  An explicit recorded reshape to ``(1,)*(R-r) + shape``
        restores trailing alignment and is bitwise-free (reshape forward and
        backward copy/flatten without any arithmetic).
        """
        encoded = self.operand(value)
        if encoded[0] == "t" and isinstance(value, TraceTensor):
            rank = value.data.ndim
            if rank < out_ndim:
                new_shape = (1,) * (out_ndim - rank) + value.data.shape
                reshaped = self.record("reshape", value.data.reshape(new_shape),
                                       (encoded,), {"shape": new_shape})
                return ("t", reshaped._tid)
        return encoded

    def record_binary(self, kind: str, left, right, data: np.ndarray) -> "TraceTensor":
        if kind in _ELEMENTWISE_BINARY:
            out_ndim = data.ndim
            operands = (self._aligned_operand(left, out_ndim),
                        self._aligned_operand(right, out_ndim))
        else:
            operands = (self.operand(left), self.operand(right))
        return self.record(kind, data, operands)

    def record_matmul(self, left: Tensor, right: Tensor) -> "TraceTensor":
        """Record ``left @ right``, including matrix-vector products.

        Replay gives a 1-D operand an explicit unit axis
        (``params["vector"]`` names its side) — the axis numpy's own 1-D
        promotion adds unbatched.  A traced vector arrives as ``(K, n)``,
        which numpy would read as a matrix, and ``Tensor``'s 1-D backward
        assumes an unbatched partner.
        """
        ranks = (left.data.ndim, right.data.ndim)
        if min(ranks) == 0 or ranks == (1, 1):
            raise UntraceableError("matmul of scalars or two vectors is not traceable")
        vector = "left" if ranks[0] == 1 else "right" if ranks[1] == 1 else None
        return self.record("matmul", left.data @ right.data,
                           (self.operand(left), self.operand(right)),
                           {"vector": vector})

    def record_bn_update(self, x: "TraceTensor", running_mean: np.ndarray,
                         running_var: np.ndarray, axes: Tuple[int, ...],
                         momentum: float, count_scale: float) -> None:
        """Record the training-mode batch-norm buffer side effect."""
        mean_slot = self._buffer_slots.get(id(running_mean))
        var_slot = self._buffer_slots.get(id(running_var))
        if mean_slot is None or var_slot is None:
            raise UntraceableError(
                "batch_norm buffers are not registered with the trace "
                "(module buffers must be registered before recording)")
        self.ops.append(TapeOp(
            "bn_update", None, (self.operand(x),),
            {"mean_slot": mean_slot, "var_slot": var_slot,
             "axes": tuple(int(a) for a in axes),
             "momentum": float(momentum), "count_scale": float(count_scale)},
            (), ""))


def _normalize_axes(axis, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    axes = axis if isinstance(axis, tuple) else (axis,)
    return tuple(sorted(int(a) % ndim for a in axes))


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


class TraceTensor(Tensor):
    """A :class:`Tensor` whose primitives also record onto a :class:`Trace`.

    Every override computes its data eagerly (numpy, no autograd graph) and
    records a tape entry.  The base-class graph constructor is overridden to
    raise, so any primitive this class does not explicitly support fails
    loudly instead of silently producing an untracked plain tensor.
    """

    __slots__ = ("_trace", "_tid")

    def __init__(self, data, trace: Trace, tid: int):
        super().__init__(data, requires_grad=False)
        object.__setattr__(self, "_trace", trace)
        object.__setattr__(self, "_tid", tid)

    # -- safety nets ---------------------------------------------------
    def _make_output(self, data, parents):
        raise UntraceableError(
            "an operation outside the traceable primitive set reached the "
            "base autograd plumbing during recording")

    def backward(self, grad=None):
        raise UntraceableError("backward() is not available while recording")

    def item(self) -> float:
        raise UntraceableError(
            "item() during recording would capture a per-client value as a "
            "shared constant")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other_t = as_tensor(other, dtype=self.data.dtype)
        return self._trace.record_binary("add", self, other_t,
                                         self.data + other_t.data)

    __radd__ = __add__

    def __neg__(self):
        return self._trace.record("neg", -self.data, (self._trace.operand(self),))

    def __mul__(self, other):
        other_t = as_tensor(other, dtype=self.data.dtype)
        return self._trace.record_binary("mul", self, other_t,
                                         self.data * other_t.data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other_t = as_tensor(other, dtype=self.data.dtype)
        return self._trace.record_binary("truediv", self, other_t,
                                         self.data / other_t.data)

    def __rtruediv__(self, other):
        other_t = as_tensor(other, dtype=self.data.dtype)
        return self._trace.record_binary("truediv", other_t, self,
                                         other_t.data / self.data)

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return self._trace.record("pow", self.data ** exponent,
                                  (self._trace.operand(self),),
                                  {"exponent": exponent})

    def __matmul__(self, other):
        return self._trace.record_matmul(self, as_tensor(other, dtype=self.data.dtype))

    def __rmatmul__(self, other):
        return self._trace.record_matmul(as_tensor(other, dtype=self.data.dtype), self)

    # -- elementwise nonlinearities ------------------------------------
    def exp(self):
        return self._trace.record("exp", np.exp(self.data), (self._trace.operand(self),))

    def log(self):
        return self._trace.record("log", np.log(self.data), (self._trace.operand(self),))

    def sqrt(self):
        return self._trace.record("sqrt", np.sqrt(self.data), (self._trace.operand(self),))

    def tanh(self):
        return self._trace.record("tanh", np.tanh(self.data), (self._trace.operand(self),))

    def sigmoid(self):
        return self._trace.record("sigmoid", 1.0 / (1.0 + np.exp(-self.data)),
                                  (self._trace.operand(self),))

    def relu(self):
        return self._trace.record("relu", self.data * (self.data > 0),
                                  (self._trace.operand(self),))

    def leaky_relu(self, negative_slope: float = 0.01):
        scale = np.where(self.data > 0, 1.0, negative_slope)
        return self._trace.record("leaky_relu", self.data * scale,
                                  (self._trace.operand(self),),
                                  {"negative_slope": float(negative_slope)})

    def abs(self):
        return self._trace.record("abs", np.abs(self.data), (self._trace.operand(self),))

    def clip(self, low=None, high=None):
        return self._trace.record("clip", np.clip(self.data, low, high),
                                  (self._trace.operand(self),),
                                  {"low": low, "high": high})

    def astype(self, dtype):
        return self._trace.record("astype", self.data.astype(dtype),
                                  (self._trace.operand(self),),
                                  {"dtype": str(np.dtype(dtype))})

    def detach(self):
        return self._trace.record("detach", self.data, (self._trace.operand(self),))

    def copy(self):
        return self._trace.record("copy", self.data.copy(), (self._trace.operand(self),))

    # -- reductions ----------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        return self._trace.record(
            "sum", self.data.sum(axis=axis, keepdims=keepdims),
            (self._trace.operand(self),),
            {"axis": _normalize_axes(axis, self.data.ndim), "keepdims": bool(keepdims)})

    def max(self, axis=None, keepdims: bool = False):
        return self._trace.record(
            "max", self.data.max(axis=axis, keepdims=keepdims),
            (self._trace.operand(self),),
            {"axis": _normalize_axes(axis, self.data.ndim), "keepdims": bool(keepdims)})

    # mean/var/min/flatten/T/__sub__/__rsub__/stack are inherited composites:
    # they bottom out in the primitives above, so they record for free.

    # -- shape manipulation --------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        return self._trace.record("reshape", data, (self._trace.operand(self),),
                                  {"shape": data.shape})

    def transpose(self, *axes):
        if len(axes) == 0:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = tuple(int(a) % self.data.ndim for a in axes)
        return self._trace.record("transpose", self.data.transpose(axes),
                                  (self._trace.operand(self),), {"axes": axes})

    def __getitem__(self, index):
        if isinstance(index, TraceIndex):
            if index._trace is not self._trace:
                raise UntraceableError("cannot mix tensors from different traces")
            return self._trace.record("take", self.data[index.array],
                                      (self._trace.operand(self), ("t", index._tid)))
        normalized = _normalize_index(index, self.data.ndim)
        return self._trace.record("getitem", self.data[normalized],
                                  (self._trace.operand(self),),
                                  {"index": normalized})

    def expand_dims(self, axis: int):
        axis = int(axis)
        if axis < 0:
            axis += self.data.ndim + 1
        return self._trace.record("expand_dims", np.expand_dims(self.data, axis),
                                  (self._trace.operand(self),), {"axis": axis})


class TraceIndex:
    """A per-client row index registered by :meth:`Trace.add_index`.

    Its one use is ``x[index]`` on a :class:`TraceTensor`: the recorded
    ``take`` selects rows of the leading axis, and replay selects each
    client's own rows — where a plain integer array would be captured as
    the donor client's constant.
    """

    __slots__ = ("_trace", "_tid", "array")

    def __init__(self, trace: Trace, tid: int, array: np.ndarray):
        self._trace = trace
        self._tid = tid
        self.array = array


def input_leaves(arrays: Dict[str, np.ndarray],
                 trace: Optional[Trace] = None) -> Dict[str, object]:
    """One client's per-step arrays as the leaves a loss reads.

    Float arrays become tensors and 1-D integer arrays row indices: trace
    leaves (:meth:`Trace.add_input` / :meth:`Trace.add_index`) when
    recording into ``trace``, eager ``Tensor``/``ndarray`` otherwise.  One
    loss function then serves both the per-client and the replayed path.
    """
    leaves: Dict[str, object] = {}
    for name, value in arrays.items():
        integer = value.dtype.kind in "iu"
        if trace is None:
            leaves[name] = value if integer else Tensor(value)
        else:
            leaves[name] = (trace.add_index if integer else trace.add_input)(name, value)
    return leaves


def traced_concat(tensors: Sequence[Tensor], axis: int = 0) -> TraceTensor:
    """Record a concat involving at least one :class:`TraceTensor`.

    Dispatched from :meth:`Tensor.concat` (a staticmethod, so subclass method
    resolution cannot route it here automatically).
    """
    tensors = [as_tensor(t) for t in tensors]
    traces = {t._trace for t in tensors if isinstance(t, TraceTensor)}
    if len(traces) != 1:
        raise UntraceableError("concat inputs belong to different traces")
    trace = traces.pop()
    ndim = tensors[0].data.ndim
    axis = int(axis) % ndim
    data = np.concatenate([t.data for t in tensors], axis=axis)
    return trace.record("concat", data, tuple(trace.operand(t) for t in tensors),
                        {"axis": axis})


@contextlib.contextmanager
def patched_parameters(module, leaves: Dict[str, TraceTensor]):
    """Temporarily swap a module's parameters for trace-leaf tensors.

    ``leaves`` maps dotted parameter names (as in ``named_parameters``) to
    replacement tensors.  Registration order is preserved (the mapping is
    mutated in place), and originals are restored on exit even when the
    recorded computation raises.
    """
    owners = {}
    for prefix, submodule in module.named_modules():
        for attribute in submodule._parameters:
            full = f"{prefix}.{attribute}" if prefix else attribute
            owners[full] = (submodule, attribute)
    unknown = set(leaves) - set(owners)
    if unknown:
        raise KeyError(f"unknown parameters: {sorted(unknown)}")
    saved = []
    try:
        for name, leaf in leaves.items():
            submodule, attribute = owners[name]
            saved.append((submodule, attribute, submodule._parameters[attribute]))
            submodule._parameters[attribute] = leaf
            object.__setattr__(submodule, attribute, leaf)
        yield
    finally:
        for submodule, attribute, original in saved:
            submodule._parameters[attribute] = original
            object.__setattr__(submodule, attribute, original)


def commit_buffer_updates(staged: "OrderedDict[str, np.ndarray]",
                          buffers: Dict[str, np.ndarray]) -> None:
    """Apply staged batch-norm buffer updates in place.

    Deferred to after a successful optimizer step so a replay that fails
    midway leaves the batched buffers untouched for the per-client fallback.
    """
    for name, value in staged.items():
        buffers[name][...] = value


class BatchedReplay:
    """Execute a sealed :class:`Trace` over ``num_clients`` stacked clients.

    ``run`` builds one real autograd graph whose tensors carry a leading
    client axis; slice ``k`` of every op is bitwise what the per-client path
    computes for client ``k``.  Gradients flow through the ordinary
    ``Tensor.backward``, so batched parameter leaves accumulate per-client
    gradients with no new backward code.

    ``counter`` prefixes the telemetry counters each run bumps
    (``<counter>.replays``, ``<counter>.replay_clients``), so replays of
    different stages stay distinguishable in a profile.

    After :meth:`run`, :attr:`outputs` maps each named extra output of the
    trace to its ``(K, *recorded_shape)`` tensor.
    """

    def __init__(self, trace: Trace, num_clients: int, counter: str = "trace"):
        if not trace.sealed:
            raise UntraceableError("replay requires a sealed trace")
        self.trace = trace
        self.num_clients = int(num_clients)
        self.counter = counter
        self.outputs: Dict[str, Tensor] = {}

    def run(self, inputs: Dict[str, np.ndarray], params: Dict[str, Tensor],
            buffers: Dict[str, np.ndarray]):
        """Replay over stacked inputs; returns ``(loss, staged_buffer_updates)``.

        ``inputs`` maps input and index names to ``(K, *recorded_shape)``
        arrays; ``params`` maps parameter names to ``(K, *recorded_shape)``
        tensors (``requires_grad=True``); ``buffers`` maps buffer names to
        ``(K, *shape)`` arrays read (not written) by ``bn_update`` entries.
        ``loss`` is ``None`` for a trace with named outputs only.
        """
        k = self.num_clients
        telemetry.count(f"{self.counter}.replays")
        telemetry.count(f"{self.counter}.replay_clients", k)
        env: Dict[int, Tensor] = {}
        for leaves, wrap in ((self.trace.inputs, Tensor),
                             (self.trace.indices, np.asarray)):
            for name, (tid, shape, dtype) in leaves.items():
                array = inputs[name]
                if array.shape != (k,) + shape or str(array.dtype) != dtype:
                    raise UntraceableError(
                        f"input {name!r} has shape {array.shape}/{array.dtype}, "
                        f"trace recorded {(k,) + shape}/{dtype}")
                env[tid] = wrap(array)
        for name, (tid, shape, dtype) in self.trace.params.items():
            leaf = params[name]
            if leaf.data.shape != (k,) + shape or str(leaf.data.dtype) != dtype:
                raise UntraceableError(
                    f"parameter {name!r} has shape {leaf.data.shape}/{leaf.data.dtype}, "
                    f"trace recorded {(k,) + shape}/{dtype}")
            env[tid] = leaf
        staged: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for op in self.trace.ops:
            if op.kind == "bn_update":
                self._bn_update(op, env, buffers, staged)
                continue
            out = self._execute(op, env)
            expected = (k,) + op.out_shape
            if out.data.shape != expected:
                raise UntraceableError(
                    f"replayed {op.kind} produced shape {out.data.shape}, "
                    f"expected {expected}")
            env[op.out] = out
        self.outputs = {name: env[tid] for name, tid in self.trace.outputs.items()}
        loss = None if self.trace.output is None else env[self.trace.output]
        return loss, staged

    # ------------------------------------------------------------------
    def _value(self, encoded, env: Dict[int, Tensor]) -> Tensor:
        tag, payload = encoded
        if tag == "t":
            return env[payload]
        return Tensor(payload)

    def _batched_axes(self, axis) -> Tuple[int, ...]:
        return tuple(a + 1 for a in axis)

    def _execute(self, op: TapeOp, env: Dict[int, Tensor]) -> Tensor:
        kind = op.kind
        params = op.params
        if kind in ("add", "mul", "truediv", "matmul"):
            left = self._value(op.inputs[0], env)
            right = self._value(op.inputs[1], env)
            if kind == "add":
                return left + right
            if kind == "mul":
                return left * right
            if kind == "truediv":
                return left / right
            out_shape = (self.num_clients,) + op.out_shape
            if params["vector"] == "left":
                return (left.expand_dims(-2) @ right).reshape(out_shape)
            if params["vector"] == "right":
                return (left @ right.expand_dims(-1)).reshape(out_shape)
            return left @ right
        x = self._value(op.inputs[0], env)
        if kind == "take":
            rows = self._value(op.inputs[1], env)
            return x[np.arange(self.num_clients)[:, None], rows]
        if kind == "neg":
            return -x
        if kind == "pow":
            return x ** params["exponent"]
        if kind in ("exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs",
                    "detach", "copy"):
            return getattr(x, kind)()
        if kind == "leaky_relu":
            return x.leaky_relu(params["negative_slope"])
        if kind == "clip":
            return x.clip(params["low"], params["high"])
        if kind == "astype":
            return x.astype(params["dtype"])
        if kind in ("sum", "max"):
            axis = params["axis"]
            if axis is None:
                axis = tuple(range(1, x.data.ndim))
            else:
                axis = self._batched_axes(axis)
            return getattr(x, kind)(axis=axis, keepdims=params["keepdims"])
        if kind == "reshape":
            return x.reshape((self.num_clients,) + tuple(params["shape"]))
        if kind == "transpose":
            return x.transpose((0,) + self._batched_axes(params["axes"]))
        if kind == "getitem":
            out = x[(slice(None),) + tuple(params["index"])]
            # Advanced indexing on the unbatched tensor returns a fresh
            # C-contiguous array, but with the leading client slice numpy
            # moves the advanced axes to the front and transposes back — a
            # *strided* result.  Downstream pairwise-summed reductions
            # block differently over strided memory, breaking bitwise
            # equality with the per-client path, so restore the layout the
            # per-client result has.
            if (any(isinstance(part, np.ndarray) for part in params["index"])
                    and not out.data.flags["C_CONTIGUOUS"]):
                out.data = np.ascontiguousarray(out.data)
            return out
        if kind == "expand_dims":
            return x.expand_dims(params["axis"] + 1)
        if kind == "concat":
            parts = [self._value(encoded, env) for encoded in op.inputs]
            widened = []
            for part in parts:
                if part.data.ndim == len(op.out_shape):
                    # Captured constant: broadcast across the client axis.
                    part = Tensor(np.broadcast_to(
                        part.data, (self.num_clients,) + part.data.shape).copy())
                widened.append(part)
            return Tensor.concat(widened, axis=params["axis"] + 1)
        raise UntraceableError(f"unknown tape op {kind!r}")

    def _bn_update(self, op: TapeOp, env: Dict[int, Tensor],
                   buffers: Dict[str, np.ndarray],
                   staged: "OrderedDict[str, np.ndarray]") -> None:
        """Stage one training-mode batch-norm buffer update for K clients.

        Mirrors the eager per-client update in ``functional.batch_norm``
        exactly, including the second-update-reads-the-first chaining when
        the encoder runs once per view within a step.
        """
        x = self._value(op.inputs[0], env).data
        axes = self._batched_axes(op.params["axes"])
        momentum = op.params["momentum"]
        batch_mean = x.mean(axis=axes)
        batch_var = x.var(axis=axes)
        unbiased = batch_var * op.params["count_scale"]
        for slot, stat in ((op.params["mean_slot"], batch_mean),
                           (op.params["var_slot"], unbiased)):
            current = staged.get(slot)
            if current is None:
                current = buffers[slot]
            staged[slot] = current * (1.0 - momentum) + momentum * stat
