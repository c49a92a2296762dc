"""Trace/replay vectorization: a client axis for the autograd engine.

The FL hot path runs the *same* SSL training step for dozens of homogeneous
clients per round, and :mod:`repro.nn.tensor` pays Python-side graph
bookkeeping per client per op.  This module removes the per-client factor:

1. **Record** — run one client's forward once with :class:`TraceTensor`
   operands.  Every primitive still runs through
   :func:`~repro.nn.tensor.apply`, which sees the traced operand and hands
   the application to :meth:`Trace.record`: the op table entry computes
   its result eagerly (so shape checks and data-dependent Python control
   flow behave exactly as in a normal run), runs its record-time checks,
   and a :class:`TapeOp` naming the entry's kind is appended.
2. **Replay** — :class:`BatchedReplay` re-executes the tape over K clients'
   data stacked into a new leading axis: each entry's replay rule
   (:mod:`repro.nn.ops`) applies table entries to real :class:`Tensor`
   operands with gradients enabled.  One graph of K-wide numpy ops
   replaces K graphs, and ``backward()`` runs the same VJPs.

The contract is bitwise equivalence: slice ``k`` of every replayed op
equals the op the per-client path would have computed for client ``k``;
:mod:`repro.nn.ops` states how each entry keeps it.

Anything that cannot keep that contract raises :exc:`UntraceableError` —
an entry without a replay rule (``conv2d``), an index or product the
client axis would change, and eval-mode batch norm (which reads
per-client buffers).  Callers treat the exception as "fall back to the
per-client loop", never as corruption.

Batch-norm running statistics are the one intentional side effect: the
training-mode buffer update is the ``bn_update`` entry, recorded against
registered buffer slots and replayed against K-stacked buffers, *staged*
so the two sequential updates per step (one per view) chain exactly like
the in-place per-client updates.

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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import telemetry
from .tensor import OPS, Tensor

__all__ = [
    "UntraceableError",
    "TapeOp",
    "Trace",
    "TraceTensor",
    "TraceIndex",
    "BatchedReplay",
    "input_leaves",
    "patched_parameters",
    "commit_buffer_updates",
]

class UntraceableError(RuntimeError):
    """The computation cannot be recorded for batched replay.

    Raised during recording when an op falls outside the traceable primitive
    set or would capture per-client data as a shared constant.  Callers fall
    back to the per-client execution path; results are never silently wrong.
    """


class TapeOp:
    """One recorded primitive: kind, operands, params, and unbatched output.

    ``kind`` is the op table key (a string, so sealed traces pickle).
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
        trace = value._trace
        if trace is None:
            return ("c", np.array(value.data, copy=True))
        if trace is not self:
            raise UntraceableError("cannot mix tensors from different traces")
        return ("t", value._tid)

    def buffer_slot(self, buffer: np.ndarray) -> str:
        """The registered name of a module buffer (see :meth:`register_buffers`)."""
        slot = self._buffer_slots.get(id(buffer))
        if slot is None:
            raise UntraceableError(
                "batch_norm buffers are not registered with the trace "
                "(module buffers must be registered before recording)")
        return slot

    def record(self, op, operands: Tuple, params: Dict) -> Optional["TraceTensor"]:
        """Record one application of an op table entry; called by ``apply``.

        The entry's forward computes the donor's result, then its
        record-time checks decide what the tape stores.  Returns the traced
        output (``None`` for the side-effect entry).
        """
        if self.sealed:
            raise UntraceableError("trace is sealed; recording is finished")
        if op.replay is None:
            raise UntraceableError(
                f"{op.kind!r} has no replay rule and cannot be recorded for "
                "batched replay")
        data, _ = op.forward(*[operand.data for operand in operands], **params)
        operands, params = op.record(self, operands, params, data)
        inputs = tuple(self.operand(operand) for operand in operands)
        if data is None:
            self.ops.append(TapeOp(op.kind, None, inputs, params, (), ""))
            return None
        out = self._new_tensor(data)
        self.ops.append(TapeOp(op.kind, out._tid, inputs, params,
                               tuple(data.shape), str(data.dtype)))
        return out


class TraceTensor(Tensor):
    """A :class:`Tensor` recorded on a :class:`Trace`.

    It only carries its identity: every op that reads it records through
    :func:`~repro.nn.tensor.apply`.  It refuses the two escapes that would
    specialize the tape to the donor client.
    """

    __slots__ = ("_trace", "_tid")

    def __init__(self, data, trace: Trace, tid: int):
        super().__init__(data)
        self._trace = trace
        self._tid = tid

    def backward(self, grad=None):
        raise UntraceableError("backward() is not available while recording")

    def item(self) -> float:
        raise UntraceableError(
            "item() during recording would capture a per-client value as a "
            "shared constant")


class TraceIndex:
    """A per-client row index registered by :meth:`Trace.add_index`.

    Its one use is ``x[index]`` on a :class:`TraceTensor`: the recorded
    ``getitem`` takes it as an operand and selects rows of the leading
    axis, and replay selects each client's own rows — where a plain
    integer array would be captured as the donor client's constant.
    """

    __slots__ = ("_trace", "_tid", "data")

    def __init__(self, trace: Trace, tid: int, data: np.ndarray):
        self._trace = trace
        self._tid = tid
        self.data = data


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
    client axis: every tape entry goes through its op table rule, and
    slice ``k`` of every op is bitwise what the per-client path computes
    for client ``k``.  Gradients flow through the ordinary
    ``Tensor.backward``, so batched parameter leaves accumulate per-client
    gradients with no new backward code.

    ``counter`` prefixes the telemetry counters each run bumps
    (``<counter>.replays``, ``<counter>.replay_clients``), so replays of
    different stages stay distinguishable in a profile.

    After :meth:`run`, :attr:`outputs` maps each named extra output of the
    trace to its ``(K, *recorded_shape)`` tensor, and :attr:`staged` holds
    the run's ``bn_update`` results: buffer name to ``(K, *shape)`` array.
    """

    def __init__(self, trace: Trace, num_clients: int, counter: str = "trace"):
        if not trace.sealed:
            raise UntraceableError("replay requires a sealed trace")
        self.trace = trace
        self.num_clients = int(num_clients)
        self.counter = counter
        self.outputs: Dict[str, Tensor] = {}
        self.buffers: Dict[str, np.ndarray] = {}
        self.staged: "OrderedDict[str, np.ndarray]" = OrderedDict()

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
                if array.shape != (k,) + shape or array.dtype != dtype:
                    raise UntraceableError(
                        f"input {name!r} has shape {array.shape}/{array.dtype}, "
                        f"trace recorded {(k,) + shape}/{dtype}")
                env[tid] = wrap(array)
        for name, (tid, shape, dtype) in self.trace.params.items():
            leaf = params[name]
            if leaf.data.shape != (k,) + shape or leaf.data.dtype != dtype:
                raise UntraceableError(
                    f"parameter {name!r} has shape {leaf.data.shape}/{leaf.data.dtype}, "
                    f"trace recorded {(k,) + shape}/{dtype}")
            env[tid] = leaf
        self.buffers = buffers
        self.staged = OrderedDict()
        for op in self.trace.ops:
            entry = OPS.get(op.kind)
            if entry is None:
                raise UntraceableError(f"unknown tape op {op.kind!r}")
            operands = [env[payload] if tag == "t" else Tensor(payload)
                        for tag, payload in op.inputs]
            out = entry.replay(self, operands, op.params, op.out_shape)
            if op.out is None:
                continue
            expected = (k,) + op.out_shape
            if out.data.shape != expected:
                raise UntraceableError(
                    f"replayed {op.kind} produced shape {out.data.shape}, "
                    f"expected {expected}")
            env[op.out] = out
        self.outputs = {name: env[tid] for name, tid in self.trace.outputs.items()}
        loss = None if self.trace.output is None else env[self.trace.output]
        return loss, self.staged
