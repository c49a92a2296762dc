"""pFL-SSL: the paper's uncalibrated two-stage baseline (§III-B).

Train the global encoder with a plain SSL objective under FedAvg
aggregation, then personalize a linear classifier per client on frozen
features.  Instantiating this with SimCLR/BYOL/SimSiam/MoCoV2 gives the
paper's pFL-SimCLR, pFL-BYOL, pFL-SimSiam, and pFL-MoCoV2 rows — the
methods whose "fuzzy class boundaries" motivate Calibre (§III-C, Figs. 1-2).

:class:`repro.core.calibre.Calibre` subclasses this algorithm and overrides
exactly the two pieces the paper changes: the local loss (prototype
regularizers) and the server aggregation (divergence-aware weighting).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..data.augment import TwoViewAugment, default_ssl_augment
from ..data.loader import batch_iterator
from ..fl.algorithm import ClientUpdate, FederatedAlgorithm
from ..fl.client import ClientData, derive_rng
from ..fl.config import FederatedConfig
from ..nn import BatchedSGD, SGD
from ..nn.serialize import StateDict
from ..nn.tensor import Tensor, no_grad
from ..nn.trace import (
    BatchedReplay,
    Trace,
    UntraceableError,
    commit_buffer_updates,
    input_leaves,
    patched_parameters,
)
from ..ssl import SSLMethod, SSLOutputs, build_ssl_method

__all__ = ["PFLSSL", "LossPlan"]

TRACE_CACHE_SIZE = 64
"""Recorded traces one algorithm instance keeps (least recently used go
first)."""


@dataclass
class LossPlan:
    """The per-client, per-step half of a planned local loss.

    ``arrays`` are the loss's per-client inputs, built on raw arrays: float
    arrays reach :meth:`PFLSSL.planned_loss` as tensors and 1-D integer
    arrays as row indices (:func:`repro.nn.trace.input_leaves`).
    ``metrics`` are per-batch values computed beside the loss on raw
    arrays (Calibre's divergence).
    """

    arrays: Dict[str, np.ndarray]
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def signature(self) -> Tuple:
        """Which arrays exist and their shapes: the Python-level branches
        ``planned_loss`` takes.  Clients sharing it share one trace."""
        return tuple((name, value.shape, str(value.dtype))
                     for name, value in self.arrays.items())


class PFLSSL(FederatedAlgorithm):
    """Two-stage personalized FL with a pluggable SSL training objective."""

    def __init__(
        self,
        config: FederatedConfig,
        num_classes: int,
        encoder_factory,
        ssl_name: str = "simclr",
        projection_dim: int = 32,
        hidden_dim: int = 64,
        augment: Optional[TwoViewAugment] = None,
        ssl_kwargs: Optional[Dict] = None,
    ):
        super().__init__(config, num_classes)
        self.ssl_name = ssl_name.lower()
        self.name = f"pfl-{self.ssl_name}"
        self.encoder_factory = encoder_factory
        self.projection_dim = projection_dim
        self.hidden_dim = hidden_dim
        self.augment = augment if augment is not None else default_ssl_augment()
        self.ssl_kwargs = dict(ssl_kwargs or {})
        # One template method instance is reused for every local update;
        # state is swapped in/out through state dicts.
        self._template = self._build_method(derive_rng(config.seed, 0))
        self._initial_state = self._template.state_dict()
        self._initial_extra = self._template.extra_state()
        self._global_keys = tuple(self._template.global_state())
        # Client-batched execution: recorded traces keyed by (view shape,
        # dtype, architecture, plan signature), an LRU of TRACE_CACHE_SIZE;
        # the latch disables batching permanently for this instance after
        # the first untraceable computation.
        self._trace_cache: "OrderedDict[Hashable, Trace]" = OrderedDict()
        self._untraceable = False

    # ------------------------------------------------------------------
    def _build_method(self, rng: np.random.Generator) -> SSLMethod:
        return build_ssl_method(
            self.ssl_name,
            self.encoder_factory,
            projection_dim=self.projection_dim,
            hidden_dim=self.hidden_dim,
            rng=rng,
            **self.ssl_kwargs,
        )

    def build_global_state(self) -> StateDict:
        self._template.load_state_dict(self._initial_state)
        if self._initial_extra:
            self._template.load_extra_state(self._initial_extra)
        return self._template.global_state()

    # ------------------------------------------------------------------
    # Local training
    # ------------------------------------------------------------------
    def _restore_client_method(self, client: ClientData,
                               global_state: StateDict) -> SSLMethod:
        """Load the template with the initial state, then this client's
        kept state, then the global model.

        The saved keys load non-strictly, so a store that also holds
        global keys (an older checkpoint's whole ``state_dict()``)
        restores to the same model: the global model overwrites them.
        """
        method = self._template
        method.load_state_dict(self._initial_state)
        if self._initial_extra:
            method.load_extra_state(self._initial_extra)
        key = f"{self.name}/local"
        if key in client.store:
            saved_state, saved_extra = client.store[key]
            method.load_state_dict(saved_state, strict=False)
            if saved_extra:
                method.load_extra_state(saved_extra)
        method.load_global_state(global_state)
        return method

    def _keep_client_state(self, client: ClientData,
                           state: Mapping[str, np.ndarray],
                           extra: Dict[str, np.ndarray]) -> None:
        """Store copies of ``state``'s :meth:`_local_keys` and ``extra``
        as what ``client`` keeps; a client that keeps nothing holds no
        entry."""
        kept = OrderedDict((key, np.array(state[key], copy=True))
                           for key in self._local_keys())
        if kept or extra:
            client.store[f"{self.name}/local"] = (kept, extra)
        else:
            client.store.pop(f"{self.name}/local", None)

    def _save_client_method(self, client: ClientData, method: SSLMethod) -> None:
        state = {name: param.data for name, param in method.named_parameters()}
        state.update(method.named_buffers())
        self._keep_client_state(client, state, method.extra_state())

    def local_loss(self, method: SSLMethod, outputs: SSLOutputs,
                   rng: np.random.Generator):
        """The training-stage loss; pFL-SSL uses the bare SSL objective.

        Returns (loss_tensor, metrics_dict).  Calibre overrides it to add
        the prototype regularizers of Algorithm 1, as the composition of
        :meth:`loss_plan` and :meth:`planned_loss` — the two halves the
        client-batched engine runs separately.
        """
        return outputs.loss, {}

    def loss_plan(self, z_e: Tensor, z_o: Tensor,
                  rng: np.random.Generator) -> Optional[LossPlan]:
        """Per-client half of the loss, on the step's encodings and the
        client's generator; pFL-SSL plans nothing."""
        return None

    def planned_loss(self, outputs: SSLOutputs, plan: Mapping[str, object]
                     ) -> Tuple[Tensor, Dict[str, Tensor]]:
        """Traceable half: the loss and its named per-batch terms.

        ``plan`` holds the :class:`LossPlan` arrays as tensors (trace
        leaves while recording), so the body must branch only on which
        arrays exist and never pull values out (TRC002).
        """
        return outputs.loss, {}

    def local_update(self, client: ClientData, global_state: StateDict,
                     round_index: int) -> ClientUpdate:
        config = self.config
        rng = self.rng_for(client, round_index)
        method = self._restore_client_method(client, global_state)
        method.train()
        optimizer = SGD(
            method.parameters(),
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        pool = client.ssl_pool()
        total_loss, batch_count = 0.0, 0
        # Per-metric sums and counts: a local_loss may emit a metric on only
        # some batches (Calibre's l_p needs two populated clusters), and
        # each metric averages over the batches that emitted it.
        aggregated: Dict[str, float] = {}
        emitted: Dict[str, int] = {}
        for _ in range(config.local_epochs):
            for batch in batch_iterator(len(pool), config.batch_size, shuffle=True,
                                        rng=rng):
                if batch.shape[0] < 2:
                    continue  # SSL objectives need at least one positive pair
                images = pool.images[batch]
                view_e, view_o = self.augment(images, rng)
                outputs = method.compute(view_e, view_o)
                loss, metrics = self.local_loss(method, outputs, rng)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                method.post_step()
                total_loss += loss.item()
                batch_count += 1
                for name, value in metrics.items():
                    aggregated[name] = aggregated.get(name, 0.0) + value
                    emitted[name] = emitted.get(name, 0) + 1
        self._save_client_method(client, method)
        metrics = {"loss": total_loss / max(batch_count, 1)}
        for name, value in aggregated.items():
            metrics[name] = value / emitted[name]
        return ClientUpdate(
            client_id=client.client_id,
            state=method.global_state(),
            weight=float(client.num_train_samples),
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # Client-batched cohorts (trace/replay vectorization)
    # ------------------------------------------------------------------
    def _cohort_batchable(self) -> bool:
        """Whether this instance's local update can be vectorized at all.

        Batching requires the stock training loop: subclasses that override
        ``local_update``, or ``local_loss`` without also defining its
        traceable half ``planned_loss`` (the class that owns ``local_loss``
        must own ``planned_loss`` too, as Calibre does), methods that keep
        extra state or a non-trivial ``post_step``, and anything that has
        already proven untraceable all fall back to the per-client path.
        """
        if self._untraceable:
            return False
        template_cls = type(self._template)
        loss_owner = next(cls for cls in type(self).__mro__
                          if "local_loss" in vars(cls))
        return (
            type(self).local_update is PFLSSL.local_update
            and "planned_loss" in vars(loss_owner)
            and getattr(template_cls, "supports_client_batching", False)
            and template_cls.post_step is SSLMethod.post_step
            and not self._initial_extra
        )

    def cohort_key(self, client: ClientData) -> Optional[Hashable]:
        """Group clients whose SSL pools are shape/dtype-homogeneous.

        Identical pool shapes imply identical batch schedules (same batch
        count, same per-batch sizes, same skip-small-batch decisions), which
        is what lets one recorded trace replay for the whole cohort.
        """
        if not self._cohort_batchable():
            return None
        pool = client.ssl_pool()
        return (self.name, tuple(pool.images.shape), str(pool.images.dtype))

    def cohort_update(self, clients: Sequence[ClientData],
                      global_state: StateDict,
                      round_index: int) -> List[ClientUpdate]:
        if len(clients) < 2 or not self._cohort_batchable():
            return super().cohort_update(clients, global_state, round_index)
        try:
            return self._batched_cohort_update(clients, global_state, round_index)
        except UntraceableError:
            # Nothing was persisted before the failure (stores and updates
            # are written only on success), so the per-client loop recomputes
            # the round from clean restored state.
            self._untraceable = True
            telemetry.count("cohort.fallback_latches")
            return super().cohort_update(clients, global_state, round_index)

    def _cached_trace(self, key: Hashable, record: Callable[[], Trace]) -> Trace:
        """The trace under ``key``, recorded on a miss (an LRU of
        :data:`TRACE_CACHE_SIZE` entries)."""
        trace = self._trace_cache.get(key)
        if trace is None:
            telemetry.count("trace.cache_misses")
            trace = self._trace_cache[key] = record()
            if len(self._trace_cache) > TRACE_CACHE_SIZE:
                self._trace_cache.popitem(last=False)
        else:
            telemetry.count("trace.cache_hits")
            self._trace_cache.move_to_end(key)
        return trace

    def _record(self, param_values: Mapping[str, np.ndarray],
                body: Callable[[Trace], None]) -> Trace:
        """Record ``body(trace)`` with trace-leaf parameters swapped in.

        The eagerly computed values are throwaways (only shapes and the op
        tape matter), so any client's current state is as good a donor as
        any.
        """
        template = self._template
        trace = Trace()
        trace.register_buffers(template.named_buffers())
        leaves = OrderedDict((name, trace.add_param(name, value))
                             for name, value in param_values.items())
        with no_grad(), patched_parameters(template, leaves):
            body(trace)
        trace.seal()
        return trace

    def _record_step(self, view_e: np.ndarray, view_o: np.ndarray,
                     plan_arrays: Mapping[str, np.ndarray],
                     param_values: Mapping[str, np.ndarray]) -> Trace:
        """One client's forward and planned loss; its terms become named
        outputs."""
        def body(trace: Trace) -> None:
            outputs = self._template.compute(trace.add_input("view_e", view_e),
                                             trace.add_input("view_o", view_o))
            loss, terms = self.planned_loss(outputs,
                                            input_leaves(plan_arrays, trace))
            trace.set_output(loss)
            for name, term in terms.items():
                trace.add_output(name, term)

        return self._record(param_values, body)

    def _record_encodings(self, view_e: np.ndarray, view_o: np.ndarray,
                          param_values: Mapping[str, np.ndarray]) -> Trace:
        """The encoder over both views — ``SSLOutputs.z_e``/``z_o`` — as
        named outputs."""
        def body(trace: Trace) -> None:
            for view, value in (("e", view_e), ("o", view_o)):
                trace.add_output(f"z_{view}", self._template.encoder(
                    trace.add_input(f"view_{view}", value)))

        return self._record(param_values, body)

    def _plan_step(self, key: Tuple, inputs: Dict[str, np.ndarray],
                   leaves: Dict[str, Tensor], buffers: Dict[str, np.ndarray],
                   rngs: Sequence[np.random.Generator],
                   donor: Mapping[str, np.ndarray]) -> List[LossPlan]:
        """Every client's :meth:`loss_plan` for this step.

        One replay of the encoder without gradients reads each client's
        encodings; its staged buffer updates are dropped, since the
        gradient replay stages them again.
        """
        trace = self._cached_trace(key + ("encodings",), partial(
            self._record_encodings, inputs["view_e"][0], inputs["view_o"][0], donor))
        replay = BatchedReplay(trace, len(rngs), counter="plan")
        with no_grad():
            replay.run(inputs, leaves, buffers)
        z_e, z_o = replay.outputs["z_e"].data, replay.outputs["z_o"].data
        return [self.loss_plan(Tensor(z_e[k]), Tensor(z_o[k]), rng)
                for k, rng in enumerate(rngs)]

    @staticmethod
    def _replay_group(trace: Trace, positions: List[int],
                      inputs: Dict[str, np.ndarray], leaves: Dict[str, Tensor],
                      buffers: Dict[str, np.ndarray]):
        """Replay ``trace`` with gradients over the clients at ``positions``.

        ``inputs`` are the group's rows; the gradients land in the same
        rows of the K-wide ``leaves``.  Returns the group's per-client
        loss, named outputs and staged buffer updates.
        """
        whole = len(positions) == len(next(iter(leaves.values())).data)
        group_leaves, group_buffers = leaves, buffers
        if not whole:
            group_leaves = {name: Tensor(leaf.data[positions], requires_grad=True)
                            for name, leaf in leaves.items()}
            group_buffers = {name: buffer[positions]
                             for name, buffer in buffers.items()}
        replay = BatchedReplay(trace, len(positions))
        loss, staged = replay.run(inputs, group_leaves, group_buffers)
        loss.backward()
        if not whole:
            for name, leaf in leaves.items():
                grad = group_leaves[name].grad
                if grad is None:
                    raise UntraceableError(
                        f"parameter {name!r} got no gradient in a client group")
                if leaf.grad is None:
                    leaf.grad = np.empty_like(leaf.data)
                leaf.grad[positions] = grad
        return loss, replay.outputs, staged

    def _batched_cohort_update(self, clients: Sequence[ClientData],
                               global_state: StateDict,
                               round_index: int) -> List[ClientUpdate]:
        """Train a homogeneous cohort on K-wide graphs.

        Per-client states stack into ``(K, *shape)`` arrays; parameter
        leaves share that storage so the vectorized SGD updates it in
        place.  Each step

        1. augments every client's batch;
        2. for a planned loss (an overridden :meth:`loss_plan`), replays
           the encoder once without gradients and builds each client's
           plan from its encodings;
        3. groups the clients by plan signature and replays each group's
           trace with gradients, scattering the group's gradients into the
           K-wide leaves (without plans, one group of everyone);
        4. takes one :class:`BatchedSGD` step.

        Per-client RNG streams are consumed in exactly the order the
        per-client loop consumes them (permutation at each epoch's first
        batch, then per kept batch the augment and the plan's k-means), so
        every slice of every replayed op — and therefore every update,
        loss, metric, and saved state — is bitwise identical to the
        per-client path.
        """
        config = self.config
        template = self._template
        start_states = []
        for client in clients:
            method = self._restore_client_method(client, global_state)
            start_states.append(method.state_dict())
        keys = list(start_states[0])
        stacked = {key: np.stack([state[key] for state in start_states])
                   for key in keys}
        param_names = [name for name, _ in template.named_parameters()]
        buffer_names = [name for name, _ in template.named_buffers()]
        leaves = {name: Tensor(stacked[name], requires_grad=True)
                  for name in param_names}
        buffers = {name: stacked[name] for name in buffer_names}
        optimizer = BatchedSGD(
            [leaves[name] for name in param_names],
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            num_clients=len(clients),
        )
        template.train()
        arch = tuple((key, stacked[key].shape[1:], str(stacked[key].dtype))
                     for key in keys)
        planned = type(self).loss_plan is not PFLSSL.loss_plan
        pools = [client.ssl_pool() for client in clients]
        rngs = [self.rng_for(client, round_index) for client in clients]
        totals = np.zeros(len(clients))
        # Per-client metric sums and counts, as local_update keeps them.
        sums: List[Dict[str, float]] = [{} for _ in clients]
        emitted: List[Dict[str, int]] = [{} for _ in clients]
        batch_count = 0

        def donor(position: int) -> "OrderedDict[str, np.ndarray]":
            return OrderedDict((name, stacked[name][position])
                               for name in param_names)

        for _ in range(config.local_epochs):
            iterators = [batch_iterator(len(pool), config.batch_size,
                                        shuffle=True, rng=rng)
                         for pool, rng in zip(pools, rngs)]
            for batches in zip(*iterators):
                if batches[0].shape[0] < 2:
                    continue  # same skip as the per-client loop, pre-augment
                views = [self.augment(pool.images[batch], rng)
                         for pool, batch, rng in zip(pools, batches, rngs)]
                inputs = {"view_e": np.stack([view[0] for view in views]),
                          "view_o": np.stack([view[1] for view in views])}
                step_key = (tuple(views[0][0].shape), str(inputs["view_e"].dtype),
                            arch)
                plans: List[Optional[LossPlan]] = [None] * len(clients)
                if planned:
                    plans = self._plan_step(step_key, inputs, leaves, buffers,
                                            rngs, donor(0))
                groups: Dict[Tuple, List[int]] = {}
                for position, plan in enumerate(plans):
                    signature = () if plan is None else plan.signature
                    groups.setdefault(signature, []).append(position)
                optimizer.zero_grad()
                staged: "OrderedDict[str, np.ndarray]" = OrderedDict()
                for signature, positions in groups.items():
                    first = positions[0]
                    arrays = {} if plans[first] is None else plans[first].arrays
                    trace = self._cached_trace(step_key + (signature,), partial(
                        self._record_step, *views[first], arrays, donor(first)))
                    group_inputs = {name: value if len(groups) == 1 else value[positions]
                                    for name, value in inputs.items()}
                    for name in arrays:
                        group_inputs[name] = np.stack([plans[position].arrays[name]
                                                       for position in positions])
                    loss, terms, group_staged = self._replay_group(
                        trace, positions, group_inputs, leaves, buffers)
                    for slot, value in group_staged.items():
                        if slot not in staged:
                            staged[slot] = buffers[slot].copy()
                        staged[slot][positions] = value
                    totals[positions] += loss.data
                    for name in terms:
                        telemetry.count(f"plan.terms.{name}", len(positions))
                    for row, position in enumerate(positions):
                        metrics = {name: float(term.data[row])
                                   for name, term in terms.items()}
                        if plans[position] is not None:
                            metrics.update(plans[position].metrics)
                        for name, value in metrics.items():
                            sums[position][name] = sums[position].get(name, 0.0) + value
                            emitted[position][name] = emitted[position].get(name, 0) + 1
                optimizer.step()
                commit_buffer_updates(staged, buffers)
                batch_count += 1
        updates = []
        for index, client in enumerate(clients):
            self._keep_client_state(
                client, {key: stacked[key][index] for key in keys}, {})
            state = OrderedDict(
                (key, np.array(stacked[key][index], copy=True))
                for key in self._global_keys)
            metrics = {"loss": float(totals[index]) / max(batch_count, 1)}
            for name, value in sums[index].items():
                metrics[name] = value / emitted[index][name]
            updates.append(ClientUpdate(
                client_id=client.client_id,
                state=state,
                weight=float(client.num_train_samples),
                metrics=metrics,
            ))
        return updates

    # ------------------------------------------------------------------
    # Personalization support
    # ------------------------------------------------------------------
    def extract_features(self, clients: Sequence[ClientData],
                         global_state: StateDict,
                         images: Sequence[np.ndarray]) -> List[np.ndarray]:
        """The frozen global encoder over each array, loaded once.

        An encoder that accepts a client axis encodes each group of
        same-shape, same-dtype arrays as one eval-mode ``(K, N, C, H, W)``
        forward; others encode array by array.  The arrays stack on a new
        axis and are never concatenated by rows: a ``(K, N, D) @ (D, H)``
        product runs each slice's GEMM with the lone call's shape, while a
        row-concatenated ``(ΣN, D)`` one changes the shape and, with it,
        the rounding.
        """
        method = self._template
        method.load_state_dict(self._initial_state)
        method.load_global_state(global_state)
        if not getattr(type(method.encoder), "accepts_client_axis", False):
            return [method.encode(array) for array in images]
        groups: Dict[Tuple, List[int]] = {}
        for position, array in enumerate(images):
            groups.setdefault((array.shape, array.dtype.str), []).append(position)
        features: List[Optional[np.ndarray]] = [None] * len(images)
        for positions in groups.values():
            stacked = method.encode(np.stack([images[p] for p in positions]))
            for row, position in enumerate(positions):
                features[position] = stacked[row]
        return features
