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
from typing import Dict, Hashable, List, Optional, Sequence

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
    patched_parameters,
)
from ..ssl import SSLMethod, SSLOutputs, build_ssl_method

__all__ = ["PFLSSL"]


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
        persist_local_state: bool = True,
    ):
        super().__init__(config, num_classes)
        self.ssl_name = ssl_name.lower()
        self.name = f"pfl-{self.ssl_name}"
        self.encoder_factory = encoder_factory
        self.projection_dim = projection_dim
        self.hidden_dim = hidden_dim
        self.augment = augment if augment is not None else default_ssl_augment()
        self.ssl_kwargs = dict(ssl_kwargs or {})
        self.persist_local_state = persist_local_state
        # One template method instance is reused for every local update;
        # state is swapped in/out through state dicts.
        self._template = self._build_method(derive_rng(config.seed, 0))
        self._initial_state = self._template.state_dict()
        self._initial_extra = self._template.extra_state()
        # Client-batched execution: recorded traces keyed by (view shape,
        # dtype, architecture); the latch disables batching permanently for
        # this instance after the first untraceable computation.
        self._trace_cache: Dict = {}
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
        """Load the template with this client's local state + the global model."""
        method = self._template
        key = f"{self.name}/local"
        if self.persist_local_state and key in client.store:
            saved_state, saved_extra = client.store[key]
            method.load_state_dict(saved_state)
            if saved_extra:
                method.load_extra_state(saved_extra)
        else:
            method.load_state_dict(self._initial_state)
            if self._initial_extra:
                method.load_extra_state(self._initial_extra)
        method.load_global_state(global_state)
        return method

    def _save_client_method(self, client: ClientData, method: SSLMethod) -> None:
        if self.persist_local_state:
            client.store[f"{self.name}/local"] = (
                method.state_dict(), method.extra_state()
            )

    def local_loss(self, method: SSLMethod, outputs: SSLOutputs,
                   rng: np.random.Generator):
        """The training-stage loss; pFL-SSL uses the bare SSL objective.

        Returns (loss_tensor, metrics_dict); Calibre overrides this to add
        the prototype regularizers of Algorithm 1.
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

        Batching requires the *exact* stock training loop: subclasses that
        override ``local_update`` or ``local_loss`` (Calibre's prototype
        regularizers run k-means on raw arrays), methods that keep extra
        state or a non-trivial ``post_step``, and anything that has already
        proven untraceable all fall back to the per-client path.
        """
        if self._untraceable:
            return False
        template_cls = type(self._template)
        return (
            type(self).local_update is PFLSSL.local_update
            and type(self).local_loss is PFLSSL.local_loss
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

    def _record_trace(self, view_e: np.ndarray, view_o: np.ndarray,
                      param_values: "OrderedDict[str, np.ndarray]") -> Trace:
        """Record one client's forward/loss as a replayable trace.

        Runs the template's ``compute``/``local_loss`` once with trace-leaf
        parameters swapped in; the eagerly computed values are throwaways
        (only shapes and the op tape matter), so client 0's current state is
        as good a donor as any.
        """
        template = self._template
        trace = Trace()
        trace.register_buffers(template.named_buffers())
        leaves = OrderedDict(
            (name, trace.add_param(name, value))
            for name, value in param_values.items())
        with no_grad(), patched_parameters(template, leaves):
            traced_e = trace.add_input("view_e", view_e)
            traced_o = trace.add_input("view_o", view_o)
            outputs = template.compute(traced_e, traced_o)
            loss, metrics = self.local_loss(template, outputs,
                                            derive_rng(0))
        if metrics:
            raise UntraceableError(
                "per-batch loss metrics are not supported in batched mode")
        trace.set_output(loss)
        trace.seal()
        return trace

    def _batched_cohort_update(self, clients: Sequence[ClientData],
                               global_state: StateDict,
                               round_index: int) -> List[ClientUpdate]:
        """Train a homogeneous cohort with one K-wide graph per step.

        Per-client states stack into ``(K, *shape)`` arrays; parameter
        leaves share that storage so the vectorized SGD updates it in
        place.  Per-client RNG streams are consumed in exactly the order
        the per-client loop consumes them (permutation at each epoch's
        first batch, then one augment per kept batch), so every slice of
        every replayed op — and therefore every update, loss, and saved
        state — is bitwise identical to the per-client path.
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
        pools = [client.ssl_pool() for client in clients]
        rngs = [self.rng_for(client, round_index) for client in clients]
        totals = np.zeros(len(clients))
        batch_count = 0
        for _ in range(config.local_epochs):
            iterators = [batch_iterator(len(pool), config.batch_size,
                                        shuffle=True, rng=rng)
                         for pool, rng in zip(pools, rngs)]
            for batches in zip(*iterators):
                if batches[0].shape[0] < 2:
                    continue  # same skip as the per-client loop, pre-augment
                views = [self.augment(pool.images[batch], rng)
                         for pool, batch, rng in zip(pools, batches, rngs)]
                view_e = np.stack([view[0] for view in views])
                view_o = np.stack([view[1] for view in views])
                cache_key = (tuple(views[0][0].shape), str(view_e.dtype), arch)
                trace = self._trace_cache.get(cache_key)
                if trace is None:
                    telemetry.count("trace.cache_misses")
                    trace = self._record_trace(
                        views[0][0], views[0][1],
                        OrderedDict((name, stacked[name][0])
                                    for name in param_names))
                    self._trace_cache[cache_key] = trace
                else:
                    telemetry.count("trace.cache_hits")
                replay = BatchedReplay(trace, len(clients))
                loss, staged = replay.run(
                    {"view_e": view_e, "view_o": view_o}, leaves, buffers)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                commit_buffer_updates(staged, buffers)
                totals += loss.data
                batch_count += 1
        global_keys = list(template.global_state())
        updates = []
        for index, client in enumerate(clients):
            if self.persist_local_state:
                local_state = OrderedDict(
                    (key, np.array(stacked[key][index], copy=True))
                    for key in keys)
                client.store[f"{self.name}/local"] = (local_state, {})
            state = OrderedDict(
                (key, np.array(stacked[key][index], copy=True))
                for key in global_keys)
            updates.append(ClientUpdate(
                client_id=client.client_id,
                state=state,
                weight=float(client.num_train_samples),
                metrics={"loss": float(totals[index]) / max(batch_count, 1)},
            ))
        return updates

    # ------------------------------------------------------------------
    # Personalization support
    # ------------------------------------------------------------------
    def extract_features(self, client: ClientData, global_state: StateDict,
                         images: np.ndarray) -> np.ndarray:
        method = self._template
        method.load_state_dict(self._initial_state)
        method.load_global_state(global_state)
        return method.encode(images)
