"""The composable, checkpointable round loop: :class:`TrainingSession`.

A session object

* owns an explicit, serializable :class:`~repro.fl.session.state.ServerState`
  (global model, round cursor, history, algorithm server state, client
  stores) and advances it via :meth:`step` / :meth:`run_until`;
* emits typed lifecycle events (:mod:`repro.fl.session.events`) to
  registered callbacks at every seam of the loop;
* dispatches every round as a plan of client cohorts — a per-client round
  is a plan of singleton cohorts — and consumes the updates as an
  *iterator of completed results* (``ExecutionBackend.imap``): each
  update's store write-back and ``ClientUpdateDone`` event happen the
  moment its cohort finishes, and the update is kept at its sampled
  position, so the round's one aggregation call combines updates in
  sampled order whatever the completion order;
* checkpoints and restores at round granularity: a run resumed from a
  checkpoint taken at round k is bitwise identical to the uninterrupted
  run, across the serial and process backends.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import warnings
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...nn.serialize import StateDict, clone_state
from ...telemetry import InstrumentedTask, TaskOutcome, current_tracer
from ..algorithm import ClientUpdate, FederatedAlgorithm
from ..client import ClientData, ClientTable
from ..config import EXECUTION_FIELDS, OMITTED_DEFAULTS, FederatedConfig
from ..execution import (
    ExecutionBackend,
    Resident,
    ResidentClient,
    chunk_items,
    resolve_backend,
)
from ..history import RoundRecord, RunResult
from ..population import AvailabilityModel, VirtualPopulation, buffered_aggregate
from ..sampler import RandomSampler
from .events import (
    AggregateDone,
    ClientUpdateDone,
    EVENT_HOOKS,
    PersonalizeDone,
    RoundBegin,
    RoundEnd,
    SessionCallback,
    SessionEvent,
)
from .codec import PackedState, pack_store, unpack_store
from .state import ServerState, read_checkpoint, write_checkpoint

__all__ = ["TrainingSession", "default_session_context"]


@dataclass
class _ClientOutcome:
    """What a cohort task ships back to the coordinator, per client.

    ``store`` carries the client's persistent algorithm state: under the
    process backend the worker mutates its own copy of the client, so the
    store must travel back explicitly for the coordinator to reattach.
    When the dispatching session packs stores for IPC (process backend),
    ``store`` travels both ways as a columnar
    :class:`~repro.fl.session.codec.PackedState` buffer instead of a
    pickled tree of ndarrays; :meth:`TrainingSession._dispatch` unpacks it.
    """

    client_id: int
    result: object
    store: Dict


def _unpack_client_store(client: ClientData) -> bool:
    """Restore a packed incoming store before the algorithm touches it.

    Returns whether the store arrived packed — the task repacks its reply
    iff it did, so serial dispatch (never packed) is bit-for-bit
    untouched and the serial *fallback* of the process backend stays safe
    (pack/unpack round-trips exactly, and the task leaves the client it
    was handed holding a plain store either way).
    """
    if isinstance(client.store, PackedState):
        client.store = client.store.unpack()
        return True
    return False


def _cohort_outcomes(cohort: Sequence[ResidentClient], run
                     ) -> List[_ClientOutcome]:
    """Run ``run(clients)`` over a cohort's resolved clients and box one
    outcome per client, in cohort order, so the coordinator can reattach
    stores and consume the results at original input positions."""
    clients = [handle.resolve() for handle in cohort]
    packed = [_unpack_client_store(client) for client in clients]
    results = run(clients)
    return [_ClientOutcome(client.client_id, result,
                           pack_store(client.store) if was_packed
                           else client.store)
            for client, result, was_packed in zip(clients, results, packed)]


def _cohort_update_task(algorithm: Resident, global_state: StateDict,
                        round_index: int, cohort: Sequence[ResidentClient]
                        ) -> List[_ClientOutcome]:
    """One cohort's round contribution (module-level: picklable)."""
    return _cohort_outcomes(cohort, lambda clients: algorithm.resolve()
                            .cohort_update(clients, global_state, round_index))


def _cohort_personalize_task(algorithm: Resident, global_state: StateDict,
                             cohort: Sequence[ResidentClient]
                             ) -> List[_ClientOutcome]:
    """One cohort's personalization stage (module-level: picklable)."""
    return _cohort_outcomes(cohort, lambda clients: algorithm.resolve()
                            .cohort_personalize(clients, global_state))


def _cohort_span_attrs(round_index: Optional[int],
                       cohort: Sequence[ResidentClient]) -> Dict:
    """Span attrs for one cohort task (module-level: picklable); the
    personalization stage has no round."""
    attrs = {} if round_index is None else {"round": round_index}
    attrs["cohort_size"] = len(cohort)
    attrs["client_ids"] = [int(handle.client_id) for handle in cohort]
    return attrs


def _require_unique_ids(clients: Sequence[ClientData], label: str) -> None:
    """Reject a client list that repeats an id: stores, sampling and
    personalization results are all keyed by client id."""
    counts = Counter(client.client_id for client in clients)
    repeated = sorted(client_id for client_id, n in counts.items() if n > 1)
    if repeated:
        raise ValueError(f"{label} repeat client ids {repeated}; "
                         "every client needs its own id")


def default_session_context(algorithm: FederatedAlgorithm,
                            clients: Union[Sequence[ClientData],
                                           VirtualPopulation],
                            config) -> str:
    """Fingerprint of what a checkpoint is only valid against.

    Hashes the algorithm name, the result-determining config fields, and
    the federation's shape — client ids and local sample counts for a
    materialized client list, or the O(1)
    :meth:`~repro.fl.population.VirtualPopulation.context_payload` for a
    virtual population (enumerating a million clients into a checkpoint
    guard would defeat laziness).  It is a guard against *accidental*
    cross-run resume — a different seed, sample count, or client grid —
    not a cryptographic identity of the data.  A sweep cell substitutes
    a stronger one: :func:`repro.runs.execute_cell` passes its
    :class:`~repro.runs.RunKey` fingerprint.
    """
    config_payload = {name: value for name, value in asdict(config).items()
                      if name not in EXECUTION_FIELDS}
    # Population-plane knobs are omitted while at their defaults, so
    # checkpoints taken before those knobs existed keep restoring.
    for name, default in OMITTED_DEFAULTS.items():
        if name in config_payload and config_payload[name] == default:
            config_payload.pop(name)
    if isinstance(clients, VirtualPopulation):
        clients_payload = clients.context_payload()
    else:
        clients_payload = [[int(client.client_id),
                            int(client.num_train_samples)]
                           for client in clients]
    payload = {
        "algorithm": algorithm.name,
        "config": config_payload,
        "clients": clients_payload,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:16]


class TrainingSession:
    """Coordinates one federated run of a given algorithm, resumably.

    ``clients`` is either a materialized ``Sequence[ClientData]`` (the
    classic shape) or a :class:`~repro.fl.population.VirtualPopulation`,
    in which case only sampled participants are ever realized and the
    session drives the population's round pinning
    (:meth:`~repro.fl.population.VirtualPopulation.realize_round` /
    ``end_round``).  Client ids must be unique within ``clients`` and
    within ``novel_clients``.  A ``sampler`` implements
    ``sample_ids(client_ids, round_index, count=None)``; with an active
    ``config.availability`` it samples the per-round online pool, with
    ``count`` clamped to its size.
    """

    def __init__(
        self,
        algorithm: FederatedAlgorithm,
        clients: Union[Sequence[ClientData], VirtualPopulation],
        config: FederatedConfig,
        novel_clients: Sequence[ClientData] = (),
        sampler=None,
        backend: Union[ExecutionBackend, str, None] = None,
        context: Optional[str] = None,
        verbose: bool = False,
    ):
        # Telemetry is observation-only: spans and counters go to the
        # tracer active when the session was built; with none every
        # instrumentation point is a no-op and the round loop runs exactly
        # the un-instrumented code path.
        self.tracer = current_tracer()
        self.algorithm = algorithm
        if isinstance(clients, VirtualPopulation):
            self.population: Optional[VirtualPopulation] = clients
            self.clients: List[ClientData] = []
            self._client_ids: Sequence[int] = clients.client_ids
        else:
            self.population = None
            self.clients = list(clients)
            _require_unique_ids(self.clients, "clients")
            self._client_ids = [client.client_id for client in self.clients]
        self._num_clients = len(self._client_ids)
        if self._num_clients < 1:
            raise ValueError("need at least one client")
        self._clients_by_id = {client.client_id: client
                               for client in self.clients}
        self.novel_clients = list(novel_clients)
        _require_unique_ids(self.novel_clients, "novel_clients")
        self.config = config
        self.sampler = sampler if sampler is not None else RandomSampler(
            min(config.clients_per_round, self._num_clients), seed=config.seed
        )
        # The availability model only exists when the spec changes
        # something: an inactive spec (or none) samples from every client,
        # so its participant sets are those of a run without the spec.
        spec = config.availability
        self._availability: Optional[AvailabilityModel] = None
        if spec is not None and spec.is_active:
            self._availability = AvailabilityModel(
                spec, num_clients=self._num_clients, seed=config.seed)
        # An explicit backend (instance or name) overrides the config knobs;
        # the session owns — and closes — only backends it created itself.
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(
            backend if backend is not None else config.backend,
            workers=config.workers,
        )
        # Tasks name the algorithm and every client by a token (see
        # _resident and _dispatch); a process pool installs what the tokens
        # name in every worker once, not once per task: the algorithm, the
        # client list as a store-less table, a population as its recipe.
        self._algorithm_token = self.backend.register(algorithm)
        self._table_token = self.backend.register(
            ClientTable(self.clients + self.novel_clients))
        self._population_token = (
            None if self.population is None
            else self.backend.register(self.population))
        self.verbose = verbose
        self.callbacks: List[SessionCallback] = []
        self.context = (context if context is not None
                        else default_session_context(
                            algorithm,
                            self.population if self.population is not None
                            else self.clients,
                            config))
        self._state = ServerState(algorithm=algorithm.name)
        # Which client stores algorithm code was handed, newest last, by
        # the dispatch count that handed them over; a restore starts a new
        # epoch (see store_changes).
        self._store_epoch = object()
        self._dispatches = 0
        self._store_touched: Dict[int, int] = {}
        self._initialized = False
        self._warned_non_finite = False
        # Backends that pickle tasks across a process boundary ship each
        # non-empty client store as one PackedState buffer; the serial
        # backend shares the coordinator's memory, where packing would be
        # pure overhead.
        self._pack_ipc = self.backend.pickles_tasks

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """The next round to execute (== number of completed rounds)."""
        return self._state.round_index

    @property
    def global_state(self) -> Optional[StateDict]:
        return self._state.global_state

    @property
    def round_records(self) -> List[RoundRecord]:
        return self._state.round_records

    # ------------------------------------------------------------------
    # Callbacks and events
    # ------------------------------------------------------------------
    def add_callback(self, callback: SessionCallback) -> SessionCallback:
        self.callbacks.append(callback)
        return callback

    def _emit(self, event: SessionEvent) -> None:
        hook = EVENT_HOOKS.get(type(event), "on_event")
        for callback in self.callbacks:
            getattr(callback, hook)(self, event)

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _span(self, name: str, **attrs):
        """A tracer span, or a no-op context when telemetry is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    def _count(self, name: str, value: float = 1.0) -> None:
        if self.tracer is not None:
            self.tracer.count(name, value)

    def _instrument(self, task, span_name: str, describe):
        """Wrap a backend task so workers record spans shipped back with
        their results (no-op passthrough when telemetry is off)."""
        if self.tracer is None:
            return task
        return InstrumentedTask(task, span_name, describe=describe)

    def _resident(self) -> Resident:
        """The algorithm as a cohort task carries it: its registration
        token and its server state as of now, between rounds."""
        return Resident(self._algorithm_token, self.algorithm,
                        self.algorithm.server_state())

    def client_handle(self, client: ClientData) -> ResidentClient:
        """``client`` as a cohort task carries it: the token of the
        federation it belongs to (a population, or the table of listed
        and novel clients), its id, and its store as it is now."""
        token = (self._population_token
                 if self.population is not None and not client.is_novel
                 else self._table_token)
        return ResidentClient(token, client, (client.client_id, client.store))

    def _unbox(self, outcome):
        """Merge a worker fragment (if any) and return the task's result."""
        if isinstance(outcome, TaskOutcome):
            self.tracer.merge_fragment(outcome.telemetry)
            return outcome.result
        return outcome

    # ------------------------------------------------------------------
    # Dispatch: the one path from the session to the backend
    # ------------------------------------------------------------------
    def _dispatch(self, task, clients: Sequence[ClientData],
                  plan: Sequence[Sequence[int]]
                  ) -> Iterator[Tuple[int, _ClientOutcome]]:
        """Run a cohort ``task`` over ``plan`` and yield ``(position,
        outcome)`` per client as cohorts complete.

        ``plan`` lists position groups into ``clients``; each group is one
        task item, a list of :meth:`client_handle`\\ s.  Every outcome's
        store is reattached to its client before it is yielded, and every
        federation client that held or now holds a store is recorded as
        changed for :meth:`store_changes`.  Under columnar store IPC
        (process backend) stores travel packed, and every store still
        packed is unpacked on every exit path — including a consumer that
        raises — so no :class:`PackedState` ever reaches
        :meth:`capture_state` or the next round's algorithm code.
        Consumers close the generator explicitly (``contextlib.closing``)
        so that cleanup never waits for garbage collection.
        """
        held = [bool(client.store) for client in clients]
        if self._pack_ipc:
            for client in clients:
                client.store = pack_store(client.store)
        handles = [self.client_handle(client) for client in clients]
        cohorts = [[handles[position] for position in positions]
                   for positions in plan]
        try:
            for index, boxed in self.backend.imap(task, cohorts):
                for position, outcome in zip(plan[index], self._unbox(boxed)):
                    clients[position].store = unpack_store(outcome.store)
                    yield position, outcome
        finally:
            if self._pack_ipc:
                for client in clients:
                    client.store = unpack_store(client.store)
            # Any store algorithm code held may have changed.  One that was
            # and stayed empty has nothing a checkpoint would record, and
            # novel clients' stores are never checkpointed.
            self._dispatches += 1
            for client, had_store in zip(clients, held):
                if (had_store or client.store) and not client.is_novel:
                    self._store_touched.pop(client.client_id, None)
                    self._store_touched[client.client_id] = self._dispatches

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Build the round-0 global state (idempotent)."""
        if not self._initialized:
            self._state.global_state = self.algorithm.build_global_state()
            self._initialized = True

    def step(self) -> RoundRecord:
        """Advance exactly one communication round and commit it."""
        self.initialize()
        round_index = self._state.round_index
        with self._span("round", round=round_index):
            return self._step_inner(round_index)

    def _sample_participants(self, round_index: int
                             ) -> Tuple[List[ClientData], List[int]]:
        """This round's realized participants plus mid-round dropout ids.

        ``sampler.sample_ids`` draws from the client ids: churn filters
        the candidate pool (clamping the sample size to what is online),
        dropout removes sampled participants before any local work runs
        (their data is never realized), and the survivors map back to
        clients — realized by a virtual population, looked up by id in a
        materialized federation.
        """
        model = self._availability
        candidates = self._client_ids
        if model is not None:
            positions = model.available_positions(round_index)
            candidates = [int(candidates[position]) for position in positions]
            count = min(getattr(self.sampler, "count", len(candidates)),
                        len(candidates))
            sampled = self.sampler.sample_ids(candidates, round_index,
                                              count=count)
        else:
            sampled = self.sampler.sample_ids(candidates, round_index)
        dropped: List[int] = []
        active = sampled
        if model is not None and model.spec.dropout > 0.0:
            active = []
            for client_id in sampled:
                if model.drops_out(client_id, round_index):
                    dropped.append(client_id)
                else:
                    active.append(client_id)
        if self.population is not None:
            participants = self.population.realize_round(active)
        else:
            participants = [self._clients_by_id[client_id]
                            for client_id in active]
        return participants, dropped

    def _aggregate(self, updates: Sequence[ClientUpdate],
                   participants: Sequence[ClientData],
                   round_index: int) -> StateDict:
        """The round's one aggregation call, for the configured policy.

        ``"sync"`` is the algorithm's own
        :meth:`~repro.fl.algorithm.FederatedAlgorithm.aggregate` over the
        updates in sampled order — the CI bitwise contract.  The async
        policies run :func:`~repro.fl.population.buffered_aggregate`, with
        each participant's simulated duration = its availability speed
        multiplier × its local sample count (a deterministic proxy for
        "slower device, more work"; 1 × samples for a homogeneous fleet,
        so completion order degrades to dispatch order).
        """
        global_state = self._state.global_state
        policy = self.config.aggregation
        if policy == "sync":
            return self.algorithm.aggregate(updates, global_state, round_index)
        durations = [
            (self._availability.speed_multiplier(client.client_id)
             if self._availability is not None else 1.0)
            * max(client.num_train_samples, 1)
            for client in participants]
        state, staleness = buffered_aggregate(
            self.algorithm, updates, global_state, round_index,
            durations=durations,
            buffer_size=(1 if policy == "staleness"
                         else self.config.aggregation_buffer),
            staleness_decay=self.config.staleness_decay,
        )
        self._count("aggregate.staleness", sum(staleness))
        return state

    def _step_inner(self, round_index: int) -> RoundRecord:
        with self._span("sample", round=round_index):
            participants, dropped = self._sample_participants(round_index)
        if self._availability is not None:
            self._count("round.dropouts", len(dropped))
        self._emit(RoundBegin(
            round_index=round_index,
            participant_ids=tuple(client.client_id for client in participants),
        ))
        plan = self._plan_cohorts(participants)
        task = self._instrument(
            functools.partial(
                _cohort_update_task, self._resident(),
                self._state.global_state, round_index,
            ),
            "cohort_update",
            functools.partial(_cohort_span_attrs, round_index),
        )
        # Stream completed cohorts: homogeneous clients travel together so
        # the algorithm's vectorized engine (if any) can batch them, and each
        # update is kept at its *sampled* position the moment its cohort
        # finishes — so aggregation order, and therefore the result, never
        # depends on the plan or on completion order.
        updates: List[Optional[ClientUpdate]] = [None] * len(participants)
        with self._span("dispatch", round=round_index,
                        participants=len(participants), cohorts=len(plan)), \
                closing(self._dispatch(task, participants, plan)) as outcomes:
            for position, outcome in outcomes:
                if updates[position] is not None:
                    raise ValueError(
                        f"round {round_index}: the backend delivered sampled "
                        f"position {position} twice")
                updates[position] = outcome.result
                self._emit(ClientUpdateDone(
                    round_index=round_index,
                    client_id=outcome.client_id,
                    update=outcome.result,
                ))
        with self._span("aggregate", round=round_index):
            new_global = self._aggregate(updates, participants, round_index)
        self._emit(AggregateDone(round_index=round_index,
                                 num_updates=len(updates)))
        # Non-finite client losses (divergence, dead activations) are
        # excluded from the mean but never silently: they are counted
        # into the round record and warned about once per run.
        losses: List[float] = []
        non_finite = 0
        for update in updates:
            value = update.metrics.get("loss")
            if value is None:
                continue
            if np.isfinite(value):
                losses.append(float(value))
            else:
                non_finite += 1
        if non_finite:
            self._count("round.non_finite_losses", non_finite)
        if non_finite and not self._warned_non_finite:
            self._warned_non_finite = True
            warnings.warn(
                f"round {round_index}: {non_finite} client(s) reported a "
                "non-finite training loss; they are excluded from "
                "mean_loss and counted in RoundRecord.metrics"
                "['non_finite_losses']",
                RuntimeWarning,
                stacklevel=2,
            )
        metrics = {"non_finite_losses": float(non_finite)}
        if self._availability is not None:
            # Only churned runs carry the key: legacy round records (and
            # their stored bytes) must not change shape.
            metrics["dropouts"] = float(len(dropped))
        record = RoundRecord(
            round_index=round_index,
            participant_ids=[u.client_id for u in updates],
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            metrics=metrics,
        )
        self._state.round_records.append(record)
        self._state.global_state = new_global
        self._state.round_index = round_index + 1
        if self.verbose:
            print(
                f"[{self.algorithm.name}] round {round_index + 1}/"
                f"{self.config.rounds} loss={record.mean_loss:.4f}"
            )
        self._emit(RoundEnd(round_index=round_index, record=record))
        if self.population is not None:
            self.population.end_round()
        return record

    def _plan_cohorts(self, participants: Sequence[ClientData]
                      ) -> List[List[int]]:
        """Group this round's participants for cohort dispatch.

        Returns a list of position groups (indices into ``participants``)
        covering every participant once.  With batching disabled
        (``client_batch=1``) or fewer than two participants, the plan is
        one singleton cohort per participant in sampled order — the
        per-client round.

        Otherwise grouping is by :meth:`FederatedAlgorithm.cohort_key`;
        clients with a ``None`` key become singleton cohorts.
        ``client_batch=None`` (auto) batches each homogeneous group whole;
        ``client_batch=k`` caps group size at ``k``.  Group order follows
        each group's first member, and positions within a group stay
        sorted, so dispatch order is deterministic.
        """
        client_batch = getattr(self.config, "client_batch", None)
        if client_batch == 1 or len(participants) < 2:
            return [[position] for position in range(len(participants))]
        groups: Dict[object, List[int]] = {}
        for position, client in enumerate(participants):
            key = self.algorithm.cohort_key(client)
            group_key = ("solo", position) if key is None else ("cohort", key)
            groups.setdefault(group_key, []).append(position)
        plan: List[List[int]] = []
        for positions in groups.values():
            cap = len(positions) if client_batch is None else int(client_batch)
            for start in range(0, len(positions), cap):
                plan.append(positions[start:start + cap])
        return plan

    def run_until(self, target_round: int) -> Optional[StateDict]:
        """Advance rounds until ``round_index`` reaches ``target_round``;
        returns the global state."""
        self.initialize()
        while self._state.round_index < target_round:
            self.step()
        return self._state.global_state

    def run(self, rounds: Optional[int] = None) -> Optional[StateDict]:
        """Run the training stage to ``config.rounds`` (or ``rounds``)."""
        target = self.config.rounds if rounds is None else rounds
        return self.run_until(target)

    def personalize(self) -> RunResult:
        """Run the personalization stage on every client (train + novel).

        Over a virtual population this realizes clients in chunks of
        ``max_resident`` — the protocol still visits every client (the
        paper's personalization stage is population-wide), but peak
        resident memory keeps the same O(active) bound as training.

        Each chunk splits into at most ``backend.workers`` contiguous
        cohorts, each at most ``client_batch`` clients (1 = singleton
        cohorts), dispatched through
        :meth:`~repro.fl.algorithm.FederatedAlgorithm.cohort_personalize`.
        Results are bitwise identical for every split.
        """
        if self._state.global_state is None:
            raise RuntimeError("train() must run before personalization")
        task = self._instrument(
            functools.partial(
                _cohort_personalize_task, self._resident(),
                self._state.global_state,
            ),
            "cohort_personalize",
            functools.partial(_cohort_span_attrs, None),
        )
        client_batch = getattr(self.config, "client_batch", None)
        accuracies: Dict[int, float] = {}
        novel_accuracies: Dict[int, float] = {}

        def _collect(clients: Sequence[ClientData]) -> None:
            size = math.ceil(len(clients) / self.backend.workers)
            if client_batch is not None:
                size = min(size, client_batch)
            plan = chunk_items(range(len(clients)), self.backend.workers, size)
            results: List = [None] * len(clients)
            with closing(self._dispatch(task, clients, plan)) as outcomes:
                for position, outcome in outcomes:
                    results[position] = outcome.result
            # Input order, not completion order: the dicts' order is part
            # of RunResult.to_json().
            for client, result in zip(clients, results):
                target = novel_accuracies if client.is_novel else accuracies
                target[client.client_id] = result.accuracy

        if self.population is not None:
            chunk_size = self.population.max_resident
            all_ids = list(self.population.client_ids)
            with self._span("personalize",
                            clients=len(all_ids) + len(self.novel_clients)):
                for start in range(0, len(all_ids), chunk_size):
                    chunk_ids = all_ids[start:start + chunk_size]
                    _collect(self.population.realize_round(chunk_ids))
                    self.population.end_round()
                if self.novel_clients:
                    _collect(self.novel_clients)
        else:
            everyone = self.clients + self.novel_clients
            with self._span("personalize", clients=len(everyone)):
                _collect(everyone)
        result = RunResult(
            algorithm=self.algorithm.name,
            accuracies=accuracies,
            novel_accuracies=novel_accuracies,
            rounds=self._state.round_records,
        )
        self._emit(PersonalizeDone(result=result))
        return result

    def execute(self) -> RunResult:
        """Full experiment: (remaining) training rounds, then personalization."""
        try:
            with self._span("session", algorithm=self.algorithm.name):
                self.run()
                return self.personalize()
        finally:
            if self._owns_backend:
                self.close()

    def close(self) -> None:
        """Release execution-backend resources (worker pools)."""
        self.backend.close()

    def __enter__(self) -> "TrainingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owns_backend:
            self.close()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def store_changes(self, since: Optional[Tuple[object, int]] = None
                      ) -> Tuple[Tuple[object, int], Optional[List[int]]]:
        """Which client stores may have changed since the mark ``since``.

        Returns ``(mark, changed)``: ``mark`` stands for now (pass it back
        next time) and ``changed`` lists, in ascending order, the ids of
        the stores algorithm code was handed after ``since`` was issued —
        in training and personalization alike (:meth:`_dispatch` is the
        only path that hands stores over).  ``changed`` is ``None``, meaning
        every store may have changed, when ``since`` is ``None``, comes from
        another session, or predates a :meth:`restore_state`.
        """
        mark = (self._store_epoch, self._dispatches)
        if since is None or since[0] is not self._store_epoch:
            return mark, None
        changed = []
        for client_id in reversed(self._store_touched):
            if self._store_touched[client_id] <= since[1]:
                break
            changed.append(client_id)
        return mark, sorted(changed)

    def capture_state(self, client_ids: Optional[Sequence[int]] = None
                      ) -> ServerState:
        """Materialize a detached :class:`ServerState` snapshot.

        Everything is deep-copied: later rounds never mutate a captured
        snapshot, and a snapshot restored into a fresh session never
        aliases this one.  ``client_ids`` limits ``client_stores`` to those
        clients' non-empty stores — the part of an incremental checkpoint
        that may have changed (:meth:`store_changes`); ``None`` captures
        every store.
        """
        if client_ids is not None:
            stores = ((client_id, self._client_store(client_id))
                      for client_id in client_ids)
        elif self.population is not None:
            stores = self.population.stores().items()
        else:
            stores = ((client.client_id, client.store)
                      for client in self.clients)
        client_stores = {client_id: copy.deepcopy(store)
                         for client_id, store in stores if store}
        return ServerState(
            algorithm=self.algorithm.name,
            context=self.context,
            round_index=self._state.round_index,
            global_state=(None if self._state.global_state is None
                          else clone_state(self._state.global_state)),
            algorithm_state=self.algorithm.server_state(),
            client_stores=client_stores,
            round_records=copy.deepcopy(self._state.round_records),
            availability_state=(self._availability.state_dict()
                                if self._availability is not None else {}),
            warned_non_finite=self._warned_non_finite,
        )

    def restore_state(self, state: ServerState) -> None:
        """Resume this session from a :class:`ServerState` snapshot.

        The algorithm is re-initialized deterministically
        (:meth:`~repro.fl.algorithm.FederatedAlgorithm.build_global_state`)
        before its server-side state loads, so restoring into a *fresh*
        session — new algorithm instance, freshly built clients — is
        exactly equivalent to never having stopped.
        """
        if state.algorithm != self.algorithm.name:
            raise ValueError(
                f"checkpoint was taken by algorithm '{state.algorithm}' but "
                f"this session runs '{self.algorithm.name}'")
        if state.context and state.context != self.context:
            raise ValueError(
                f"checkpoint context {state.context!r} does not match this "
                f"session's context {self.context!r}: it was taken under a "
                "different configuration/federation (resume only continues "
                "the same run; delete the stale checkpoint to start over)")
        # Membership per stored id: a virtual population's ids are a
        # range, and materializing it as a set costs O(population).
        known = (self._client_ids if self.population is not None
                 else self._clients_by_id)
        unknown = sorted(client_id for client_id in state.client_stores
                         if client_id not in known)
        if unknown:
            raise ValueError(
                f"checkpoint carries stores for unknown client ids {unknown}; "
                "restore into a session built over the same federation")
        # Re-init templates/server slots to their round-0 invariants, then
        # overwrite with the snapshot.
        self.algorithm.build_global_state()
        self.algorithm.load_server_state(copy.deepcopy(state.algorithm_state))
        # Every store is replaced below: marks issued before now are void.
        self._store_epoch = object()
        self._store_touched = {}
        if self.population is not None:
            self.population.set_stores(
                {client_id: copy.deepcopy(store)
                 for client_id, store in state.client_stores.items()})
        else:
            for client in self.clients:
                client.store = copy.deepcopy(
                    state.client_stores.get(client.client_id, {}))
        if self._availability is not None:
            self._availability.load_state_dict(
                copy.deepcopy(state.availability_state))
        self._state = ServerState(
            algorithm=state.algorithm,
            context=self.context,
            round_index=state.round_index,
            global_state=(None if state.global_state is None
                          else clone_state(state.global_state)),
            round_records=copy.deepcopy(state.round_records),
        )
        self._warned_non_finite = state.warned_non_finite
        self._initialized = state.global_state is not None

    def _client_store(self, client_id: int) -> Dict:
        if self.population is not None:
            return self.population.client_store(client_id)
        return self._clients_by_id[client_id].store

    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Atomically write the current snapshot to ``path`` (JSON)."""
        return write_checkpoint(self.capture_state(), path)

    def load_checkpoint(self, path: Union[str, Path]) -> ServerState:
        """Restore this session from a checkpoint file; returns the state."""
        state = read_checkpoint(path)
        self.restore_state(state)
        return state
