"""Configuration dataclasses for federated experiments.

``FederatedConfig`` captures the paper's learning settings (§V-A): 100
clients, 10 sampled per round, 200 rounds, 3 local epochs, 10-epoch
personalization with SGD at lr 0.05 and batch size 32, plus 50 novel
clients.  Benchmark configurations scale these down for CPU
(docs/reproduction.md, "Scale") without changing any code path.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional

AGGREGATION_POLICIES = ("sync", "buffered", "staleness")
"""Server aggregation policies (see :mod:`repro.fl.population.aggregation`).

``"sync"`` is the default and the only policy under the CI bitwise
contract; ``"staleness"`` and ``"buffered"`` simulate asynchronous
FedBuff-style servers and are strictly opt-in (POP001)."""


def suggest_unknown_keys(unknown: Iterable[str], valid: Iterable[str],
                         kind: str) -> str:
    """A did-you-mean message for unknown keyword names.

    Shared by :meth:`FederatedConfig.with_overrides` and
    :func:`repro.eval.registry.build_method`, so every knob surface in the
    stack rejects typos the same way instead of passing them silently into
    ``**kwargs``.
    """
    valid = sorted(valid)
    parts = []
    for name in sorted(unknown):
        close = difflib.get_close_matches(name, valid, n=2, cutoff=0.5)
        hint = f" (did you mean {' or '.join(repr(c) for c in close)}?)" if close else ""
        parts.append(f"{name!r}{hint}")
    return (f"unknown {kind}: {', '.join(parts)}; "
            f"valid names: {', '.join(valid)}")


@dataclass(frozen=True)
class AvailabilitySpec:
    """Deterministic client-availability model for one run.

    All four knobs are *semantic* — they change which clients train and
    how updates weigh in, so a non-default spec changes the run
    fingerprint (unlike the execution knobs).  The draws themselves are
    pure functions of ``(config.seed, round, client_id)`` via
    :func:`~repro.fl.client.derive_rng`, which is what keeps churned runs
    bitwise identical across execution backends (see
    ``docs/population.md``).

    ``availability``
        Stationary fraction of the population online each round.
    ``churn``
        Per-round flip intensity of the Markov join/leave chain: ``1.0``
        redraws membership i.i.d. every round, values toward ``0.0`` make
        membership sticky (a client online this round tends to stay
        online).  Irrelevant when ``availability == 1.0``.
    ``dropout``
        Probability a *sampled* participant drops mid-round before its
        update reaches the server.
    ``speed_spread``
        Sigma of the lognormal per-client speed multipliers used to order
        simulated completions under async aggregation (``0.0`` means a
        homogeneous fleet).
    """

    availability: float = 1.0
    churn: float = 1.0
    dropout: float = 0.0
    speed_spread: float = 0.0

    def __post_init__(self):
        if not 0.0 < float(self.availability) <= 1.0:
            raise ValueError(
                f"availability must be in (0, 1], got {self.availability!r}")
        if not 0.0 <= float(self.churn) <= 1.0:
            raise ValueError(f"churn must be in [0, 1], got {self.churn!r}")
        if not 0.0 <= float(self.dropout) < 1.0:
            raise ValueError(
                f"dropout must be in [0, 1), got {self.dropout!r}")
        if float(self.speed_spread) < 0.0:
            raise ValueError(
                f"speed_spread must be >= 0, got {self.speed_spread!r}")
        # Normalize to float so equal specs built from ints and floats
        # serialize — and therefore fingerprint — identically.
        for name in ("availability", "churn", "dropout", "speed_spread"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def is_active(self) -> bool:
        """Whether this spec changes anything relative to no model at all.

        ``availability == 1.0`` keeps every client online regardless of
        churn, so only partial availability, dropout, or a speed spread
        make the model observable.
        """
        return (self.availability < 1.0 or self.dropout > 0.0
                or self.speed_spread > 0.0)


@dataclass(frozen=True)
class FederatedConfig:
    """Knobs of one federated run.

    ``backend``/``workers`` select the client-execution engine (see
    :mod:`repro.fl.execution`): ``"serial"`` (default) or ``"process"``,
    with ``workers=None`` meaning "all available cores".
    Backends are bitwise-deterministic, so these knobs change wall-clock
    time, never results.

    The process backend installs the session's clients (or its virtual
    population's recipe) in each pool worker once, when the pool starts;
    each task then ships model state and client stores only.

    ``client_batch`` controls cohort-level vectorized execution (see
    :mod:`repro.nn.trace`): ``None`` (default) automatically batches each
    homogeneous cohort of sampled clients whole; ``1`` disables batching
    (the classic per-client path); ``k >= 2`` caps cohort size at ``k``.
    Batched execution is required to be bitwise identical to the
    per-client path, so — like backend/workers — this knob
    changes wall-clock time, never results, and is excluded from run
    fingerprints.

    ``availability``/``aggregation``/``aggregation_buffer``/
    ``staleness_decay`` are the population-plane knobs
    (:mod:`repro.fl.population`): an :class:`AvailabilitySpec` turns on
    deterministic churn/dropout/speed modelling, and a non-``"sync"``
    aggregation policy opts into simulated-async (FedBuff-style) server
    behaviour.  Unlike the execution knobs these change *results*, so
    they are fingerprinted; all four default to "off" and are omitted
    from serialized payloads at their defaults, so every pre-existing
    fingerprint survives.
    """

    num_clients: int = 20
    clients_per_round: int = 5
    rounds: int = 10
    local_epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    personalization_epochs: int = 10
    personalization_lr: float = 0.05
    personalization_batch_size: int = 32
    test_fraction: float = 0.25
    num_novel_clients: int = 0
    seed: int = 0
    availability: Optional[AvailabilitySpec] = None
    aggregation: str = "sync"
    aggregation_buffer: int = 10
    staleness_decay: float = 0.5
    backend: str = "serial"
    workers: Optional[int] = None
    client_batch: Optional[int] = None

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 1 <= self.clients_per_round <= self.num_clients:
            raise ValueError("clients_per_round must be in [1, num_clients]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1 or self.personalization_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.learning_rate <= 0 or self.personalization_lr <= 0:
            raise ValueError("learning rates must be positive")
        # range() would run a negative count as zero epochs and reject a
        # float only after training; bool is an int subclass.
        if isinstance(self.personalization_epochs, bool) or not isinstance(
                self.personalization_epochs, int) or self.personalization_epochs < 0:
            raise ValueError(
                f"personalization_epochs must be an integer >= 0, "
                f"got {self.personalization_epochs!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.num_novel_clients < 0:
            raise ValueError("num_novel_clients must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        # Availability/aggregation are semantic knobs (they hash into run
        # fingerprints); a dict availability is coerced so configs rebuilt
        # from stored JSON compare equal to freshly constructed ones.
        if isinstance(self.availability, dict):
            object.__setattr__(self, "availability",
                               AvailabilitySpec(**self.availability))
        if self.availability is not None and not isinstance(
                self.availability, AvailabilitySpec):
            raise ValueError(
                f"availability must be None or an AvailabilitySpec, "
                f"got {self.availability!r}")
        if self.aggregation not in AGGREGATION_POLICIES:
            raise ValueError(
                f"unknown aggregation policy {self.aggregation!r}; "
                f"available: {AGGREGATION_POLICIES}")
        if isinstance(self.aggregation_buffer, bool) or not isinstance(
                self.aggregation_buffer, int) or self.aggregation_buffer < 1:
            raise ValueError(
                f"aggregation_buffer must be an integer >= 1, "
                f"got {self.aggregation_buffer!r}")
        if self.staleness_decay < 0.0:
            raise ValueError(
                f"staleness_decay must be >= 0, got {self.staleness_decay!r}")
        from .execution import available_backends, resolve_workers

        if not isinstance(self.backend, str) or self.backend.lower() not in available_backends():
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"available: {available_backends()}"
            )
        resolve_workers(self.workers)  # raises on non-positive / non-int values
        # bool is an int subclass; reject it explicitly so client_batch=True
        # does not silently mean "disable batching".
        if self.client_batch is not None and (
                isinstance(self.client_batch, bool)
                or not isinstance(self.client_batch, int)
                or self.client_batch < 1):
            raise ValueError(
                f"client_batch must be None (auto) or an integer >= 1, "
                f"got {self.client_batch!r}"
            )

    def with_overrides(self, **kwargs) -> "FederatedConfig":
        """Return a copy with fields replaced.

        Unknown field names raise ``ValueError`` with a did-you-mean hint
        instead of the bare ``TypeError`` ``dataclasses.replace`` would
        produce — a sweep grid with a typo'd knob must fail loudly at
        declaration, not silently diverge from the intended config.
        """
        valid = {f.name for f in fields(self)}
        unknown = set(kwargs) - valid
        if unknown:
            raise ValueError(suggest_unknown_keys(unknown, valid,
                                                  "FederatedConfig override(s)"))
        return replace(self, **kwargs)


FINGERPRINTED_FIELDS = (
    "num_clients", "clients_per_round", "rounds", "local_epochs",
    "batch_size", "learning_rate", "momentum", "weight_decay",
    "personalization_epochs", "personalization_lr",
    "personalization_batch_size", "test_fraction", "num_novel_clients",
    "seed", "availability", "aggregation", "aggregation_buffer",
    "staleness_decay",
)
"""``FederatedConfig`` knobs that determine results and therefore hash into
every :class:`~repro.runs.spec.RunKey` fingerprint and session checkpoint
context.  Together with :data:`EXECUTION_FIELDS` this classifies *every*
config field — the FPR001 invariant rule (``repro check``) fails the build
if a new field is added without deciding which list it belongs to."""

EXECUTION_FIELDS = ("backend", "workers", "client_batch")
"""``FederatedConfig`` knobs that change wall-clock time but never results
(see :mod:`repro.fl.execution`).  They are excluded from content hashes so
a sweep resumed under a different scheduler still recognizes its cells,
and a checkpoint taken under one backend restores under any other."""

DEFAULT_OMITTED_FIELDS = ("availability", "aggregation",
                          "aggregation_buffer", "staleness_decay")
"""Fingerprinted config fields omitted from serialized payloads while at
their defaults (the ``RunKey.extras`` precedent): the population-plane
knobs landed after stores already existed, so a default-valued knob must
not shift any pre-existing fingerprint or checkpoint context."""

OMITTED_DEFAULTS = {field.name: field.default
                    for field in fields(FederatedConfig)
                    if field.name in DEFAULT_OMITTED_FIELDS}
"""Each of :data:`DEFAULT_OMITTED_FIELDS` mapped to the default at which
cell fingerprints and session checkpoint contexts omit it."""


PAPER_CONFIG = FederatedConfig(
    num_clients=100,
    clients_per_round=10,
    rounds=200,
    local_epochs=3,
    batch_size=32,
    personalization_epochs=10,
    personalization_lr=0.05,
    num_novel_clients=50,
)
"""The paper's full-scale configuration (§V-A), kept for reference and for
anyone running this reproduction on serious hardware."""
