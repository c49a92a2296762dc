"""``repro.fl`` — the federated-learning simulation framework.

Substitutes for the Plato research framework used by the paper: an
in-process server/clients simulator with pluggable algorithms, client
sampling, aggregation, metric history, and the shared linear-probe
personalization stage.
"""

from .algorithm import ClientUpdate, FederatedAlgorithm
from .client import (
    ClientData,
    build_federation,
    build_novel_clients,
    derive_rng,
    payload_nbytes,
)
from .config import (
    AGGREGATION_POLICIES,
    PAPER_CONFIG,
    AvailabilitySpec,
    FederatedConfig,
)
from .execution import (
    BACKENDS,
    ExecutionBackend,
    ExecutionError,
    ProcessBackend,
    SerialBackend,
    available_backends,
    resolve_backend,
)
from .history import RoundRecord, RunResult
from .models import ENCODER_PREFIX, HEAD_PREFIX, ClassifierModel
from .personalization import (
    PersonalizationResult,
    evaluate_linear_head,
    train_linear_probe,
)
from .population import (
    AvailabilityModel,
    ClientDescriptor,
    VirtualPopulation,
    buffered_aggregate,
)
from .sampler import RandomSampler, RoundRobinSampler
from .session import (
    RoundCheckpointer,
    ServerState,
    SessionCallback,
    TrainingSession,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "FederatedConfig",
    "PAPER_CONFIG",
    "AGGREGATION_POLICIES",
    "AvailabilitySpec",
    "AvailabilityModel",
    "VirtualPopulation",
    "ClientDescriptor",
    "buffered_aggregate",
    "ClientData",
    "build_federation",
    "build_novel_clients",
    "derive_rng",
    "payload_nbytes",
    "ClientUpdate",
    "FederatedAlgorithm",
    "TrainingSession",
    "ServerState",
    "SessionCallback",
    "RoundCheckpointer",
    "read_checkpoint",
    "write_checkpoint",
    "ExecutionBackend",
    "ExecutionError",
    "SerialBackend",
    "ProcessBackend",
    "BACKENDS",
    "available_backends",
    "resolve_backend",
    "RandomSampler",
    "RoundRobinSampler",
    "RoundRecord",
    "RunResult",
    "ClassifierModel",
    "ENCODER_PREFIX",
    "HEAD_PREFIX",
    "PersonalizationResult",
    "train_linear_probe",
    "evaluate_linear_head",
]
