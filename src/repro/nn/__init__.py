"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Substitutes for PyTorch in this reproduction (see docs/reproduction.md,
"Substrate"): a dynamic autograd engine whose primitives are one op table
(:mod:`repro.nn.ops`: forward, VJP and batched-replay rule per entry),
modules/layers, losses, SGD, weight init, state-dict serialization
algebra, and the encoder architectures used by the paper.
"""

# The op table registers first: every Tensor operation looks its entry up.
from . import ops
from . import functional
from . import init
from . import serialize
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU,
)
from .losses import accuracy, cross_entropy
from .mlp import MLPEncoder
from .module import Module, Parameter, Sequential
from .optim import BatchedSGD, Optimizer, SGD
from .trace import BatchedReplay, Trace, TraceTensor, UntraceableError
from .resnet import BasicBlock, ResNetEncoder, SmallConvEncoder, resnet9, resnet18
from .tensor import (
    GraphReleasedError,
    Tensor,
    as_tensor,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    unbroadcast,
)

__all__ = [
    "ops",
    "functional",
    "init",
    "serialize",
    "Tensor",
    "GraphReleasedError",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "unbroadcast",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "cross_entropy",
    "accuracy",
    "Optimizer",
    "SGD",
    "BatchedSGD",
    "Trace",
    "TraceTensor",
    "BatchedReplay",
    "UntraceableError",
    "BasicBlock",
    "ResNetEncoder",
    "SmallConvEncoder",
    "resnet18",
    "resnet9",
    "MLPEncoder",
]
