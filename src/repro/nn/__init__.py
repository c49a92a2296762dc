"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Substitutes for PyTorch in this reproduction (see DESIGN.md §2): a dynamic
autograd engine, modules/layers, losses, optimizers, weight init, state-dict
serialization algebra, and the encoder architectures used by the paper.
"""

from . import functional
from . import init
from . import serialize
from .layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from .losses import accuracy, cross_entropy, l2_regularization, mse_loss
from .mlp import MLPClassifier, MLPEncoder
from .module import Module, ModuleList, Parameter, Sequential
from .optim import (
    Adam,
    BatchedSGD,
    ConstantLR,
    CosineAnnealingLR,
    LRScheduler,
    Optimizer,
    SGD,
    StepLR,
    WarmupCosineLR,
)
from .trace import BatchedReplay, Trace, TraceTensor, UntraceableError
from .resnet import BasicBlock, ResNetEncoder, SmallConvEncoder, resnet9, resnet18
from .tensor import (
    GraphReleasedError,
    Tensor,
    as_tensor,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    unbroadcast,
)

__all__ = [
    "functional",
    "init",
    "serialize",
    "Tensor",
    "GraphReleasedError",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "unbroadcast",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "cross_entropy",
    "mse_loss",
    "l2_regularization",
    "accuracy",
    "Optimizer",
    "SGD",
    "BatchedSGD",
    "Adam",
    "Trace",
    "TraceTensor",
    "BatchedReplay",
    "UntraceableError",
    "LRScheduler",
    "ConstantLR",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupCosineLR",
    "BasicBlock",
    "ResNetEncoder",
    "SmallConvEncoder",
    "resnet18",
    "resnet9",
    "MLPEncoder",
    "MLPClassifier",
]
