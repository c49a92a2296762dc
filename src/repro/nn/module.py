"""Module/Parameter abstractions mirroring the PyTorch ``nn.Module`` API.

FL algorithms in this repository exchange ``state_dict()`` snapshots between
server and clients, so modules must expose a deterministic, ordered mapping
from dotted names to arrays — both trainable parameters and non-trainable
buffers (e.g. BatchNorm running statistics, which FedAvg-style algorithms
also average).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter(Tensor):
    """A tensor that is registered as trainable when assigned to a Module."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that travels with state_dict()."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buffer
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_buffers(child_prefix)

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Freeze or unfreeze every parameter (used for encoder freezing)."""
        for param in self.parameters():
            param.requires_grad = flag
        return self

    # ------------------------------------------------------------------
    # State exchange (the FL wire format)
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Ordered dotted-name -> array copy of parameters and buffers."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Copy arrays from ``state`` into this module's tensors/buffers."""
        own_params = dict(self.named_parameters())
        own_buffers = self._named_buffer_owners()
        missing = []
        for name, param in own_params.items():
            if name in state:
                value = np.asarray(state[name], dtype=param.data.dtype)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for '{name}': {value.shape} vs {param.data.shape}"
                    )
                param.data[...] = value
            elif strict:
                missing.append(name)
        for name, (module, local) in own_buffers.items():
            if name in state:
                buffer = module._buffers[local]
                value = np.asarray(state[name], dtype=buffer.dtype)
                if value.shape != buffer.shape:
                    raise ValueError(
                        f"shape mismatch for buffer '{name}': {value.shape} vs {buffer.shape}"
                    )
                buffer[...] = value
            elif strict:
                missing.append(name)
        if strict:
            known = set(own_params) | set(own_buffers)
            unexpected = [key for key in state if key not in known]
            if missing or unexpected:
                raise KeyError(
                    f"load_state_dict mismatch: missing={missing}, unexpected={unexpected}"
                )

    def _named_buffer_owners(self) -> Dict[str, Tuple["Module", str]]:
        owners: Dict[str, Tuple[Module, str]] = {}
        for prefix, module in self.named_modules():
            for local in module._buffers:
                full = f"{prefix}.{local}" if prefix else local
                owners[full] = (module, local)
        return owners

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules in order, mirroring ``torch.nn.Sequential``."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def append(self, module: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), module)
        return self

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x
