"""Layer and parameter-container abstractions on top of the tensor engine."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


INIT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) samples with values beyond two deviations redrawn.

    Each round redraws the entries still out of range, in index order, and
    tests only those redraws again.
    """
    out = rng.normal(0.0, INIT_STD, size=shape)
    flat = out.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0 * INIT_STD)
    while idx.size:
        vals = rng.normal(0.0, INIT_STD, size=idx.size)
        flat[idx] = vals
        idx = idx[np.abs(vals) > 2.0 * INIT_STD]
    return out.astype(np.float32)


class Module:
    """Base class: children and parameters discovered by attribute walking.

    The walk finds parameters (``Tensor``s with ``requires_grad``) and child
    modules held as attributes, and child modules held in list attributes.
    """

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        found: list[tuple[str, Tensor]] = []
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    found.append((path, value))
            elif isinstance(value, Module):
                found.extend(value.named_parameters(f"{path}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        found.extend(item.named_parameters(f"{path}.{i}."))
        return found

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(arrays))
        extra = sorted(set(arrays) - set(own))
        if missing or extra:
            raise ConfigError(
                f"parameter name mismatch; missing={missing[:4]} extra={extra[:4]}"
            )
        for name, p in own.items():
            arr = arrays[name]
            if arr.shape != p.data.shape:
                raise ConfigError(
                    f"parameter {name}: stored shape {arr.shape} != model shape {p.data.shape}"
                )
            # a copy: the optimizer updates parameter arrays in place
            p.data = arr.astype(p.data.dtype, order="C")

    def count_parameters(self) -> int:
        return sum(p.size for p in self.parameters())


class Dense(Module):
    """Affine layer with an optional GELU applied after the bias."""

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        out_dim: int,
        activation: str | None = None,
        bias: bool = True,
    ):
        self.weight = Tensor(trunc_normal(rng, (in_dim, out_dim)), requires_grad=True)
        self.bias = (
            Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True) if bias else None
        )
        if activation not in (None, "gelu"):
            raise ConfigError(f"unknown activation {activation!r}")
        self.activation = activation

    def __call__(self, x) -> Tensor:
        if self.activation == "gelu":
            return T.linear_gelu(x, self.weight, self.bias)
        return T.linear(x, self.weight, self.bias)


class MLP(Module):
    """Stack of Dense layers with GELU on the hidden layers.

    ``activate_last`` keeps the GELU on the final layer too, which the
    per-point feature stages rely on.
    """

    def __init__(self, rng: np.random.Generator, dims: list[int], activate_last: bool = True):
        if len(dims) < 2:
            raise ConfigError(f"MLP needs at least [in, out] dims, got {dims}")
        self.layers = [
            Dense(
                rng,
                dims[i],
                dims[i + 1],
                activation="gelu" if (activate_last or i < len(dims) - 2) else None,
            )
            for i in range(len(dims) - 1)
        ]

    def __call__(self, x) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class RMSNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x) -> Tensor:
        return T.rms_norm(x, self.gain)


class EmbeddingTable(Module):
    def __init__(self, rng: np.random.Generator, count: int, dim: int):
        self.table = Tensor(trunc_normal(rng, (count, dim)), requires_grad=True)

    def __call__(self, indices) -> Tensor:
        return T.embedding_lookup(self.table, indices)
