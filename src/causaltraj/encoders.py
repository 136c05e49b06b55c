"""Per-agent temporal encoders.

Both encoders map a per-agent feature sequence [L, T, in_dim] to a causal
latent sequence [L, T, out]: the output at frame t depends only on frames
``<= t``. Each also exposes an incremental interface (``init_state`` /
``step``) so autoregressive rollout can extend a sequence without
recomputing the prefix.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .nn import MLP, Dense, Module, RMSNorm
from .tensor import Tensor

SSM_BLOCKS = 2        # SSM blocks per encoder
SSM_EXPAND = 2        # a block's inner width is SSM_EXPAND * d_model
SSM_CONV_WIDTH = 4    # taps of the causal depthwise conv


class PointNetEncoder(Module):
    """Per-frame MLPs interleaved with running channelwise max over the prefix.

    Stage 1 lifts raw frame features; its prefix max is concatenated back so
    stage 2 sees both the instantaneous and the aggregated view; a second
    prefix max followed by stage 3 produces the latent.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int = 64, out_dim: int = 64):
        self.stage1 = MLP(rng, [in_dim, hidden, hidden])
        self.stage2 = MLP(rng, [2 * hidden, hidden, hidden])
        self.stage3 = MLP(rng, [hidden, hidden, out_dim], activate_last=False)
        self.hidden = hidden
        self.out_dim = out_dim

    def __call__(self, x) -> Tensor:
        x = T.as_tensor(x)
        if x.ndim != 3:
            raise ShapeError(f"PointNetEncoder expects [L, T, in_dim], got {x.shape}")
        f1 = self.stage1(x)
        p1 = T.max_pool_window(f1)
        f2 = self.stage2(T.concat([f1, p1], axis=-1))
        p2 = T.max_pool_window(f2)
        return self.stage3(p2)

    # incremental interface -------------------------------------------------

    def init_state(self, L: int) -> dict:
        return {
            "rmax1": np.full((L, self.hidden), -np.inf, dtype=np.float32),
            "rmax2": np.full((L, self.hidden), -np.inf, dtype=np.float32),
        }

    def step(self, x_t: np.ndarray, state: dict) -> np.ndarray:
        with T.no_grad():
            f1 = self.stage1(Tensor(x_t)).data
            state["rmax1"] = np.maximum(state["rmax1"], f1)
            f2 = self.stage2(Tensor(np.concatenate([f1, state["rmax1"]], axis=-1))).data
            state["rmax2"] = np.maximum(state["rmax2"], f2)
            return self.stage3(Tensor(state["rmax2"])).data


def _inv_softplus(y: np.ndarray) -> np.ndarray:
    return y + np.log(-np.expm1(-y))


class SSMBlock(Module):
    """Gated selective state-space block with a causal depthwise conv front end.

    The input projection produces a gate, the conv stream (carrying the state
    inputs x, B, C), and a per-head step-size logit. The recurrence uses a
    scalar decay per head, exp(-softplus(dt + dt_bias) * exp(A_log)), handed
    to the scan as its log, and a rank-1 state update per head. No biases anywhere; RMSNorm before the
    output projection; residual connection around the whole block.
    """

    def __init__(self, rng: np.random.Generator, d_model: int, state: int = 16, headdim: int = 64):
        d_inner = SSM_EXPAND * d_model
        if d_inner % headdim != 0:
            raise ShapeError(f"d_inner {d_inner} not divisible by headdim {headdim}")
        self.d_inner = d_inner
        self.state = state
        self.headdim = headdim
        self.heads = d_inner // headdim
        self.conv_dim = d_inner + 2 * state

        proj_out = d_inner + self.conv_dim + self.heads
        self.in_proj = Dense(rng, d_model, proj_out, bias=False)
        bound = 1.0 / math.sqrt(SSM_CONV_WIDTH)
        self.conv_weight = Tensor(
            rng.uniform(-bound, bound, (SSM_CONV_WIDTH, self.conv_dim)).astype(np.float32),
            requires_grad=True,
        )
        dt = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), self.heads))
        self.dt_bias = Tensor(_inv_softplus(dt).astype(np.float32), requires_grad=True)
        self.a_log = Tensor(
            np.log(rng.uniform(1.0, 16.0, self.heads)).astype(np.float32), requires_grad=True
        )
        self.skip = Tensor(np.ones(self.heads, dtype=np.float32), requires_grad=True)
        self.norm = RMSNorm(d_inner)
        self.out_proj = Dense(rng, d_inner, d_model, bias=False)

    def _split(self, u: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        z = T.narrow(u, -1, 0, self.d_inner)
        xbc = T.narrow(u, -1, self.d_inner, self.conv_dim)
        dt = T.narrow(u, -1, self.d_inner + self.conv_dim, self.heads)
        return z, xbc, dt

    def _recurrence_inputs(self, xbc: Tensor, dt: Tensor):
        L, Tlen = xbc.shape[0], xbc.shape[1]
        x_part = T.narrow(xbc, -1, 0, self.d_inner)
        b_part = T.narrow(xbc, -1, self.d_inner, self.state)
        c_part = T.narrow(xbc, -1, self.d_inner + self.state, self.state)
        delta = T.softplus(dt + self.dt_bias)                     # [L, T, H]
        log_decay = -(delta * T.exp(self.a_log))
        x_heads = T.reshape(x_part, (L, Tlen, self.heads, self.headdim))
        dl = T.broadcast_to(
            T.reshape(delta, (L, Tlen, self.heads, 1)), x_heads.shape
        )
        return log_decay, x_heads * dl, b_part, c_part, x_heads

    def _finish(self, y_heads: Tensor, x_heads: Tensor, z: Tensor, resid: Tensor) -> Tensor:
        L, Tlen = y_heads.shape[0], y_heads.shape[1]
        skip = T.broadcast_to(
            T.reshape(self.skip, (self.heads, 1)), (self.heads, self.headdim)
        )
        y = y_heads + x_heads * skip
        y = T.reshape(y, (L, Tlen, self.d_inner))
        y = y * T.silu(z)
        y = self.norm(y)
        return self.out_proj(y) + resid

    def __call__(self, x) -> Tensor:
        x = T.as_tensor(x)
        u = self.in_proj(x)
        z, xbc, dt = self._split(u)
        xbc = T.silu(T.causal_depthwise_conv(xbc, self.conv_weight))
        log_decay, xdt, b_part, c_part, x_heads = self._recurrence_inputs(xbc, dt)
        y_heads = T.ssm_scan(log_decay, xdt, b_part, c_part)
        return self._finish(y_heads, x_heads, z, x)

    # incremental interface -------------------------------------------------

    def init_state(self, L: int) -> dict:
        return {
            "conv": np.zeros((L, SSM_CONV_WIDTH - 1, self.conv_dim), dtype=np.float32),
            "h": np.zeros((L, self.heads, self.headdim, self.state), dtype=np.float32),
        }

    def step(self, x_t: np.ndarray, state: dict) -> np.ndarray:
        with T.no_grad():
            u = self.in_proj(Tensor(x_t[:, None, :]))             # [L, 1, *]
            z, xbc_raw, dt = self._split(u)
            window = np.concatenate([state["conv"], xbc_raw.data], axis=1)
            state["conv"] = window[:, 1:]
            conv_t = np.einsum("lkc,kc->lc", window, self.conv_weight.data)
            xbc = T.silu(Tensor(conv_t[:, None, :]))
            log_decay, xdt, b_part, c_part, x_heads = self._recurrence_inputs(xbc, dt)
            y, h = T.ssm_scan_step(
                state["h"], log_decay.data[:, 0], xdt.data[:, 0],
                b_part.data[:, 0], c_part.data[:, 0],
            )
            state["h"] = h
            out = self._finish(Tensor(y[:, None]), x_heads, z, Tensor(x_t[:, None, :]))
            return out.data[:, 0]


class SSMEncoder(Module):
    """Frame embedding, ``SSM_BLOCKS`` SSM blocks, and a final RMSNorm."""

    def __init__(
        self,
        rng: np.random.Generator,
        in_dim: int,
        d_model: int = 128,
        state: int = 16,
        headdim: int = 64,
    ):
        self.embed = Dense(rng, in_dim, d_model)
        self.blocks = [
            SSMBlock(rng, d_model, state=state, headdim=headdim) for _ in range(SSM_BLOCKS)
        ]
        self.norm = RMSNorm(d_model)
        self.out_dim = d_model

    def __call__(self, x) -> Tensor:
        h = self.embed(x)
        for block in self.blocks:
            h = block(h)
        return self.norm(h)

    def init_state(self, L: int) -> dict:
        return {"blocks": [b.init_state(L) for b in self.blocks]}

    def step(self, x_t: np.ndarray, state: dict) -> np.ndarray:
        with T.no_grad():
            h = self.embed(Tensor(x_t)).data
            for block, bstate in zip(self.blocks, state["blocks"]):
                h = block.step(h, bstate)
            return self.norm(Tensor(h)).data
