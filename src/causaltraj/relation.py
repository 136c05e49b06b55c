"""Per-timestep agent interaction blocks.

All attention here runs across the agent axis within a single frame; no
block mixes information across time, which keeps the full model causal by
construction. Layout is [B, T, N, d] throughout.

Two block types:

* ``AgentAttentionBlock``: pre-norm transformer block, self-attention over
  agents.
* ``PairMeshBlock``: attention whose keys and values are projected from a
  per-frame pairwise mesh. Row (q, k) of the mesh stacks the position and
  velocity differences between agents q and k with both agents' hidden
  vectors, so edge geometry conditions the message weights directly.

The mesh is never materialised: both block types run one attention core,
and the mesh block adds a small pairwise geometry term to its scores and
values (see ``PairMeshBlock``), O(N^2 d + N d^2) work per frame instead of
the mesh's O(N^2 d^2). Each block computes its attention in a method of its
own, so the attention's temporaries are freed before the feedforward runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .nn import MLP, Dense, LayerNorm, Module
from .tensor import Tensor


FRAME_DIM = 4  # a frame's features per agent: [x, y, vx, vy]


def frame_features(pos: np.ndarray) -> np.ndarray:
    """Float32 features [..., T, FRAME_DIM] of positions pos [..., T, 2].

    Channels are [x, y, vx, vy], with velocity pos[t] - pos[t-1], zero at frame 0."""
    feats = np.zeros((*pos.shape[:-1], FRAME_DIM), dtype=np.float32)
    feats[..., :2] = pos
    np.subtract(pos[..., 1:, :], pos[..., :-1, :], out=feats[..., 1:, 2:])
    return feats


def pair_geometry(geo: np.ndarray) -> Tensor:
    """Offsets geo_q - geo_k [B, T, N, N, FRAME_DIM] of frame features geo [B, T, N, FRAME_DIM]."""
    return Tensor(geo[:, :, :, None, :] - geo[:, :, None, :, :])


def _split_heads(x: Tensor, heads: int, axes) -> Tensor:
    """x [B, T, N, d] as [B, T, N, H, d/H], transposed by ``axes``."""
    B, Tlen, N, d = x.shape
    return T.transpose(T.reshape(x, (B, Tlen, N, heads, d // heads)), axes)


def _attention_weights(q: Tensor, k: Tensor, heads: int, extra_scores=None) -> Tensor:
    """Softmax attention weights [B, T, H, N, N] of queries q over keys k [B, T, N, d].

    ``extra_scores`` [B, T, H, N, N] joins the raw scores before scaling."""
    scores = T.matmul(_split_heads(q, heads, (0, 1, 3, 2, 4)),     # [B,T,H,N,hd]
                      _split_heads(k, heads, (0, 1, 3, 4, 2)))     # [B,T,H,hd,N]
    return T.softmax_lastdim(scores, extra_scores, 1.0 / math.sqrt(q.shape[-1] // heads))


def _merge(attn: Tensor, v: Tensor) -> Tensor:
    """The heads' attn [B, T, H, N, N]-weighted values v [B, T, N, d], merged to [B, T, N, d]."""
    out = T.matmul(attn, _split_heads(v, attn.shape[2], (0, 1, 3, 2, 4)))
    return T.reshape(T.transpose(out, (0, 1, 3, 2, 4)), v.shape)


class AgentAttentionBlock(Module):
    """Pre-norm self-attention over agents plus a two-layer feedforward."""

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, ff_dim: int):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.q_proj = Dense(rng, dim, dim)
        # a key bias adds q . b_k to every score of a softmax row: it cancels
        self.k_proj = Dense(rng, dim, dim, bias=False)
        self.v_proj = Dense(rng, dim, dim)
        self.out_proj = Dense(rng, dim, dim)
        self.ff = MLP(rng, [dim, ff_dim, dim], activate_last=False)

    def __call__(self, h: Tensor, geo: Tensor) -> Tensor:
        h = h + self.out_proj(self._attention(self.norm1(h)))
        return h + self.ff(self.norm2(h))

    def _attention(self, z: Tensor) -> Tensor:
        """Multi-head self-attention over agents of normed z [B, T, N, d], before out_proj."""
        attn = _attention_weights(self.q_proj(z), self.k_proj(z), self.heads)
        return _merge(attn, self.v_proj(z))


class PairMeshBlock(Module):
    """Attention whose keys and values are projected from pairwise mesh rows.

    Mesh row (q, k) is ``[geo_qk, z_q, z_k]`` (width 2d+G, G = FRAME_DIM).
    ``v_proj`` maps it to d through three row blocks: ``0:G`` (Wv_g) act on
    the geometry, ``G:G+d`` (Wv_q) on the query agent, ``G+d:G+2d`` (Wv_k) on
    the key agent. ``k_proj.weight`` is ``[Wk_g; Wk_k]`` (d+G rows): it has no
    query-agent block, because that block cannot affect the output (below).
    Projecting a concatenation is the sum of the blocks' projections, so per
    head h, with q = q_proj(z),

        k_qk = geo_qk Wk_g + z_k Wk_k
        v_qk = geo_qk Wv_g + z_q Wv_q + z_k Wv_k + b_v

    and the block is evaluated without building the mesh:

    * score_qk = q_q . (z_k Wk_k) + sum_c geo_qk[c] u_q[c], with
      u_q[c] = q_q . Wk_g[c] (head h's columns). A ``z_q Wk_q`` key block
      would add q_q . (z_q Wk_q) to every score in row q, and softmax is
      invariant to a per-row shift, so it would cancel exactly; a key bias
      would cancel the same way, so ``k_proj`` has neither.
    * out_q = sum_k a_qk (z_k Wv_k) + (z_q Wv_q + b_v)
      + (sum_k a_qk geo_qk) Wv_g, because the weights a_qk sum to 1.

    This is the relative-attention split of Shaw et al. (arXiv:1803.02155).
    It costs O(N^2 d + N d^2) per frame against O(N^2 d^2) for the mesh.
    """

    def __init__(self, rng: np.random.Generator, dim: int, heads: int, ff_dim: int):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        mesh_dim = 2 * dim + FRAME_DIM
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.q_proj = Dense(rng, dim, dim)
        self.k_proj = Dense(rng, mesh_dim, dim, bias=False)
        # drawn at mesh width so the init RNG stream is unchanged; the z_q rows cancel
        self.k_proj.weight.data = np.delete(self.k_proj.weight.data, np.s_[FRAME_DIM:-dim], axis=0)
        self.v_proj = Dense(rng, mesh_dim, dim)
        self.out_proj = Dense(rng, dim, dim)
        self.ff = MLP(rng, [dim, ff_dim, dim], activate_last=False)

    def __call__(self, h: Tensor, geo: Tensor) -> Tensor:
        h = h + self.out_proj(self._attention(self.norm1(h), geo))
        return h + self.ff(self.norm2(h))

    def _attention(self, z: Tensor, geo: Tensor) -> Tensor:
        """The factored mesh attention of normed z [B, T, N, d], before out_proj."""
        B, Tlen, N, d = z.shape
        H, G = self.heads, geo.shape[-1]
        wk, wv = self.k_proj.weight, self.v_proj.weight
        q = self.q_proj(z)                                        # [B, T, N, d]
        attn = _attention_weights(q, T.linear(z, T.narrow(wk, 0, G, d)), H,
                                  self._geo_scores(q, geo))
        out = _merge(attn, T.linear(z, T.narrow(wv, 0, G + d, d)))
        out = out + T.linear(z, T.narrow(wv, 0, G, d), self.v_proj.bias)
        # per head, the attention-weighted mean geometry through Wv_g
        mean_geo = T.matmul(T.transpose(attn, (0, 1, 3, 2, 4)), geo)   # [B, T, N, H, G]
        mean_geo = T.reshape(mean_geo, (B, Tlen, N, H * G))
        return out + T.linear(mean_geo, _per_head_rows(T.narrow(wv, 0, 0, G), H))

    def _geo_scores(self, q: Tensor, geo: Tensor) -> Tensor:
        """The geometry key term [B, T, H, N, N]: sum_c geo_qk[c] u_q[c], u_q[c] = q_q . Wk_g[c]."""
        B, Tlen, N, _ = q.shape
        H, G = self.heads, geo.shape[-1]
        wk_g = T.narrow(self.k_proj.weight, 0, 0, G)
        u = T.linear(q, T.transpose(_per_head_rows(wk_g, H), (1, 0)))
        u = T.reshape(u, (B, Tlen, N, H, G))
        geo_t = T.transpose(geo, (0, 1, 2, 4, 3))                 # [B, T, N, G, N]
        return T.transpose(T.matmul(u, geo_t), (0, 1, 3, 2, 4))


def _per_head_rows(w: Tensor, heads: int) -> Tensor:
    """Block-diagonal [heads*G, d] from [G, d]: row h*G + c is w[c] on head h's columns."""
    G, d = w.shape
    mask = np.repeat(np.eye(heads, dtype=w.dtype), d // heads, axis=1)   # [H, d]
    mask = np.broadcast_to(mask[:, None, :], (heads, G, d))
    rows = T.broadcast_to(T.reshape(w, (1, G, d)), (heads, G, d)) * mask
    return T.reshape(rows, (heads * G, d))


class RelationEncoder(Module):
    """Standard agent-attention blocks followed by pair-mesh blocks.

    With ``use_mesh=False`` the second group is replaced by plain
    agent-attention blocks of the same count and feedforward width, so the
    two variants differ only in how the second half conditions on geometry.
    ``__call__`` reads h [B, T, N, d] and the same frames' features geo [B, T, N, FRAME_DIM].
    """

    def __init__(
        self,
        rng: np.random.Generator,
        dim: int,
        heads: int,
        std_blocks: int = 4,
        mesh_blocks: int = 4,
        std_ff: int = 512,
        mesh_ff: int = 256,
        use_mesh: bool = True,
    ):
        first = [AgentAttentionBlock(rng, dim, heads, std_ff) for _ in range(std_blocks)]
        if use_mesh:
            second = [PairMeshBlock(rng, dim, heads, mesh_ff) for _ in range(mesh_blocks)]
        else:
            second = [AgentAttentionBlock(rng, dim, heads, mesh_ff) for _ in range(mesh_blocks)]
        self.blocks = first + second

    def __call__(self, h: Tensor, geo: np.ndarray) -> Tensor:
        pairs = pair_geometry(geo)
        for block in self.blocks:
            h = block(h, pairs)
        return h
