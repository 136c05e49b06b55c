"""Agent interaction blocks: frame locality, symmetry, gradients."""

import numpy as np
import pytest

from causaltraj import tensor as T
from causaltraj.errors import ShapeError
from causaltraj.relation import (
    AgentAttentionBlock,
    PairMeshBlock,
    FRAME_DIM,
    RelationEncoder,
    frame_features,
    pair_geometry,
)
from causaltraj.tensor import Tensor, grad_check


def make_inputs(rng, B=2, Tlen=4, N=3, dim=8):
    """h [B, T, N, dim] and frame features geo [B, T, N, 4]: positions, then velocities."""
    h = rng.normal(size=(B, Tlen, N, dim)).astype(np.float32)
    pos = rng.normal(size=(B, Tlen, N, 2)).astype(np.float32)
    vel = rng.normal(size=(B, Tlen, N, 2)).astype(np.float32)
    return h, np.concatenate([pos, vel], axis=-1)


def make_encoder(seed=0, use_mesh=True, dim=8):
    return RelationEncoder(np.random.default_rng(seed), dim, heads=2,
                           std_blocks=2, mesh_blocks=2, std_ff=16, mesh_ff=12,
                           use_mesh=use_mesh)


def test_frame_features_hand_case():
    # channels [x, y, vx, vy]; velocity is the step from the previous frame, 0 at frame 0
    pos = np.array([[[1.0, 2.0], [4.0, 6.0], [3.5, 6.0]]], dtype=np.float32)   # [1, T=3, 2]
    feats = frame_features(pos)
    assert feats.shape == (1, 3, FRAME_DIM) and feats.dtype == np.float32
    np.testing.assert_array_equal(feats[0], [[1.0, 2.0, 0.0, 0.0],
                                             [4.0, 6.0, 3.0, 4.0],
                                             [3.5, 6.0, -0.5, 0.0]])


def test_pair_geometry_hand_case():
    geo = np.zeros((1, 1, 2, FRAME_DIM), dtype=np.float32)
    geo[0, 0, 0] = [1.0, 2.0, 0.5, 0.0]
    geo[0, 0, 1] = [4.0, 6.0, 0.0, 0.0]
    geo = pair_geometry(geo).data
    assert geo.shape == (1, 1, 2, 2, 4)
    np.testing.assert_allclose(geo[0, 0, 0, 1], [-3.0, -4.0, 0.5, 0.0])
    np.testing.assert_allclose(geo[0, 0, 1, 0], [3.0, 4.0, -0.5, 0.0])
    assert np.abs(geo[0, 0, 0, 0]).max() == 0.0


def test_pair_geometry_matches_separate_differences():
    # one broadcast difference of [pos, vel] must equal, bit for bit, the
    # concatenation of separate position and velocity differences it replaced
    rng = np.random.default_rng(6)
    _, geo = make_inputs(rng, B=2, Tlen=3, N=5)
    geo = geo * np.float32(37.0)
    pos, vel = geo[..., :2], geo[..., 2:]
    pd = pos[:, :, :, None, :] - pos[:, :, None, :, :]
    vd = vel[:, :, :, None, :] - vel[:, :, None, :, :]
    old = np.concatenate([pd, vd], axis=-1).astype(np.float32)
    new = pair_geometry(geo).data
    assert new.dtype == np.float32
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("use_mesh", [True, False])
def test_per_frame_locality(use_mesh):
    # perturbing one frame of every stream leaves all other frames bit-identical
    enc = make_encoder(use_mesh=use_mesh)
    rng = np.random.default_rng(1)
    h, geo = make_inputs(rng)
    with T.no_grad():
        base = enc(Tensor(h), geo).data
    for t in range(4):
        h2, geo2 = h.copy(), geo.copy()
        h2[:, t] += 1.0
        geo2[:, t, :, :2] -= 2.0
        geo2[:, t, :, 2:] += 0.5
        with T.no_grad():
            out = enc(Tensor(h2), geo2).data
        others = [u for u in range(4) if u != t]
        assert np.array_equal(out[:, others], base[:, others]), t
        assert not np.array_equal(out[:, t], base[:, t]), t


@pytest.mark.parametrize("use_mesh", [True, False])
def test_agent_permutation_equivariance(use_mesh):
    enc = make_encoder(use_mesh=use_mesh)
    rng = np.random.default_rng(2)
    h, geo = make_inputs(rng, N=4)
    perm = np.array([2, 0, 3, 1])
    with T.no_grad():
        out = enc(Tensor(h), geo).data
        out_p = enc(Tensor(h[:, :, perm]), geo[:, :, perm]).data
    np.testing.assert_allclose(out_p, out[:, :, perm], atol=2e-5)


@pytest.mark.parametrize("use_mesh", [True, False])
def test_gradients(use_mesh):
    enc = make_encoder(use_mesh=use_mesh)
    rng = np.random.default_rng(3)
    h, geo = make_inputs(rng, B=1, Tlen=2, N=3)
    ht = Tensor(h, requires_grad=True)
    err = grad_check(lambda: enc(ht, geo).sum(), enc.parameters() + [ht],
                     max_coords_per_param=20, rng=np.random.default_rng(0))
    assert err < 1e-5


def test_mesh_conditions_on_geometry():
    # the mesh variant must react to a pure position shift of one agent;
    # hidden features are held fixed so the geometry is the only channel
    enc = make_encoder(use_mesh=True)
    rng = np.random.default_rng(4)
    h, geo = make_inputs(rng)
    geo2 = geo.copy()
    geo2[:, :, 0, :2] += 3.0
    with T.no_grad():
        a = enc(Tensor(h), geo).data
        b = enc(Tensor(h), geo2).data
    assert not np.array_equal(a, b)


def test_plain_variant_ignores_geometry():
    enc = make_encoder(use_mesh=False)
    rng = np.random.default_rng(5)
    h, geo = make_inputs(rng)
    with T.no_grad():
        a = enc(Tensor(h), geo).data
        b = enc(Tensor(h), geo + np.float32([7.0, 7.0, -2.0, -2.0])).data
    assert np.array_equal(a, b)


def test_variants_have_same_block_count():
    a = make_encoder(use_mesh=True)
    b = make_encoder(use_mesh=False)
    assert len(a.blocks) == len(b.blocks) == 4
    assert isinstance(a.blocks[2], PairMeshBlock)
    assert isinstance(b.blocks[2], AgentAttentionBlock)


def test_head_divisibility_checked():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        AgentAttentionBlock(rng, 9, heads=2, ff_dim=8)
    with pytest.raises(ShapeError):
        PairMeshBlock(rng, 9, heads=2, ff_dim=8)


def mesh_forward(block, h, geo):
    """The mesh-building forward the factored ``PairMeshBlock`` replaced.

    It concatenates the full [B, T, N, N, 2d+4] mesh and projects it with
    ``k_proj``/``v_proj``; kept here only as the reference for the rewrite.
    The mesh key weight is ``[Wk_g; zeros(d, d); Wk_k]``: the query-agent
    rows ``k_proj`` leaves out, set to zero.
    """
    B, Tlen, N, d = h.shape
    H = block.heads
    hd = d // H
    z = block.norm1(h)
    zq = T.broadcast_to(T.reshape(z, (B, Tlen, N, 1, d)), (B, Tlen, N, N, d))
    zk = T.broadcast_to(T.reshape(z, (B, Tlen, 1, N, d)), (B, Tlen, N, N, d))
    mesh = T.concat([geo, zq, zk], axis=-1)

    def mesh_heads(x):
        x = T.reshape(x, (B, Tlen, N, N, H, hd))
        return T.transpose(x, (0, 1, 4, 2, 3, 5))

    q = T.transpose(T.reshape(block.q_proj(z), (B, Tlen, N, H, hd)), (0, 1, 3, 2, 4))
    wk = block.k_proj.weight
    wk_mesh = T.concat([T.narrow(wk, 0, 0, 4), Tensor(np.zeros((d, d), dtype=wk.dtype)),
                        T.narrow(wk, 0, 4, d)], axis=0)
    k = mesh_heads(T.linear(mesh, wk_mesh))
    v = mesh_heads(block.v_proj(mesh))
    qb = T.broadcast_to(T.reshape(q, (B, Tlen, H, N, 1, hd)), k.shape)
    scores = (qb * k).sum(axis=-1) * (1.0 / np.sqrt(hd))
    attn = T.softmax_lastdim(scores)
    ab = T.broadcast_to(T.reshape(attn, (B, Tlen, H, N, N, 1)), v.shape)
    out = T.reshape(T.transpose((ab * v).sum(axis=-2), (0, 1, 3, 2, 4)), (B, Tlen, N, d))
    h = h + block.out_proj(out)
    return h + block.ff(block.norm2(h))


def perturb_biases_and_gains(block, rng):
    for name, p in block.named_parameters():
        if name.endswith("bias") or name.endswith("gain"):
            p.data = (p.data + rng.normal(scale=0.3, size=p.shape)).astype(p.dtype)


def test_factored_mesh_matches_mesh_path():
    # paper sizes: N=11 agents, d=128, H=8 heads; non-zero biases so the
    # cancelled key term and the value bias are exercised
    rng = np.random.default_rng(7)
    block = PairMeshBlock(np.random.default_rng(8), 128, heads=8, ff_dim=256)
    perturb_biases_and_gains(block, rng)
    h, geo = make_inputs(rng, B=2, Tlen=3, N=11, dim=128)
    geo = pair_geometry(geo * np.float32([5.0, 5.0, 1.0, 1.0]))
    seed = rng.normal(size=h.shape).astype(np.float32)

    results = []
    for forward in (block.__call__, lambda x, g: mesh_forward(block, x, g)):
        block.zero_grad()
        ht = Tensor(h, requires_grad=True)
        out = forward(ht, geo)
        (out * Tensor(seed)).sum().backward()
        grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad
                 for n, p in block.named_parameters()}
        results.append((out.data, ht.grad, grads))
    (out_new, gh_new, g_new), (out_old, gh_old, g_old) = results

    np.testing.assert_allclose(out_new, out_old, rtol=0, atol=2e-5)
    np.testing.assert_allclose(gh_new, gh_old, rtol=0, atol=1e-4 * np.abs(gh_old).max())
    for name in g_old:
        scale = max(np.abs(g_old[name]).max(), 1e-2)
        np.testing.assert_allclose(g_new[name], g_old[name], rtol=0, atol=1e-4 * scale,
                                   err_msg=name)


def test_factored_mesh_grad_check():
    rng = np.random.default_rng(9)
    block = PairMeshBlock(np.random.default_rng(10), 8, heads=2, ff_dim=12)
    perturb_biases_and_gains(block, rng)
    h, geo = make_inputs(rng, B=1, Tlen=2, N=4)
    geo = pair_geometry(geo)
    ht = Tensor(h, requires_grad=True)
    weights = Tensor(rng.normal(size=h.shape))
    err = grad_check(lambda: (block(ht, geo) * weights).sum(),
                     block.parameters() + [ht],
                     max_coords_per_param=24, rng=np.random.default_rng(0))
    assert err < 1e-6
