"""Full model: shapes, loss framing, rollout semantics, checkpoints."""

import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from causaltraj import mdn
from causaltraj import tensor as T
from causaltraj.errors import ConfigError, DataError, ShapeError, TrajectoryFormatError
from causaltraj.model import (
    CHECKPOINT_MAGIC,
    ModelConfig,
    TrajectoryModel,
    config_from_dict,
    constant_velocity_rollout,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from causaltraj.relation import frame_features
from causaltraj.tensor import Tensor
from causaltraj.trainer import TrainConfig


def tiny_config(**overrides):
    base = dict(
        num_agents=3,
        num_components=2,
        context_frames=4,
        future_frames=6,
        temporal_hidden=16,
        temporal_dim=16,
        relation_dim=16,
        attn_heads=4,
        std_blocks=1,
        mesh_blocks=1,
        std_ff=32,
        mesh_ff=32,
        category_dim=8,
        agent_channels=16,
        scene_hidden=(32, 32),
        ssm_state=4,
        ssm_headdim=16,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def scenes(rng, B=2, N=3, Tlen=10):
    pos = rng.normal(scale=3.0, size=(B, N, Tlen, 2)).astype(np.float32)
    pos = np.cumsum(pos * 0.1, axis=2) + 40.0
    cats = np.array([0, 1, 2], dtype=np.int64)[:N]
    return pos.astype(np.float32), cats


@pytest.fixture(scope="module")
def pointnet_model():
    return TrajectoryModel(tiny_config())


@pytest.fixture(scope="module")
def ssm_model():
    return TrajectoryModel(tiny_config(temporal="ssm"))


# Gains on the weight matrices (std 0.02 at init) that make a tiny model's
# rollout read its encoder state: unscaled, the head means are ~1e-4 and a
# wrong latent moves no output byte. pointnet's three stages leave its latent
# ~1e-7, so it gets the larger encoder gain; the ssm's latent leaves a norm at
# ~1 already (and its SiLU overflows float32 at a larger gain).
ENCODER_GAIN = {"pointnet": 25.0, "ssm": 5.0}
RELATION_INPUT_GAIN = 50.0
OTHER_GAIN = 5.0


def state_dependent(model):
    encoder = {id(p) for p in model.temporal.parameters()}
    relation_input = {id(p) for p in model.relation_input.parameters()}
    for p in model.parameters():
        if p.ndim == 2:
            gain = (ENCODER_GAIN[model.config.temporal] if id(p) in encoder
                    else RELATION_INPUT_GAIN if id(p) in relation_input else OTHER_GAIN)
            p.data = p.data * np.float32(gain)
    return model


@pytest.fixture(scope="module")
def rollout_models():
    return {kind: state_dependent(TrajectoryModel(tiny_config(temporal=kind)))
            for kind in ("pointnet", "ssm")}


class TestForward:
    def test_shapes(self, pointnet_model):
        # T = 10 frames, P = 4: the F = 6 scored frames only
        pos, cats = scenes(np.random.default_rng(0))
        logits, means, chols, targets = pointnet_model.forward(pos, cats)
        assert logits.shape == (2, 6, 2)
        assert means.shape == (2, 6, 2, 3, 2)
        assert chols.shape == (2, 6, 2, 3, 3)
        assert targets.shape == (2, 6, 3, 2)
        np.testing.assert_array_equal(
            targets.data[:, 0], (pos[:, :, 4] - pos[:, :, 3])
        )

    def test_rejects_bad_roster(self, pointnet_model):
        pos, cats = scenes(np.random.default_rng(0), N=4)
        with pytest.raises(ShapeError):
            pointnet_model.forward(pos, np.zeros(4, dtype=np.int64))

    def test_rejects_bad_category_values(self, pointnet_model):
        pos, _ = scenes(np.random.default_rng(0))
        with pytest.raises(ShapeError):
            pointnet_model.forward(pos, np.array([0, 1, 3]))

    def test_per_batch_categories(self, pointnet_model):
        pos, _ = scenes(np.random.default_rng(1))
        cats = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.int64)
        logits, _, _, _ = pointnet_model.forward(pos, cats)
        assert logits.shape == (2, 6, 2)

    def test_loss_finite_and_scalar(self, pointnet_model):
        pos, cats = scenes(np.random.default_rng(2))
        loss, stats = pointnet_model.loss(pos, cats)
        assert loss.shape == ()
        assert np.isfinite(loss.data)
        assert set(stats) == {"nll", "entropy"}

    def test_ssm_variant_runs(self, ssm_model):
        pos, cats = scenes(np.random.default_rng(3))
        loss, _ = ssm_model.loss(pos, cats)
        assert np.isfinite(loss.data)


def velocities(pos):
    """Per-frame displacements of pos [X, N, T, 2] along T, zero at frame 0.

    The velocity channels ``frame_features`` builds, written out here so the
    reference paths below do not share its code.
    """
    vel = np.zeros_like(pos)
    vel[:, :, 1:] = pos[:, :, 1:] - pos[:, :, :-1]
    return vel


def all_frames_params(model, positions, categories):
    """The teacher-forced path ``forward`` replaced: all T frames, then narrowed.

    Runs the temporal encoder, relation stack, scene MLP and head on every
    frame and keeps the F = T-P frames from P-1 on; kept here only as the
    reference for the fold.
    """
    pos = np.asarray(positions, dtype=np.float32)
    B, N, Tlen, _ = pos.shape
    P = model.config.context_frames
    F = Tlen - P
    cat = model._categories(categories, B)
    feats = np.concatenate([pos, velocities(pos)], axis=-1)
    lat = model.temporal(Tensor(feats.reshape(B * N, Tlen, 4)))
    lat = T.transpose(T.reshape(lat, (B, N, Tlen, model.latent_dim)), (0, 2, 1, 3))
    params = model._head_params(lat, np.ascontiguousarray(feats.transpose(0, 2, 1, 3)), cat)
    targets = (pos[:, :, P:] - pos[:, :, P - 1: Tlen - 1]).transpose(0, 2, 1, 3)
    return (*(T.narrow(x, 1, P - 1, F) for x in params),
            Tensor(np.ascontiguousarray(targets)))


@pytest.mark.parametrize("config", [
    ModelConfig(),                                  # full preset, N = 11
    ModelConfig.small(temporal="ssm"),
], ids=["full-pointnet", "small-ssm"])
def test_forward_matches_all_frames_reference(config):
    model = TrajectoryModel(config)
    rng = np.random.default_rng(21)
    pos, _ = scenes(rng, N=config.num_agents, Tlen=config.context_frames + 5)
    cats = rng.integers(0, 3, size=config.num_agents)
    seeds = None
    results = []
    for path in (model.forward, lambda p, c: all_frames_params(model, p, c)):
        model.zero_grad()
        out = path(pos, cats)
        if seeds is None:
            seeds = [Tensor(rng.normal(size=x.shape).astype(np.float32)) for x in out[:3]]
        sum((x * w).sum() for x, w in zip(out, seeds)).backward()
        grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                 for n, p in model.named_parameters()}
        results.append(([x.data for x in out], grads))
    (out_new, g_new), (out_old, g_old) = results

    np.testing.assert_array_equal(out_new[3], out_old[3])
    for new, old in zip(out_new[:3], out_old[:3]):
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-6 * np.abs(old).max())
    for name in g_old:
        scale = np.abs(g_old[name]).max()
        np.testing.assert_allclose(g_new[name], g_old[name], rtol=0, atol=1e-6 * scale,
                                   err_msg=name)


@pytest.mark.parametrize("use_mesh", [True, False])
@pytest.mark.parametrize("temporal", ["pointnet", "ssm"])
def test_every_parameter_row_gets_a_gradient(temporal, use_mesh):
    # a row whose gradient is exactly zero cannot affect the output; a key
    # bias shifts every score of a softmax row equally, so no block has one
    model = TrajectoryModel(ModelConfig.small(temporal=temporal, use_mesh=use_mesh))
    assert all(block.k_proj.bias is None for block in model.relation.blocks)
    pos, _ = scenes(np.random.default_rng(22), B=4, N=5,
                    Tlen=model.config.context_frames + 4)
    loss, _ = model.loss(pos, np.array([0, 1, 1, 2, 2]))     # all three categories
    loss.backward()
    for name, p in model.named_parameters():
        assert p.grad is not None, name
        rows = np.abs(p.grad).reshape(p.shape[0], -1).max(axis=1)
        assert np.all(rows > 0.0), (name, np.flatnonzero(rows == 0.0))


class TestStepNLLFraming:
    def test_shape_covers_future_frames(self, pointnet_model):
        pos, cats = scenes(np.random.default_rng(4), Tlen=9)
        nll = pointnet_model.per_step_nll(pos, cats)
        assert nll.shape == (2, 9 - 4)

    def test_prefix_unchanged_by_future_edits(self, pointnet_model):
        # entry f depends only on frames up to P+f, so edits at a later
        # frame must leave entries before it bit-identical
        pos, cats = scenes(np.random.default_rng(5), Tlen=10)
        base = pointnet_model.per_step_nll(pos, cats)
        P = pointnet_model.config.context_frames
        for cut in range(P + 1, 10):
            pos2 = pos.copy()
            pos2[:, :, cut:] += 3.0
            out = pointnet_model.per_step_nll(pos2, cats)
            keep = cut - P
            assert np.array_equal(out[:, :keep], base[:, :keep]), cut
            assert not np.array_equal(out[:, keep:], base[:, keep:]), cut

    def test_needs_a_future_frame(self, pointnet_model):
        pos, cats = scenes(np.random.default_rng(6), Tlen=4)
        with pytest.raises(ShapeError):
            pointnet_model.per_step_nll(pos, cats)


class TestRollout:
    @pytest.fixture
    def pointnet(self, rollout_models):
        return rollout_models["pointnet"]

    def contexts(self, rng, C=2, N=3, P=4):
        ctx, cats = scenes(rng, B=C, N=N, Tlen=P)
        return ctx, cats

    def test_ordering_and_shapes(self, pointnet):
        ctx, cats = self.contexts(np.random.default_rng(7))
        out = pointnet.rollout(ctx, cats, horizon=5, num_scenarios=3, seed=1)
        assert len(out) == 6
        for i, s in enumerate(out):
            assert (s.context_index, s.scenario_index) == divmod(i, 3)
            assert s.positions.shape == (5, 3, 2)
            assert s.displacements.shape == (5, 3, 2)
            assert s.components.shape == (5,)
            # the sample holds the future only; its context stays with the caller
            assert [f.name for f in dataclasses.fields(s)] == [
                "context_index", "scenario_index", "positions", "displacements", "components"
            ]

    def test_deterministic_per_seed(self, pointnet):
        ctx, cats = self.contexts(np.random.default_rng(8))
        a = pointnet.rollout(ctx, cats, horizon=4, num_scenarios=2, seed=5)
        b = pointnet.rollout(ctx, cats, horizon=4, num_scenarios=2, seed=5)
        c = pointnet.rollout(ctx, cats, horizon=4, num_scenarios=2, seed=6)
        for x, y in zip(a, b):
            assert np.array_equal(x.positions, y.positions)
            assert np.array_equal(x.components, y.components)
        assert any(not np.array_equal(x.positions, z.positions) for x, z in zip(a, c))

    def test_scenario_streams_independent_of_count(self, pointnet):
        # scenario s draws from substream (context, s): asking for more
        # scenarios must not change the ones already drawn
        ctx, cats = self.contexts(np.random.default_rng(9))
        one = pointnet.rollout(ctx, cats, horizon=4, num_scenarios=1, seed=3)
        four = pointnet.rollout(ctx, cats, horizon=4, num_scenarios=4, seed=3)
        for c in range(2):
            assert np.array_equal(one[c].positions, four[4 * c].positions)

    def test_recursive_position_consistency(self, pointnet):
        ctx, cats = self.contexts(np.random.default_rng(10))
        (s,) = pointnet.rollout(ctx[:1], cats, horizon=6, seed=2)
        assert np.array_equal(s.positions[0], ctx[0, :, -1] + s.displacements[0])
        for u in range(1, 6):
            assert np.array_equal(
                s.positions[u], s.positions[u - 1] + s.displacements[u]
            )

    @pytest.mark.parametrize("kind", ["pointnet", "ssm"])
    def test_incremental_matches_recompute(self, kind, rollout_models):
        model = rollout_models[kind]
        ctx, cats = self.contexts(np.random.default_rng(11))
        fast = model.rollout(ctx, cats, horizon=5, num_scenarios=2, seed=4,
                             incremental=True)
        slow = model.rollout(ctx, cats, horizon=5, num_scenarios=2, seed=4,
                             incremental=False)
        for a, b in zip(fast, slow):
            assert np.array_equal(a.components, b.components)
            assert np.abs(a.positions - b.positions).max() <= 1e-5

    @pytest.mark.parametrize("kind", ["pointnet", "ssm"])
    def test_encoder_latent_moves_the_means(self, kind, rollout_models):
        # a wrong encoder state fails the test above only if swapping the
        # latent moves a step's means well beyond its 1e-5 tolerance
        model = rollout_models[kind]
        ctx, cats = self.contexts(np.random.default_rng(11))
        lat = model._last_latent(ctx).reshape(2, 3, -1)
        f_t = frame_features(ctx)[:1, :, -1]
        means = [model._step_params(lat[c], f_t, cats[None])[1] for c in (0, 1)]
        assert np.abs(means[0] - means[1]).max() > 1e-4

    def test_mean_mode_deterministic_argmax(self, pointnet):
        ctx, cats = self.contexts(np.random.default_rng(12))
        a = pointnet.rollout(ctx, cats, horizon=4, seed=0, mode="mean")
        b = pointnet.rollout(ctx, cats, horizon=4, seed=99, mode="mean")
        for x, y in zip(a, b):
            assert np.array_equal(x.positions, y.positions)

    @pytest.mark.parametrize("kind", ["pointnet", "ssm"])
    def test_mean_mode_runs_each_context_once(self, kind, rollout_models, monkeypatch):
        # the k scenarios of a context are equal in mean mode: every encoder
        # step sees one row per context and agent, C * N, never C * k * N
        model = rollout_models[kind]
        ctx, cats = self.contexts(np.random.default_rng(12))
        rows = []
        step = model.temporal.step
        monkeypatch.setattr(model.temporal, "step",
                            lambda x_t, state: rows.append(len(x_t)) or step(x_t, state))
        out = model.rollout(ctx, cats, horizon=4, num_scenarios=3, mode="mean")
        assert rows == [2 * 3] * (4 + 3)        # P = 4 prefix frames, then 3 steps
        for i, s in enumerate(out):
            assert (s.context_index, s.scenario_index) == divmod(i, 3)
            assert np.array_equal(s.positions, out[3 * s.context_index].positions)

    def test_shared_component_per_step(self, pointnet):
        ctx, cats = self.contexts(np.random.default_rng(13))
        (s,) = pointnet.rollout(ctx[:1], cats, horizon=8, seed=7)
        assert s.components.dtype == np.int64
        assert s.components.min() >= 0
        assert s.components.max() < pointnet.config.num_components

    def test_rejects_bad_mode_and_shape(self, pointnet):
        ctx, cats = self.contexts(np.random.default_rng(14))
        with pytest.raises(ConfigError):
            pointnet.rollout(ctx, cats, mode="map")
        with pytest.raises(ShapeError):
            pointnet.rollout(ctx[:, :, :1], cats)
        with pytest.raises(ShapeError):
            pointnet.rollout(ctx[:0], cats)
        for bad in (dict(num_scenarios=0), dict(num_scenarios=-1), dict(horizon=0),
                    dict(seed=-1)):
            with pytest.raises(ConfigError):
                pointnet.rollout(ctx, cats, **bad)


def reference_rollout(model, contexts, categories, horizon, num_scenarios, seed, mode,
                      incremental):
    """The rollout loop before the per-context prefix: every scene row from the start.

    Repeats each context k times before encoding it and runs the prefix and
    step 0 on all C*k rows; kept here only as the reference for that change.
    Returns (positions [B, H, N, 2], displacements [B, H, N, 2], components [B, H]).
    """
    ctx = np.asarray(contexts, dtype=np.float32)
    C, N, P, _ = ctx.shape
    k = num_scenarios
    B = C * k
    pos = np.repeat(ctx, k, axis=0)
    cat = model._categories(categories if np.asarray(categories).ndim == 1
                            else np.repeat(np.asarray(categories), k, axis=0), B)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b // k, b % k)))
            for b in range(B)]
    state = model.temporal.init_state(B * N) if incremental else None
    vel = velocities(pos)
    if incremental:
        for t in range(P):
            f_t = np.concatenate([pos[:, :, t], vel[:, :, t]], axis=-1)
            lat_t = model.temporal.step(f_t.reshape(B * N, 4).astype(np.float32), state)
    cur = pos[:, :, P - 1].copy()
    vel_cur = vel[:, :, P - 1].copy()
    hist = [pos[:, :, t] for t in range(P)]
    out_pos = np.empty((B, horizon, N, 2), dtype=np.float32)
    out_disp = np.empty((B, horizon, N, 2), dtype=np.float32)
    out_comp = np.empty((B, horizon), dtype=np.int64)
    for u in range(horizon):
        if u > 0:
            f_t = np.concatenate([cur, vel_cur], axis=-1).astype(np.float32)
            if incremental:
                lat_t = model.temporal.step(f_t.reshape(B * N, 4), state)
        if not incremental:
            seq = np.stack(hist, axis=2)
            feats = np.concatenate([seq, velocities(seq)], axis=-1)
            with T.no_grad():
                lat_t = model.temporal(Tensor(feats.reshape(B * N, seq.shape[2], 4))).data[:, -1]
        with T.no_grad():
            logits, means, chols = model._head_params(
                Tensor(lat_t.reshape(B, 1, N, model.latent_dim)),
                np.concatenate([cur, vel_cur], axis=-1)[:, None], cat,
            )
        lg, mn, ch = logits.data[:, 0], means.data[:, 0], chols.data[:, 0]
        if mode == "mean":
            dx, comp = mdn.mode_displacements(lg, mn)
        else:
            us = np.array([rngs[b].random() for b in range(B)])
            eps = np.stack([rngs[b].standard_normal((N, 2)) for b in range(B)])
            comp = mdn.components_from_uniforms(lg, us)
            dx = mdn.displacements_from_normals(mn, ch, comp, eps)
        new_cur = cur + dx
        out_pos[:, u] = new_cur
        out_disp[:, u] = dx
        out_comp[:, u] = comp
        vel_cur = new_cur - cur
        cur = new_cur
        hist.append(new_cur)
    return out_pos, out_disp, out_comp


@pytest.mark.parametrize("mode", ["sample", "mean"])
@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "recompute"])
@pytest.mark.parametrize("kind", ["pointnet", "ssm"])
def test_rollout_matches_per_scene_reference(kind, incremental, mode):
    # the prefix and step 0 run once per context and are repeated per scenario;
    # every output byte must equal the loop that ran them per scene row
    model = state_dependent(TrajectoryModel(tiny_config(temporal=kind)))
    rng = np.random.default_rng(23)
    ctx, cats = scenes(rng, B=3, N=3, Tlen=4)
    per_context = rng.integers(0, 3, size=(3, 3))
    for categories in (cats, per_context):
        for k in (1, 4):
            got = model.rollout(ctx, categories, horizon=5, num_scenarios=k, seed=8,
                                mode=mode, incremental=incremental)
            want = reference_rollout(model, ctx, categories, 5, k, 8, mode, incremental)
            for field, ref in zip(("positions", "displacements", "components"), want):
                arr = np.stack([getattr(s, field) for s in got])
                assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes(), (field, k)


def test_rollout_raises_at_the_diverging_step():
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(24), B=3, N=3, Tlen=4)
    bad_ctx = ctx.copy()
    bad_ctx[1, 0, -1] = np.inf                  # only context 1 goes non-finite
    with np.errstate(invalid="ignore"), \
            pytest.raises(DataError, match="context 1, scenario 0, step 0"):
        model.rollout(bad_ctx, cats, horizon=4, num_scenarios=2)
    model.head.bias.data[:] = np.nan            # a poisoned head: every scene diverges
    for mode in ("sample", "mean"):
        with pytest.raises(DataError, match="context 0, scenario 0, step 0"):
            model.rollout(ctx, cats, horizon=4, num_scenarios=2, mode=mode)


# Bound on the traced peak of one small-preset rollout of 16 contexts x 20
# scenarios (320 rows). With the attention temporaries freed before each
# feedforward and the GELU written over its linear's output, it peaks at
# 3.94 MB; when they stay alive through the feedforward and the GELU takes a
# second array, at 5.61 MB.
ROLLOUT_PEAK_MB = 4.7


def test_rollout_memory_peak():
    model = TrajectoryModel(ModelConfig.small(seed=0))
    ctx, _ = scenes(np.random.default_rng(25), B=16, N=5, Tlen=8)
    cats = np.array([0, 1, 1, 2, 2], dtype=np.int64)
    model.rollout(ctx[:1], cats, horizon=2, num_scenarios=2)
    tracemalloc.start()
    try:
        model.rollout(ctx, cats, horizon=3, num_scenarios=20)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < ROLLOUT_PEAK_MB, f"{peak_mb:.2f} MB"


class TestConstantVelocity:
    def test_hand_case(self):
        ctx = np.zeros((1, 2, 3, 2), dtype=np.float32)
        ctx[0, 0] = [[0, 0], [1, 0], [2, 0]]          # moving +x at 1/frame
        ctx[0, 1] = [[5, 5], [5, 6], [5, 8]]          # last step +2 in y
        pred = constant_velocity_rollout(ctx, horizon=3)
        assert pred.shape == (1, 3, 2, 2)
        np.testing.assert_allclose(pred[0, :, 0, 0], [3, 4, 5])
        np.testing.assert_allclose(pred[0, :, 0, 1], [0, 0, 0])
        np.testing.assert_allclose(pred[0, :, 1, 1], [10, 12, 14])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(temporal="rnn")
        with pytest.raises(ConfigError):
            tiny_config(num_components=0)
        with pytest.raises(ConfigError):
            tiny_config(relation_dim=18)

    def test_round_trip(self):
        cfg = tiny_config(temporal="ssm")
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_rejects_unknown_keys(self):
        d = tiny_config().to_dict()
        d["dropout"] = 0.1
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(d)

    @pytest.mark.parametrize("cls, d", [
        (TrainConfig, {"epochs": "3"}),
        (TrainConfig, {"batch_size": True}),
        (TrainConfig, {"seed": -1}),
        (TrainConfig, {"lr_max": "0.1"}),
        (TrainConfig, {"lr_max": float("nan")}),
        (TrainConfig, {"lr_max": 0.0}),
        (TrainConfig, {"lr_max": -1e-3}),
        (ModelConfig, {"num_components": "x"}),
        (ModelConfig, {"relation_dim": 32.0}),
        (ModelConfig, {"attn_heads": 0}),
        (ModelConfig, {"mesh_blocks": -1}),
        (ModelConfig, {"seed": -1}),
        (ModelConfig, {"use_mesh": "no"}),
        (ModelConfig, {"use_mesh": 1}),
        (ModelConfig, {"temporal": ["ssm"]}),
        (ModelConfig, {"scene_hidden": 5}),
        (ModelConfig, {"scene_hidden": []}),
        (ModelConfig, {"scene_hidden": [128, 0]}),
        (ModelConfig, {"scene_hidden": [128, "64"]}),
    ], ids=lambda x: x.__name__ if isinstance(x, type) else repr(x))
    def test_rejects_bad_field_values(self, cls, d):
        with pytest.raises(ConfigError, match=next(iter(d))):
            config_from_dict(cls, d)

    def test_single_component_config_runs(self):
        model = TrajectoryModel(tiny_config(num_components=1))
        pos, cats = scenes(np.random.default_rng(15))
        loss, stats = model.loss(pos, cats)
        assert np.isfinite(loss.data)
        assert stats["entropy"] == 0.0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, pointnet_model):
        pos, cats = scenes(np.random.default_rng(16))
        before = pointnet_model.forward(pos, cats)[1].data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, pointnet_model, extra={"epoch": 3},
                        extra_arrays={"lr": np.array([0.1, 0.2], dtype=np.float32)})
        model2, extra, rest = load_model(path)
        after = model2.forward(pos, cats)[1].data
        assert np.array_equal(before, after)
        assert extra == {"epoch": 3}
        np.testing.assert_array_equal(rest["lr"], np.array([0.1, 0.2], dtype=np.float32))

    @staticmethod
    def serialize_with_copies(model, extra, extra_arrays) -> bytes:
        """The checkpoint bytes as the layout's reference writer makes them: ``tobytes()`` copies."""
        meta = {"format": 1, "model": model.config.to_dict(), "extra": extra}
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        arrays = {f"param/{name}": a for name, a in model.state_arrays().items()}
        arrays.update(extra_arrays)
        parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob,
                 struct.pack("<I", len(arrays))]
        for name in sorted(arrays):
            data = np.ascontiguousarray(arrays[name], dtype="<f4")
            nb = name.encode("utf-8")
            parts += [struct.pack("<H", len(nb)), nb, struct.pack("<B", data.ndim),
                      struct.pack(f"<{data.ndim}I", *data.shape), data.tobytes()]
        return b"".join(parts)

    def test_bytes_match_the_copying_writer(self, tmp_path, pointnet_model):
        # extra arrays that need converting: float64, a transposed view, a 0-d and an empty one
        grid = np.arange(12.0).reshape(3, 4)
        extra_arrays = {"f64": grid, "view": grid.astype(np.float32).T,
                        "scalar": np.array(2.5), "empty": np.zeros((0, 3), dtype=np.float32)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, pointnet_model, extra={"epoch": 3}, extra_arrays=extra_arrays)
        want = self.serialize_with_copies(pointnet_model, {"epoch": 3}, extra_arrays)
        assert path.read_bytes() == want

    def test_loaded_parameters_are_writable_copies(self, tmp_path, pointnet_model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, pointnet_model)
        _, arrays = load_checkpoint(p)
        assert not any(a.flags.writeable for a in arrays.values())
        model2, _, _ = load_model(p)
        for name, q in model2.named_parameters():
            assert q.data.dtype == np.float32 and q.data.flags.c_contiguous, name
            assert q.data.flags.writeable and q.data.flags.owndata, name
            assert np.array_equal(q.data, arrays[f"param/{name}"]), name

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTCKPT" + b"\x00" * 16)
        with pytest.raises(TrajectoryFormatError) as e:
            load_checkpoint(p)
        assert e.value.offset == 0

    def test_truncated(self, tmp_path, pointnet_model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, pointnet_model)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TrajectoryFormatError):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path, pointnet_model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, pointnet_model)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(TrajectoryFormatError):
            load_checkpoint(p)

    def test_wrong_shape_rejected_on_load(self, tmp_path, pointnet_model):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, pointnet_model)
        model2, _, _ = load_model(p)
        state = model2.state_arrays()
        first = next(iter(state))
        state[first] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ConfigError):
            model2.load_state_arrays(state)

    def test_failed_write_keeps_old_file(self, tmp_path, pointnet_model):
        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("disk went away")

        p = tmp_path / "m.ckpt"
        save_checkpoint(p, pointnet_model, extra={"epoch": 1})
        before = p.read_bytes()
        with pytest.raises(RuntimeError):
            # "~" sorts after "param/", so the parameters are written first
            save_checkpoint(p, pointnet_model, extra={"epoch": 2},
                            extra_arrays={"~late": Unwritable()})
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]


def two_array_checkpoint(tmp_path, model):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, extra_arrays={"aa": np.zeros(2, np.float32),
                                            "ab": np.ones(3, np.float32)})
    raw = bytearray(p.read_bytes())
    return p, raw, raw.find(b"ab\x01")          # name "ab", then ndim 1


class TestCheckpointCorruption:
    def test_name_not_utf8(self, tmp_path, pointnet_model):
        p, raw, at = two_array_checkpoint(tmp_path, pointnet_model)
        raw[at] = 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(TrajectoryFormatError) as e:
            load_checkpoint(p)
        assert e.value.offset == at

    def test_too_many_dims(self, tmp_path, pointnet_model):
        p, raw, at = two_array_checkpoint(tmp_path, pointnet_model)
        raw[at + 2] = 65
        p.write_bytes(bytes(raw))
        with pytest.raises(TrajectoryFormatError) as e:
            load_checkpoint(p)
        assert e.value.offset == at + 2

    def test_duplicate_name(self, tmp_path, pointnet_model):
        p, raw, at = two_array_checkpoint(tmp_path, pointnet_model)
        raw[at + 1] = ord("a")                      # "ab" -> "aa"
        p.write_bytes(bytes(raw))
        with pytest.raises(TrajectoryFormatError, match="duplicate") as e:
            load_checkpoint(p)
        assert e.value.offset == at

    def test_header_must_be_an_object(self, tmp_path):
        p = tmp_path / "m.ckpt"
        for blob in (b"[1]", b'{"format": 1}', b'{"format": 1, "model": {}, "extra": 3}'):
            p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob
                          + struct.pack("<I", 0))
            with pytest.raises(TrajectoryFormatError):
                load_checkpoint(p)

    def test_byte_mutation_fuzz(self, tmp_path, pointnet_model):
        # only TrajectoryFormatError may escape, whatever the damage; the
        # mutations mostly land on the structural bytes (lengths, names,
        # ndims, dims), since the float payloads accept any bit pattern
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, pointnet_model, extra={"epoch": 3})
        raw = p.read_bytes()
        load_checkpoint(p)
        spots = structural_offsets(raw)
        rng = np.random.default_rng(2024)
        rejected = 0
        for _ in range(1000):
            buf = bytearray(raw)
            for _ in range(rng.integers(1, 4)):
                at = int(spots[rng.integers(len(spots))] if rng.random() < 0.9
                         else rng.integers(len(buf)))
                at = min(at, len(buf) - 1)
                kind = rng.integers(4)
                if kind == 0:
                    buf[at] = int(rng.integers(256))
                elif kind == 1:
                    buf[at] ^= 1 << int(rng.integers(8))
                elif kind == 2:
                    del buf[at: at + int(rng.integers(1, 9))]
                else:
                    buf[at:at] = rng.integers(256, size=int(rng.integers(1, 9))).astype(
                        np.uint8).tobytes()
            p.write_bytes(bytes(buf))
            try:
                load_checkpoint(p)
            except TrajectoryFormatError:
                rejected += 1
        assert rejected > 700


def structural_offsets(raw: bytes) -> np.ndarray:
    """Offsets of every checkpoint byte outside the float32 payloads."""
    off = len(CHECKPOINT_MAGIC)
    (blob_len,) = struct.unpack_from("<I", raw, off)
    spots = list(range(off, off + 4 + blob_len + 4))
    (count,) = struct.unpack_from("<I", raw, off + 4 + blob_len)
    off += 4 + blob_len + 4
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, off)
        ndim = raw[off + 2 + name_len]
        head = 3 + name_len + 4 * ndim
        shape = struct.unpack_from(f"<{ndim}I", raw, off + 3 + name_len)
        spots.extend(range(off, off + head))
        off += head + 4 * math.prod(shape)
    return np.array(spots)
