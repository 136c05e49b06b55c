"""Full model: shapes, loss framing, rollout semantics, checkpoints."""

import contextlib
import dataclasses
import json
import math
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from causaltraj import mdn
from causaltraj import model as model_mod
from causaltraj import tensor as T
from causaltraj.errors import (CausalTrajError, ConfigError, DataError, ShapeError,
                               TrajectoryFormatError)
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
            assert s.components.shape == (5,)
            # the sample holds the future only; its context stays with the caller
            assert [f.name for f in dataclasses.fields(s)] == [
                "context_index", "scenario_index", "positions", "components"
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

    def test_recursive_position_consistency(self, pointnet, monkeypatch):
        # each step moves the positions before it by the displacement drawn
        ctx, cats = self.contexts(np.random.default_rng(10))
        drawn, sample = [], mdn.sample_displacements
        monkeypatch.setattr(mdn, "sample_displacements",
                            lambda *args: drawn.append(sample(*args)) or drawn[-1])
        (s,) = pointnet.rollout(ctx[:1], cats, horizon=6, seed=2)
        assert len(drawn) == 6
        assert np.array_equal(s.positions[0], ctx[0, :, -1] + drawn[0][0][0])
        for u in range(1, 6):
            assert np.array_equal(s.positions[u], s.positions[u - 1] + drawn[u][0][0])

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
        feats = frame_features(ctx)
        with T.no_grad():
            lat = model.temporal(Tensor(feats.reshape(2 * 3, 4, -1))).data[:, -1]
        lat = lat.reshape(2, 3, -1)
        f_t = feats[:1, :, -1]
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

    @pytest.mark.parametrize("kind", ["pointnet", "ssm"])
    def test_recompute_never_steps_the_encoder(self, kind, rollout_models, monkeypatch):
        # the reference re-encodes the whole sequence: it must not replay the
        # incremental path it is checked against
        model = rollout_models[kind]
        ctx, cats = self.contexts(np.random.default_rng(14))
        calls = []
        encode = type(model.temporal).__call__
        monkeypatch.setattr(type(model.temporal), "__call__",
                            lambda enc, x: calls.append(x.shape) or encode(enc, x))
        monkeypatch.setattr(model.temporal, "step", lambda x_t, state: pytest.fail("stepped"))
        model.rollout(ctx, cats, horizon=5, num_scenarios=2, incremental=False)
        assert len(calls) >= 5

    @pytest.mark.parametrize("kind", ["pointnet", "ssm"])
    def test_incremental_never_encodes_a_sequence(self, kind, rollout_models, monkeypatch):
        model = rollout_models[kind]
        ctx, cats = self.contexts(np.random.default_rng(14))
        monkeypatch.setattr(type(model.temporal), "__call__",
                            lambda enc, x: pytest.fail("encoded a whole sequence"))
        out = model.rollout(ctx, cats, horizon=5, num_scenarios=2, incremental=True)
        assert len(out) == 4

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


class WorkerLog:
    """A list that the caller and forked rollout workers append to alike: each item
    is one JSON line appended to a file, so a worker's items reach the caller."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def append(self, item) -> None:
        with open(self.path, "a") as f:
            f.write(json.dumps(item) + "\n")

    def items(self) -> list:
        return [tuple(x) if isinstance(x, list) else x
                for x in map(json.loads, self.path.read_text().splitlines())]

    def clear(self) -> None:
        self.path.write_text("")


def wait_for(path, timeout: float = 20.0) -> bool:
    """Wait until ``path`` exists (another process's signal); False on timeout."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def assert_reaped(log) -> None:
    """Every worker the rollout forked since ``count_chunks`` has ended and been
    reaped. (Other tests' helpers, such as multiprocessing's resource tracker,
    can outlive them, so this does not ask for no child at all.)"""
    for pid in log.forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def count_chunks(monkeypatch, tmp_path, rows: int, workers: int) -> WorkerLog:
    """Set ``ROLLOUT_ROWS`` to rows and the rollout's workers to workers; returns a
    log that gains (pid, start, stop) each time a chunk repeats its contexts'
    encoder state, in the process that runs the chunk.

    A chunk repeats its slice through nested calls that all see the same
    slice, so compare ``chunks_run`` of the log. ``log.forked`` gains the pid
    of each worker forked.
    """
    log = WorkerLog(tmp_path / "chunks.jsonl")
    log.forked = []
    repeat, fork = model_mod._repeat_per_context, os.fork

    def recording_fork():
        pid = fork()
        if pid:
            log.forked.append(pid)
        return pid

    def spy(state, contexts, k, chunk):
        log.append((os.getpid(), chunk.start, chunk.stop))
        return repeat(state, contexts, k, chunk)

    monkeypatch.setattr(model_mod, "ROLLOUT_ROWS", rows)
    monkeypatch.setattr(model_mod, "_rollout_workers", lambda: workers)
    monkeypatch.setattr(model_mod, "_repeat_per_context", spy)
    monkeypatch.setattr(os, "fork", recording_fork)
    return log


def chunks_run(log: WorkerLog) -> list:
    """The (start, stop) context bounds of the chunks a ``count_chunks`` log saw."""
    return sorted({(lo, hi) for _, lo, hi in log.items()})


@pytest.mark.parametrize("cpus, blas, workers", [
    (2, 2, 1),                                 # BLAS on both CPUs, OpenBLAS's default
    (2, 1, 2),
    (1, 1, 1),
    (8, 1, 2),                                 # at most ROLLOUT_WORKERS
    (8, 4, 2),
    (8, 6, 1),
])
def test_rollout_workers_leave_each_blas_thread_a_cpu(cpus, blas, workers, monkeypatch):
    monkeypatch.setattr(model_mod, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(model_mod, "_blas_threads", lambda cpus: blas)
    assert model_mod._rollout_workers() == workers


def test_blas_threads_are_what_numpys_blas_reports(monkeypatch):
    if model_mod._blas_thread_query() is None:
        pytest.skip("numpy's BLAS reports no thread count")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    code = "from causaltraj import model; print(model._blas_threads(8))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["1"], proc.stderr
    monkeypatch.setattr(model_mod, "_blas_thread_query", lambda: None)
    assert model_mod._blas_threads(3) == 3     # a BLAS that cannot say: one per CPU


@pytest.mark.parametrize("files, cpus", [
    ({}, 4),                                   # no cgroup files
    ({"max": "max 100000\n"}, 4),
    ({"max": "100000 100000\n"}, 1),
    ({"max": "150000 100000\n"}, 1),          # whole CPUs only
    ({"max": "50000 100000\n"}, 1),
    ({"max": "800000 100000\n"}, 4),          # at most the affinity
    ({"quota": "-1\n", "period": "100000\n"}, 4),
    ({"quota": "200000\n", "period": "100000\n"}, 2),
    ({"max": "max 100000\n", "quota": "100000\n", "period": "100000\n"}, 4),
])
def test_usable_cpus_keep_to_the_cgroup_quota(files, cpus, tmp_path, monkeypatch):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(model_mod, "CPU_QUOTA_FILES", (
        (str(tmp_path / "max"),), (str(tmp_path / "quota"), str(tmp_path / "period"))))
    monkeypatch.setattr(model_mod.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    assert model_mod._usable_cpus() == cpus


@pytest.mark.parametrize("contexts, runs, workers, rows, plan", [
    (3, 1, 1, 640, [[(0, 3)]]),                            # one chunk
    (3, 1, 1, 2, [[(0, 1), (1, 3)]]),                      # 3 rows in chunks of ~2
    (3, 4, 1, 2, [[(0, 1), (1, 2), (2, 3)]]),              # at most one chunk per context
    (3, 1, 1, 7, [[(0, 3)]]),
    (3, 4, 1, 7, [[(0, 1), (1, 3)]]),
    (3, 1, 2, 7, [[(0, 3)]]),                              # one chunk is never split
    (3, 1, 2, 2, [[(0, 1)], [(1, 2), (2, 3)]]),            # chunks of ~1 row, two workers
    (3, 4, 2, 7, [[(0, 1)], [(1, 2), (2, 3)]]),
    (7, 4, 1, 10, [[(0, 2), (2, 4), (4, 7)]]),             # 28 rows in chunks of ~10
    (7, 4, 2, 20, [[(0, 2)], [(2, 4), (4, 7)]]),           # or of ~20 / 2: the same split
    (64, 20, 1, 640, [[(0, 32), (32, 64)]]),               # sample_small's shape
    (64, 20, 2, 640, [[(0, 16), (16, 32)], [(32, 48), (48, 64)]]),
    (64, 20, 4, 640, [[(0, 16), (16, 32)], [(32, 48), (48, 64)]]),     # 2 chunks of 640
    (704, 1, 2, 640, [[(0, 234)], [(234, 469), (469, 704)]]),
    (8, 2, 4, 4, [[(0, 1), (1, 2)], [(2, 3), (3, 4)], [(4, 5), (5, 6)], [(6, 7), (7, 8)]]),
])
def test_rollout_plan_splits_the_contexts_evenly(contexts, runs, workers, rows, plan):
    assert model_mod._rollout_plan(contexts, runs, workers, rows) == plan


# 2 rows: 3 contexts x 1 row split 1 + 2, x 4 rows one context per chunk;
# 7 rows: 3 x 1 in one chunk, 3 x 4 split 1 + 2. With two workers every split
# of more than one chunk takes one context per chunk; a call of one chunk
# never forks, so ROLLOUT_ROWS runs in the caller.
@pytest.mark.parametrize("rows, workers", [(model_mod.ROLLOUT_ROWS, 1), (2, 1), (7, 1),
                                           (2, 2), (7, 2)])
@pytest.mark.parametrize("mode", ["sample", "mean"])
@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "recompute"])
@pytest.mark.parametrize("kind", ["pointnet", "ssm"])
def test_rollout_matches_per_scene_reference(kind, incremental, mode, rows, workers,
                                             monkeypatch, tmp_path):
    # the prefix and step 0 run once per context and are repeated per scenario,
    # and the later steps run in chunks of contexts, in the caller or in two
    # workers; every output byte must equal the loop that ran them all per
    # scene row, in one batch
    model = state_dependent(TrajectoryModel(tiny_config(temporal=kind)))
    rng = np.random.default_rng(23)
    ctx, cats = scenes(rng, B=3, N=3, Tlen=4)
    per_context = rng.integers(0, 3, size=(3, 3))
    log = count_chunks(monkeypatch, tmp_path, rows, workers)
    for categories in (cats, per_context):
        for k in (1, 4):
            log.clear()
            got = model.rollout(ctx, categories, horizon=5, num_scenarios=k, seed=8,
                                mode=mode, incremental=incremental)
            runs = k if mode == "sample" else 1
            plan = model_mod._rollout_plan(3, runs, workers, rows)
            assert chunks_run(log) == [chunk for chunks in plan for chunk in chunks]
            assert len({pid for pid, _, _ in log.items()}) == len(plan)
            assert_reaped(log)
            want = reference_rollout(model, ctx, categories, 5, k, 8, mode, incremental)
            for field, ref in (("positions", want[0]), ("components", want[2])):
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


@pytest.mark.parametrize("workers", [1, 2])
def test_rollout_names_the_global_context_of_a_later_chunk(workers, monkeypatch, tmp_path):
    # context 2 is row 1 of the serial chunk [1, 3), and with two workers the
    # only context of the second worker's last chunk: its DataError comes back
    # from the worker, naming the context of the whole call
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(24), B=3, N=3, Tlen=4)
    ctx[2, 1, -1] = np.inf
    log = count_chunks(monkeypatch, tmp_path, 4, workers)
    splits = [(0, 1), (1, 3)] if workers == 1 else [(0, 1), (1, 2), (2, 3)]
    for mode, k, rows in (("sample", 2, 4), ("mean", 4, 2)):       # 6 and 3 rows
        monkeypatch.setattr(model_mod, "ROLLOUT_ROWS", rows)
        log.clear()
        with np.errstate(invalid="ignore"), \
                pytest.raises(DataError, match="context 2, scenario 0, step 0"):
            model.rollout(ctx, cats, horizon=4, num_scenarios=k, mode=mode)
        assert chunks_run(log) == splits
        assert_reaped(log)


def draws_per_chunk(monkeypatch, context: int, step: int, action, log=None) -> None:
    """Call ``action`` in ``mdn.sample_displacements`` when the chunk that starts at
    ``context`` draws for ``step``; ``log``, if given, gains the chunk's first
    context at each of its draws (steps sampled).

    A chunk's generators are keyed by the global (context, scenario) pair, so
    its first generator's spawn key names the chunk's first context. A chunk
    runs in one process, which counts its draws.
    """
    counts = {}
    sample = mdn.sample_displacements

    def spy(rngs, lg, mn, ch):
        first = int(rngs[0].bit_generator.seed_seq.spawn_key[0])
        u = counts[first] = counts.get(first, 0) + 1
        if log is not None:
            log.append(first)
        dx, comp = sample(rngs, lg, mn, ch)
        if first == context and u - 1 == step:
            action(dx)
        return dx, comp

    monkeypatch.setattr(mdn, "sample_displacements", spy)


def draws(log: WorkerLog) -> dict:
    """Draws per chunk, keyed by its first context, from a ``draws_per_chunk`` log."""
    counts = {}
    for first in log.items():
        counts[first] = counts.get(first, 0) + 1
    return counts


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_chunk_stops_the_later_chunks(workers, monkeypatch, tmp_path):
    # eight chunks of one context each; with two workers, contexts 0-3 in the
    # first and 4-7 in the second. Context 4 diverges at step 0; context 1 at
    # step 3, and with two workers only after context 4's error is out. The
    # serial loop raises context 1's error, so the workers must too; no chunk
    # after a failing one in its worker draws
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(27), B=8, N=3, Tlen=4)
    ctx[4, 0, -1] = np.inf
    chunks = count_chunks(monkeypatch, tmp_path, 2 * workers, workers)
    log, failed = WorkerLog(tmp_path / "draws.jsonl"), tmp_path / "failed"

    def diverge(dx):
        if workers == 2:
            assert wait_for(failed), "context 4's chunk did not fail"
            time.sleep(0.2)                    # time for its error to reach the caller
        dx[0, 0, 0] = np.nan

    draws_per_chunk(monkeypatch, 4, 0, lambda dx: failed.touch(), log)
    draws_per_chunk(monkeypatch, 1, 3, diverge)
    with np.errstate(invalid="ignore"), \
            pytest.raises(DataError, match="context 1, scenario 0, step 3"):
        model.rollout(ctx, cats, horizon=8, num_scenarios=2)
    assert draws(log) == ({0: 8, 1: 4} if workers == 1 else {0: 8, 1: 4, 4: 1})
    assert len(chunks.forked) == (0 if workers == 1 else 2)
    assert_reaped(chunks)


@contextlib.contextmanager
def sigint_marks(seen):
    """Handle SIGINT as Python does, by raising ``KeyboardInterrupt``, but create
    the file ``seen`` first, so that a worker can wait for it."""
    def handler(signum, frame):
        seen.touch()
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGINT, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def test_an_interrupt_stops_the_workers(monkeypatch, tmp_path):
    # the second worker sends Ctrl-C to the caller at its third step and goes on
    # once the caller has taken it: it ends that step and takes no other. The
    # call raises once both workers are reaped, and leaves the grad flag on
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(27), B=8, N=3, Tlen=4)
    chunks = count_chunks(monkeypatch, tmp_path, 4, 2)
    log, seen = WorkerLog(tmp_path / "draws.jsonl"), tmp_path / "seen"

    def interrupt(dx):
        os.kill(os.getppid(), signal.SIGINT)
        assert wait_for(seen), "the caller did not take the interrupt"
        time.sleep(0.2)                        # time for the caller to stop the chunks

    draws_per_chunk(monkeypatch, 4, 2, interrupt, log)
    with sigint_marks(seen), pytest.raises(KeyboardInterrupt):
        model.rollout(ctx, cats, horizon=8, num_scenarios=2)
    counts = draws(log)
    assert counts[4] == 3 and not {5, 6, 7} & set(counts), counts
    assert_reaped(chunks)
    assert T._grad_enabled


def test_an_interrupt_wins_over_an_earlier_failure(monkeypatch, tmp_path):
    # context 0's chunk, in the first worker, fails at step 2 while context 4's,
    # in the second, is in its step 1; then the second worker sends Ctrl-C to
    # the caller. The call raises the interrupt, not context 0's DataError
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(27), B=8, N=3, Tlen=4)
    chunks = count_chunks(monkeypatch, tmp_path, 4, 2)
    second, failed, seen = tmp_path / "second", tmp_path / "failed", tmp_path / "seen"

    def diverge(dx):
        assert wait_for(second), "context 4's chunk did not reach step 1"
        failed.touch()
        dx[0, 0, 0] = np.nan

    def interrupt(dx):
        second.touch()
        assert wait_for(failed), "context 0's chunk did not fail"
        time.sleep(0.2)                        # time for its error to reach the caller
        os.kill(os.getppid(), signal.SIGINT)
        assert wait_for(seen), "the caller did not take the interrupt"

    draws_per_chunk(monkeypatch, 0, 2, diverge)
    draws_per_chunk(monkeypatch, 4, 1, interrupt)
    with sigint_marks(seen), np.errstate(invalid="ignore"), pytest.raises(KeyboardInterrupt):
        model.rollout(ctx, cats, horizon=8, num_scenarios=2)
    assert failed.exists()
    assert_reaped(chunks)
    assert T._grad_enabled


class TwoArgs(Exception):
    """Pickles, but does not unpickle: pickle rebuilds it from its one message."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def unpicklable():
    class Local(Exception):                    # a local class does not pickle
        pass
    return Local("the lock is held")


@pytest.mark.parametrize("make, raised, message", [
    (lambda: SystemExit(3), SystemExit, None),
    (lambda: TwoArgs("x", "y"), CausalTrajError, "TwoArgs: x and y"),
    (unpicklable, CausalTrajError, "Local: the lock is held"),
    (lambda: ShapeError("bad shape"), ShapeError, "bad shape"),
])
def test_a_workers_error_comes_back_to_the_caller(make, raised, message, monkeypatch,
                                                   tmp_path):
    # the second worker raises at its first draw. It ends through os._exit, so
    # it never runs the test code after the call, not even for SystemExit; an
    # error that does not come back whole is a CausalTrajError naming it
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(27), B=8, N=3, Tlen=4)
    chunks = count_chunks(monkeypatch, tmp_path, 4, 2)
    caller, after = os.getpid(), WorkerLog(tmp_path / "after.jsonl")

    def fail(dx):
        raise make()

    draws_per_chunk(monkeypatch, 4, 0, fail)
    with pytest.raises(raised, match=message) as info:
        model.rollout(ctx, cats, horizon=4, num_scenarios=2)
    after.append(os.getpid())
    time.sleep(0.1)
    assert after.items() == [caller]
    if raised is SystemExit:
        assert info.value.code == 3
    assert_reaped(chunks)


def test_a_worker_that_ends_without_a_result_fails_the_call(monkeypatch, tmp_path):
    # a worker killed mid-chunk sends nothing: its rows were never written
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(27), B=8, N=3, Tlen=4)
    chunks = count_chunks(monkeypatch, tmp_path, 4, 2)
    caller = os.getpid()

    def die(dx):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    draws_per_chunk(monkeypatch, 4, 1, die)
    with pytest.raises(CausalTrajError, match="ended without a result"):
        model.rollout(ctx, cats, horizon=4, num_scenarios=2)
    assert_reaped(chunks)


def test_a_second_thread_keeps_the_rollout_in_the_caller(monkeypatch, tmp_path):
    # a fork from a process with another thread alive can deadlock in the child:
    # the caller runs every chunk, in chunks of ~ROLLOUT_ROWS rows, with the same bytes
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(29), B=12, N=3, Tlen=4)
    serial = model.rollout(ctx, cats, horizon=4, num_scenarios=3, seed=2)
    log = count_chunks(monkeypatch, tmp_path, 12, 2)
    forks = []
    monkeypatch.setattr(model_mod.os, "fork", lambda: forks.append(1) or pytest.fail("forked"))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = model.rollout(ctx, cats, horizon=4, num_scenarios=3, seed=2)
    finally:
        release.set()
        other.join()
    assert not forks
    assert chunks_run(log) == [(0, 4), (4, 8), (8, 12)]          # 36 rows in chunks of ~12
    assert {pid for pid, _, _ in log.items()} == {os.getpid()}
    for field in ("positions", "components"):
        assert (np.stack([getattr(s, field) for s in got]).tobytes()
                == np.stack([getattr(s, field) for s in serial]).tobytes()), field


@pytest.mark.parametrize("failing", [{0}, {0, 1}])
def test_a_failing_fork_runs_that_workers_chunks_in_the_caller(failing, monkeypatch, tmp_path):
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(29), B=12, N=3, Tlen=4)
    serial = model.rollout(ctx, cats, horizon=4, num_scenarios=3, seed=2)
    log = count_chunks(monkeypatch, tmp_path, 12, 2)
    fork, calls = os.fork, []

    def flaky_fork():
        calls.append(1)
        if len(calls) - 1 in failing:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(model_mod.os, "fork", flaky_fork)
    got = model.rollout(ctx, cats, horizon=4, num_scenarios=3, seed=2)
    assert len(calls) == 2
    plan = model_mod._rollout_plan(12, 3, 2, 12)
    ran_in = {(lo, hi): pid for pid, lo, hi in log.items()}
    for j, chunks in enumerate(plan):
        for chunk in chunks:
            assert (ran_in[chunk] == os.getpid()) == (j in failing), (j, chunk)
    assert_reaped(log)
    for field in ("positions", "components"):
        assert (np.stack([getattr(s, field) for s in got]).tobytes()
                == np.stack([getattr(s, field) for s in serial]).tobytes()), field


def worker_grad_flags(monkeypatch, model, tmp_path) -> WorkerLog:
    """A log that gains ``T._grad_enabled`` at each head step a forked worker runs."""
    log, caller, step = WorkerLog(tmp_path / "flags.jsonl"), os.getpid(), model._step_params

    def spy(*args):
        if os.getpid() != caller:
            log.append(T._grad_enabled)
        return step(*args)

    monkeypatch.setattr(model, "_step_params", spy)
    return log


def test_forked_rollout_leaves_the_grad_flag(monkeypatch, tmp_path):
    model = TrajectoryModel(tiny_config())
    ctx, cats = scenes(np.random.default_rng(28), B=6, N=3, Tlen=4)
    bad_ctx = ctx.copy()
    bad_ctx[4, 0, -1] = np.inf
    log = count_chunks(monkeypatch, tmp_path, 4, 2)
    flags = worker_grad_flags(monkeypatch, model, tmp_path)
    assert T._grad_enabled
    model.rollout(ctx, cats, horizon=3, num_scenarios=2)
    assert len(chunks_run(log)) == 6 and T._grad_enabled
    with np.errstate(invalid="ignore"), pytest.raises(DataError, match="context 4"):
        model.rollout(bad_ctx, cats, horizon=3, num_scenarios=2)
    assert T._grad_enabled
    with T.no_grad():
        model.rollout(ctx, cats, horizon=3, num_scenarios=2)
        assert not T._grad_enabled
    assert T._grad_enabled
    assert flags.items() and not any(flags.items())    # no worker step ran with the flag on
    assert_reaped(log)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_rollout_workers_give_the_serial_bytes(workers, monkeypatch, tmp_path):
    # chunks of two rows' worth of contexts, run in the caller or in two or four
    # workers (more than the CPUs here): every byte equals the one-chunk call's
    model = state_dependent(TrajectoryModel(tiny_config(temporal="ssm")))
    ctx, cats = scenes(np.random.default_rng(29), B=12, N=3, Tlen=4)
    modes = ("sample", "mean")
    serial = {mode: model.rollout(ctx, cats, horizon=6, num_scenarios=3, seed=2, mode=mode)
              for mode in modes}
    log = count_chunks(monkeypatch, tmp_path, 2, workers)
    for mode in modes:
        runs = 3 if mode == "sample" else 1
        monkeypatch.setattr(model_mod, "ROLLOUT_ROWS", 2 * runs)
        log.clear()
        got = model.rollout(ctx, cats, horizon=6, num_scenarios=3, seed=2, mode=mode)
        plan = model_mod._rollout_plan(12, runs, workers, 2 * runs)
        assert len(plan) == workers
        assert chunks_run(log) == [chunk for chunks in plan for chunk in chunks]
        assert len({pid for pid, _, _ in log.items()}) == workers
        assert_reaped(log)
        for field in ("positions", "components"):
            assert (np.stack([getattr(s, field) for s in got]).tobytes()
                    == np.stack([getattr(s, field) for s in serial[mode]]).tobytes()), \
                (mode, field)


# Bounds on the traced peak of one small-preset rollout of C contexts x 20
# scenarios, 3 steps, by rollout workers, then C. With two workers tracemalloc
# traces the caller only: the prefix, step 0 and what the workers' rows are
# repeated from; the workers' chunks and the outputs (a shared mapping) are not
# in it. At 16 contexts (320 rows, one chunk, no worker), with the attention
# temporaries freed before each feedforward and the GELU written over its
# linear's output, it peaks at 3.94 MB; when they stay alive through the
# feedforward and the GELU takes a second array, at 5.61 MB. At 64 contexts
# (1,280 rows) in two serial chunks of 640 it peaks at 7.2 MB; in two chunks of
# 640 at once, at 14.1; in two workers, the caller at 3.0. At 128 contexts
# (2,560 rows) in four serial chunks of 640, at 7.6; as one batch of 2,560 rows,
# at 27.1 MB; in two workers, the caller at 5.0.
ROLLOUT_PEAK_MB = {1: {16: 4.7, 128: 12.0}, 2: {16: 4.7, 64: 9.5, 128: 12.0}}


@pytest.mark.parametrize("workers", sorted(ROLLOUT_PEAK_MB))
def test_rollout_memory_peak(workers, monkeypatch):
    monkeypatch.setattr(model_mod, "_rollout_workers", lambda: workers)
    model = TrajectoryModel(ModelConfig.small(seed=0))
    bounds = ROLLOUT_PEAK_MB[workers]
    ctx, _ = scenes(np.random.default_rng(25), B=max(bounds), N=5, Tlen=8)
    cats = np.array([0, 1, 1, 2, 2], dtype=np.int64)
    model.rollout(ctx[:1], cats, horizon=2, num_scenarios=2)
    for contexts, bound in bounds.items():
        tracemalloc.start()
        try:
            model.rollout(ctx[:contexts], cats, horizon=3, num_scenarios=20)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < bound, f"{contexts} contexts: {peak_mb:.2f} MB"


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
