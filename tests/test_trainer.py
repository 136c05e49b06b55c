"""Optimizer arithmetic, schedule shape, training loop, resume."""

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import causaltraj
from causaltraj import tensor as T
from causaltraj import trainer as trainer_mod
from causaltraj.errors import ConfigError
from causaltraj.model import ModelConfig, TrajectoryModel, save_checkpoint
from causaltraj.data import epoch_batches, synth_forking_play
from causaltraj.tensor import Tensor
from causaltraj.trainer import (
    ADAM_BLOCK,
    ADAM_EPS,
    BETA1,
    BETA2,
    CLIP_NORM,
    WARMUP_FRAC,
    WEIGHT_DECAY,
    AdamW,
    TrainConfig,
    load_training_checkpoint,
    onecycle_lr,
    train,
)


def tiny_model(seed=0):
    cfg = ModelConfig(
        num_agents=3, num_components=2, context_frames=4, future_frames=8,
        temporal_hidden=16, temporal_dim=16, relation_dim=16, attn_heads=4,
        std_blocks=1, mesh_blocks=1, std_ff=32, mesh_ff=32, category_dim=8,
        agent_channels=16, scene_hidden=(32, 32), ssm_state=4, ssm_headdim=16,
        seed=seed,
    )
    return TrajectoryModel(cfg)


def probe_cfg(**overrides):
    base = dict(epochs=3, batch_size=8, lr_max=2e-3, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


class TestSchedule:
    def test_endpoints_and_peak(self):
        cfg = TrainConfig(lr_max=0.02)
        total = 11
        warm = int(WARMUP_FRAC * (total - 1))
        assert onecycle_lr(0, total, cfg) == pytest.approx(0.02 / 25, rel=1e-12)
        assert onecycle_lr(warm, total, cfg) == pytest.approx(0.02, rel=1e-12)
        assert onecycle_lr(total - 1, total, cfg) == pytest.approx(0.02 / 1e4, rel=1e-12)

    def test_rises_then_falls(self):
        cfg = TrainConfig(lr_max=0.02)
        lrs = [onecycle_lr(s, 101, cfg) for s in range(101)]
        peak = int(np.argmax(lrs))
        assert peak == 30
        assert all(b >= a for a, b in zip(lrs[:peak], lrs[1 : peak + 1]))
        assert all(b <= a for a, b in zip(lrs[peak:], lrs[peak + 1 :]))

    def test_clamps_out_of_range_steps(self):
        cfg = TrainConfig(lr_max=0.02)
        assert onecycle_lr(-3, 10, cfg) == onecycle_lr(0, 10, cfg)
        assert onecycle_lr(99, 10, cfg) == onecycle_lr(9, 10, cfg)

    def test_degenerate_single_step(self):
        assert onecycle_lr(0, 1, TrainConfig(lr_max=0.5)) == 0.5


class TestAdamW:
    def one_param(self, value, grad):
        p = Tensor(np.array(value, dtype=np.float32), requires_grad=True)
        p.grad = np.array(grad, dtype=np.float32)
        return p, AdamW([("p", p)], TrainConfig())

    def test_first_step_matches_hand_formula(self):
        # |g| < CLIP_NORM: no clip, only the decoupled decay joins the Adam step
        p, opt = self.one_param([1.0, -2.0], [0.3, -0.1])
        x = np.array([1.0, -2.0])
        g = np.array([0.3, -0.1])
        assert opt.step(0.01)
        m_hat = (1 - BETA1) * g / (1 - BETA1)
        v_hat = (1 - BETA2) * g * g / (1 - BETA2)
        want = x - 0.01 * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + WEIGHT_DECAY * x)
        np.testing.assert_allclose(p.data, want, rtol=1e-6)
        assert opt.t == 1

    def test_three_steps_match_reference(self):
        rng = np.random.default_rng(0)
        val = rng.normal(size=5).astype(np.float32)
        grads = [rng.normal(size=5).astype(np.float32) for _ in range(3)]
        p, opt = self.one_param(val, grads[0])
        m = np.zeros(5)
        v = np.zeros(5)
        x = val.astype(np.float64)
        clipped = 0
        for t, g32 in enumerate(grads, start=1):
            g = g32.astype(np.float64)
            norm = np.sqrt((g * g).sum())
            if norm > CLIP_NORM:
                g = g * (CLIP_NORM / norm)
                clipped += 1
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            mh = m / (1 - BETA1 ** t)
            vh = v / (1 - BETA2 ** t)
            x = x - 0.02 * (mh / (np.sqrt(vh) + ADAM_EPS) + WEIGHT_DECAY * x)
            p.grad = g32
            opt.step(0.02)
        assert clipped == 3                     # every step exercises the clip
        np.testing.assert_allclose(p.data, x, rtol=1e-5)
        np.testing.assert_allclose(opt.m["p"], m, rtol=1e-5)
        np.testing.assert_allclose(opt.v["p"], v, rtol=1e-5)

    def test_global_norm_clip(self):
        p, opt = self.one_param([0.0], [30.0 * CLIP_NORM])
        opt.step(0.1)
        # the first moment sees the clipped gradient CLIP_NORM
        assert opt.m["p"][0] == pytest.approx((1 - BETA1) * CLIP_NORM, rel=1e-6)
        # first-step update is ~sign(g); decay of a zero parameter adds nothing
        assert p.data[0] == pytest.approx(-0.1, rel=1e-4)

    def test_skip_on_non_finite(self):
        p, opt = self.one_param([1.0], [np.nan])
        before = p.data.copy()
        assert not opt.step(0.1)
        assert opt.skipped == 1
        assert opt.t == 0
        np.testing.assert_array_equal(p.data, before)
        assert np.all(opt.m["p"] == 0.0)

    @pytest.mark.parametrize("bad", [[np.inf], [-np.inf], [np.nan], [np.inf, -np.inf, np.nan]])
    def test_skip_on_non_finite_in_a_later_parameter(self, bad):
        # the global norm alone decides the skip: no per-gradient check, and no
        # warning from squaring or summing a non-finite value
        rng = np.random.default_rng(7)
        named = [(name, Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True))
                 for name in ("first", "middle", "last")]
        named[0][1].grad = rng.normal(size=6).astype(np.float32) * 1e30   # finite, clipped
        named[1][1].grad = rng.normal(size=6).astype(np.float32)
        g = rng.normal(size=6).astype(np.float32)
        g[1:1 + len(bad)] = bad
        named[2][1].grad = g
        opt = AdamW(named, TrainConfig())
        before = [p.data.copy() for _, p in named]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not opt.step(0.1)
        assert opt.skipped == 1 and opt.t == 0
        for (name, p), b in zip(named, before):
            assert p.data.tobytes() == b.tobytes()
            assert not opt.m[name].any() and not opt.v[name].any()

    def test_decoupled_decay_without_gradient(self):
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([("p", p)], TrainConfig())
        opt.step(0.1)
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * WEIGHT_DECAY))

    def test_state_round_trip_requires_all_moments(self):
        p, opt = self.one_param([1.0], [0.5])
        opt.step(0.1)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        p2, opt2 = self.one_param([1.0], [0.5])
        opt2.load_state_arrays(arrays, t=1)
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        assert opt2.t == 1
        with pytest.raises(ConfigError):
            opt2.load_state_arrays({"opt/m/p": arrays["opt/m/p"]}, t=1)


class UnfusedAdamW:
    """AdamW as whole-array expressions: the update the blocked, in-place step replaces.

    Holds its own copies of the parameters; every expression makes a full-size
    array, and each step replaces the parameter arrays.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.data = {name: a.copy() for name, a in params.items()}
        self.m = {name: np.zeros_like(a) for name, a in params.items()}
        self.v = {name: np.zeros_like(a) for name, a in params.items()}
        self.t = 0

    def step(self, grads: dict, lr: float) -> bool:
        gs = []
        for name, p in self.data.items():
            g = grads[name] if grads[name] is not None else np.zeros_like(p)
            if not np.isfinite(g).all():
                return False
            gs.append(g.astype(np.float32, copy=False))
        total = 0.0
        for g in gs:
            total += float(np.square(g, dtype=np.float64).sum())
        norm = math.sqrt(total)
        if norm > CLIP_NORM:
            scale = CLIP_NORM / norm
            gs = [g * np.float32(scale) for g in gs]
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, g in zip(self.data, gs):
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            self.data[name] = self.data[name] - lr * (update + WEIGHT_DECAY * self.data[name])
        return True


def test_adamw_matches_the_unfused_update_bitwise():
    rng = np.random.default_rng(12)
    shapes = {"big": (ADAM_BLOCK // 64 + 3, 64), "w": (5, 6), "b": (7,), "unused": (3, 4)}
    init = {name: rng.normal(0.0, 0.5, size=s).astype(np.float32) for name, s in shapes.items()}
    params = {name: Tensor(a.copy(), requires_grad=True) for name, a in init.items()}
    opt = AdamW(list(params.items()), TrainConfig())
    ref = UnfusedAdamW(init)
    # gradient scale per step: the global norm is ~300 at 1.0 (clipped) and ~0.3
    # at 1e-3 (not clipped); NaN makes both optimizers skip the step
    for step, (scale, lr) in enumerate([(1.0, 0.02), (1e-3, 0.01), (np.nan, 0.02),
                                        (1e-3, 0.005), (1.0, 0.015), (1.0, 1e-4)]):
        grads = {name: scale * rng.normal(size=s).astype(np.float32)
                 for name, s in shapes.items() if name != "unused"}
        grads["unused"] = None              # a parameter that got no gradient
        for name, p in params.items():
            p.grad = grads[name]
        norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum())
                             for g in grads.values() if g is not None))
        assert np.isnan(scale) or (norm > CLIP_NORM) == (scale == 1.0)
        assert opt.step(lr) == ref.step(grads, lr), step
        assert opt.t == ref.t
        for name, p in params.items():
            assert p.data.tobytes() == ref.data[name].tobytes(), (step, name)
            assert opt.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
            assert opt.v[name].tobytes() == ref.v[name].tobytes(), (step, name)
    assert opt.skipped == 1 and opt.t == 5


# A bound on the traced peak of one full-preset AdamW.step with clipping active.
# Updating whole arrays, the step peaked at 27.5 MB (a clipped copy of every
# gradient, full-size temporaries and a new array for every parameter) and
# left 12.5 MB allocated. In blocks, in place, it peaks at 4.8 MB: the float64
# square of the largest gradient (589,824 floats) for the global norm.
ADAM_STEP_PEAK_MB = 10.0


def test_adamw_step_updates_in_place_without_full_size_arrays():
    model = TrajectoryModel(ModelConfig(
        num_agents=11, num_components=8, context_frames=10, future_frames=14, seed=0))
    named = model.named_parameters()
    rng = np.random.default_rng(0)
    for _, p in named:
        p.grad = rng.normal(size=p.shape).astype(np.float32)   # global norm ~1,770
    opt = AdamW(named, TrainConfig())
    arrays = [p.data for _, p in named]
    tracemalloc.start()
    try:
        assert opt.step(1e-3)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < ADAM_STEP_PEAK_MB, f"{peak / 1e6:.2f} MB"
    assert left < 4096, f"{left} bytes left allocated"
    assert all(p.data is a for (_, p), a in zip(named, arrays))


def test_loaded_parameters_never_write_into_the_callers_arrays():
    model = tiny_model(seed=3)
    state = {k: v.copy() for k, v in tiny_model(seed=4).state_arrays().items()}
    first_matrix = next(k for k, v in state.items() if v.ndim == 2)
    state[first_matrix] = np.asfortranarray(state[first_matrix])
    before = {k: v.copy() for k, v in state.items()}
    model.load_state_arrays(state)
    named = model.named_parameters()
    assert not any(np.shares_memory(p.data, state[name]) for name, p in named)
    for _, p in named:
        p.grad = np.ones_like(p.data)
    assert AdamW(named, TrainConfig()).step(0.1)
    assert all(state[k].tobytes() == before[k].tobytes() for k in state)


def test_adamw_rejects_a_parameter_it_cannot_update_in_place():
    for data in (np.zeros(3), np.zeros((4, 3), dtype=np.float32).T):
        with pytest.raises(ConfigError, match="C-contiguous float32"):
            AdamW([("p", Tensor(data, requires_grad=True))], TrainConfig())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    data = synth_forking_play(32, frames=12, players=2, seed=1).trajectories
    model = tiny_model(seed=2)
    cfg = probe_cfg()
    path = tmp_path_factory.mktemp("ckpt") / "train.ckpt"
    history, opt = train(model, data, cfg, checkpoint_path=path)
    return data, model, cfg, history, opt, path


class TestTrainLoop:
    def test_loss_decreases(self, run):
        _, _, _, history, _, _ = run
        per_epoch = {}
        for rec in history:
            per_epoch.setdefault(rec["epoch"], []).append(rec["loss"])
        first = np.mean(per_epoch[0])
        last = np.mean(per_epoch[max(per_epoch)])
        assert last < first

    def test_history_schema_and_lrs(self, run):
        data, _, cfg, history, _, _ = run
        steps = math.ceil(data.count / cfg.batch_size) * cfg.epochs
        assert len(history) == steps
        for rec in history:
            assert set(rec) == {"step", "epoch", "lr", "loss", "nll", "entropy"}
            assert rec["lr"] == onecycle_lr(rec["step"], steps, cfg)
            assert np.isfinite(rec["loss"])

    def test_optimizer_counted_every_step(self, run):
        _, _, _, history, opt, _ = run
        assert opt.t + opt.skipped == len(history)

    def test_resume_reproduces_tail(self, run, tmp_path):
        data, _, cfg, history, _, _ = run
        # same plan, stopped after epoch 2, resumed from its checkpoint
        model_b = tiny_model(seed=2)
        path = tmp_path / "b.ckpt"
        hist_b1, _ = train(model_b, data, cfg, end_epoch=2, checkpoint_path=path)
        model_c, opt_c, cfg_c, next_epoch = load_training_checkpoint(path)
        assert next_epoch == 2
        hist_b2, _ = train(
            model_c, data, cfg_c, start_epoch=next_epoch, optimizer=opt_c
        )
        joined = hist_b1 + hist_b2
        assert len(joined) == len(history)
        for a, b in zip(history, joined):
            assert abs(a["loss"] - b["loss"]) <= 1e-6, a["step"]

    def test_checkpoint_holds_train_state(self, run):
        _, _, cfg, _, opt, path = run
        model2, opt2, cfg2, next_epoch = load_training_checkpoint(path)
        assert next_epoch == cfg.epochs
        assert cfg2.lr_max == cfg.lr_max
        assert opt2.t == opt.t
        for name in opt.m:
            np.testing.assert_array_equal(opt2.m[name], opt.m[name])

    def test_bad_train_dict_rejected(self, run, tmp_path):
        _, model, cfg, _, opt, _ = run
        p = tmp_path / "future.ckpt"
        for train, match in (({**dataclasses.asdict(cfg), "label_smoothing": 0.1},
                              "label_smoothing"),
                             ([1, 2], "object")):
            save_checkpoint(p, model, extra={"next_epoch": 1, "adam_t": opt.t, "train": train},
                            extra_arrays=opt.state_arrays())
            with pytest.raises(ConfigError, match=match):
                load_training_checkpoint(p)

    def test_bad_optimizer_state_rejected(self, run, tmp_path):
        # a wrong-shape second moment used to load and then fail the first step
        _, model, cfg, _, opt, _ = run
        p = tmp_path / "bad_opt.ckpt"
        extra = {"next_epoch": 1, "adam_t": opt.t, "train": dataclasses.asdict(cfg)}
        name = next(iter(opt.v))
        for key in (f"opt/m/{name}", f"opt/v/{name}"):
            arrays = {**opt.state_arrays(), key: np.zeros(1, dtype=np.float32)}
            save_checkpoint(p, model, extra=extra, extra_arrays=arrays)
            with pytest.raises(ConfigError, match=key):
                load_training_checkpoint(p)
        for t in ("3", 1.5, -1, True, None):
            save_checkpoint(p, model, extra={**extra, "adam_t": t},
                            extra_arrays=opt.state_arrays())
            with pytest.raises(ConfigError, match="step count"):
                load_training_checkpoint(p)

    def test_plain_checkpoint_cannot_resume(self, tmp_path):
        model = tiny_model()
        p = tmp_path / "plain.ckpt"
        save_checkpoint(p, model)
        with pytest.raises(ConfigError):
            load_training_checkpoint(p)

    def test_rejects_short_scenes(self):
        data = synth_forking_play(4, frames=12, players=2, seed=0).trajectories
        model = tiny_model()
        model.config.context_frames = 12
        with pytest.raises(ConfigError):
            train(model, data, probe_cfg())
        model.config.context_frames = 4

    def test_the_epoch_log_prints_a_diverged_loss_in_short_form(self, monkeypatch):
        data = synth_forking_play(8, frames=12, players=2, seed=0).trajectories
        model = tiny_model()
        loss_of = model.loss

        def diverged(positions, categories):     # the gradients stay finite
            loss, stats = loss_of(positions, categories)
            return T.cast(loss, np.float64) + 1e136, stats

        monkeypatch.setattr(model, "loss", diverged)
        lines = []
        history, _ = train(model, data, probe_cfg(epochs=1), log=lines.append)
        mean = float(np.mean([rec["loss"] for rec in history]))
        assert mean == 1e136 and len(lines) == 1
        assert lines[0].split(" loss ")[1].split()[0] == "1e+136"


def traced_step_peak_mb(cfg: ModelConfig, count: int, players: int) -> float:
    """Traced peak of one training step's forward and backward, on one batch of
    ``count`` 24-frame scenes."""
    ts = synth_forking_play(count, frames=24, players=players, seed=0).trajectories
    model = TrajectoryModel(cfg)
    positions, categories = next(epoch_batches(ts, count, 0, 0))
    tracemalloc.start()
    try:
        loss, _ = model.loss(positions, categories)
        loss.backward()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# Bounds on the traced peak of one small training step. Keeping only the arrays
# backward reads, the step peaks at 28.2 MB (pointnet) and 31.6 MB (ssm, whose
# blocks rebuild the slices of their input projection and the conv's padded
# input as well as what silu, mul and ssm_scan can recompute; 39.1 MB when they
# keep the slices and the padded input, 51.2 MB when they also keep the rest); a
# tape whose nodes hold their parent tensors, and so every intermediate result
# until backward, peaks at 61.5 MB and 99.1 MB.
STEP_PEAK_MB = {"pointnet": 45.0, "ssm": 37.5}


@pytest.mark.parametrize("temporal", sorted(STEP_PEAK_MB))
def test_training_step_memory_peak(temporal):
    peak_mb = traced_step_peak_mb(ModelConfig.small(
        num_agents=5, num_components=8, context_frames=10, future_frames=14,
        temporal=temporal, seed=0), count=32, players=4)
    assert peak_mb < STEP_PEAK_MB[temporal], f"{temporal}: {peak_mb:.2f} MB"


# Bounds on the traced peak of one full-preset training step (N = 11, batch 8,
# 24 frames, the train_full benchmark shape). pointnet: with each linear keeping
# a norm output as a recipe that rebuilds it from the norm's xhat, it peaks at
# 82.2 MB; with the 16 norm outputs kept as arrays, at 94.9 MB. ssm: 93.8 MB,
# 110.9 MB when the blocks keep the slices of their input projection and the
# conv's padded input, and 144.1 MB when silu, mul and ssm_scan also keep what
# they can rebuild.
FULL_STEP_PEAK_MB = 89.5
FULL_SSM_STEP_PEAK_MB = 109.9


def full_config(temporal: str) -> ModelConfig:
    return ModelConfig(num_agents=11, num_components=8, context_frames=10, future_frames=14,
                       temporal=temporal, seed=0)


def test_full_training_step_memory_peak():
    peak_mb = traced_step_peak_mb(full_config("pointnet"), count=8, players=10)
    assert peak_mb < FULL_STEP_PEAK_MB, f"{peak_mb:.2f} MB"


def test_full_ssm_training_step_memory_peak():
    peak_mb = traced_step_peak_mb(full_config("ssm"), count=8, players=10)
    assert peak_mb < FULL_SSM_STEP_PEAK_MB, f"{peak_mb:.2f} MB"


# Three one-epoch train() calls; prints the minor faults of each.
TRAIN_FAULT_PROBE = """
import json, resource
from causaltraj import data, model, trainer
ts = data.synth_forking_play(32, frames=24, players=4, seed=1).trajectories
m = model.TrajectoryModel(model.ModelConfig.small(
    num_agents=5, num_components=8, context_frames=10, future_frames=14,
    temporal="ssm", seed=1))
cfg = trainer.TrainConfig(epochs=100, batch_size=32, seed=1)
opt, faults = None, []
for epoch in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, opt = trainer.train(m, ts, cfg, start_epoch=epoch, end_epoch=epoch + 1, optimizer=opt)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"faults": faults, "kept": trainer.keep_freed_heap()}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_training_epochs_reuse_freed_heap():
    # with glibc's default thresholds each later epoch here refaults ~4k pages
    src = os.path.dirname(os.path.dirname(causaltraj.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", TRAIN_FAULT_PROBE], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["kept"]
    assert max(report["faults"][1:]) < 1000, report["faults"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
@pytest.mark.parametrize("refused", [None, -3, -1])
def test_the_allocator_setting_needs_both_values(refused, monkeypatch):
    # mmap threshold, then trim threshold; a refused mmap threshold leaves the
    # trim threshold alone, and any refusal reads False
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return int(param != refused)

    class Libc:
        pass

    libc = Libc()
    libc.mallopt = mallopt
    monkeypatch.setattr(trainer_mod.ctypes, "CDLL", lambda name: libc)
    kept = trainer_mod.keep_freed_heap.__wrapped__()
    assert kept is (refused is None)
    assert calls == ([(-3, 32 << 20)] if refused == -3
                     else [(-3, 32 << 20), (-1, 256 << 20)])
