"""The benchmark's workloads: generating parameters, set-up, timed units, checks.

Every input is generated from the workload seed; causaltraj receives only the
generated scenes, the model built from them and the CLI arguments a user
would pass. A unit is one whole ``train()`` epoch (training workloads) or
one ``sample`` + ``eval`` pass through ``cli.entrypoint`` (``sample_small``).
Correctness checks run outside the timed part of each unit.

The host's speed drifts by 20-30% over minutes (other tenants share its
cores), and a fixed pure-Python loop slows with it. ``host_probe`` times that
loop between units, and ``rate`` multiplies each unit's scenes per second by
``(probe / PROBE_REF_S) ** host_exponent``, the probe time around the unit
relative to the reference: the rate the unit would have had on the host at
reference speed. The exponent is how much the workload's unit time moves
with the probe's, measured between a quiet and a busy hour of a 2-vCPU VM
(probe median 23-28 ms against 35 ms): about 1 for the interpreter-bound
``train_small_ssm`` and ``sample_small``, about 0.5 for the GEMM-bound
``train_full``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import struct
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from causaltraj import cli, data, trainer
from causaltraj import model as model_mod

clock = time.perf_counter

# The learning-rate plan spans this many epochs, so every timed epoch stays
# inside the warm-up ramp whatever the run length.
PLANNED_EPOCHS = 1000
ROLLOUT_TOLERANCE = 1e-4
PROBE_LOOPS = 400_000
# The probe's median time over 90 minutes of runs on a 2-vCPU Xeon VM
# (Python 3.11). Any fixed value steadies the rate; the median keeps the
# scaled rate near the wall-clock one.
PROBE_REF_S = 0.030

WORKLOADS = {
    "train_full": dict(
        kind="train",
        host_exponent=0.5,
        why=(
            "Training, full preset (d=128, 4+4 blocks, M=8), pointnet, N=11, batch 8, "
            "24 frames, context 10, 16-scene epochs with checkpoint: large GEMMs, "
            "memory-bound"
        ),
        params=dict(preset="full", temporal="pointnet", players=10, scenes=16, batch=8,
                    frames=24, context=10, components=8, lr=0.02),
        tiny=dict(scenes=2, batch=2, frames=12),
    ),
    "train_small_ssm": dict(
        kind="train",
        host_exponent=1.0,
        why=(
            "Training, small preset, ssm, N=5, batch 32, 24 frames, context 10, "
            "128-scene epochs: small tensors, many tape nodes; encoder and per-node "
            "overhead show"
        ),
        params=dict(preset="small", temporal="ssm", players=4, scenes=128, batch=32,
                    frames=24, context=10, components=8, lr=0.02),
        tiny=dict(scenes=4, batch=4, frames=12),
    ),
    "sample_small": dict(
        kind="sample",
        host_exponent=1.0,
        why=(
            "CLI sample+eval, small preset, pointnet, untrained, 64 contexts x 20 "
            "scenarios x 16 steps: forward-only incremental rollout plus container I/O "
            "and scoring"
        ),
        params=dict(preset="small", temporal="pointnet", players=4, contexts=64,
                    scenarios=20, frames=24, context=8, components=4),
        tiny=dict(contexts=2, scenarios=2, frames=12),
    ),
}


@dataclass
class Unit:
    """One timed unit of work and the operations it attempted."""

    scenes: int = 0
    seconds: float = 0.0
    steps: int = 1            # training steps, or 1 for a sample pass
    probe_s: float = 0.0      # mean host_probe() time just before and just after
    attempted: int = 0
    failed: int = 0
    raised: bool = False
    notes: list = field(default_factory=list)


def model_config(p: dict, seed: int) -> model_mod.ModelConfig:
    """The config ``causaltraj train`` builds for these arguments."""
    common = dict(
        num_agents=p["players"] + 1,
        num_components=p["components"],
        context_frames=p["context"],
        future_frames=p["frames"] - p["context"],
        temporal=p["temporal"],
        seed=seed,
    )
    if p["preset"] == "small":
        return model_mod.ModelConfig.small(**common)
    return model_mod.ModelConfig(**common)


def rollout_consistency(model, contexts: np.ndarray, categories: np.ndarray, seed: int):
    """Incremental and full-recompute rollouts of a small slice must agree."""
    horizon = min(3, model.config.future_frames)
    kw = dict(horizon=horizon, num_scenarios=2, seed=seed)
    inc = model.rollout(contexts[:1], categories, incremental=True, **kw)
    full = model.rollout(contexts[:1], categories, incremental=False, **kw)
    diff = max(float(np.abs(a.positions - b.positions).max()) for a, b in zip(inc, full))
    return diff <= ROLLOUT_TOLERANCE, f"rollout incremental vs full: max diff {diff:.3g}"


class TrainWorkload:
    """Whole ``train()`` epochs with a checkpoint written after each, as the CLI does."""

    def __init__(self, params: dict, workdir):
        self.p = params
        self.ckpt = str(workdir / "model.ckpt")

    def setup(self, seed: int) -> None:
        p = self.p
        self.seed = seed
        self.ts = data.synth_forking_play(
            p["scenes"], frames=p["frames"], players=p["players"], seed=seed
        ).trajectories
        self.model = model_mod.TrajectoryModel(model_config(p, seed))
        self.cfg = trainer.TrainConfig(
            epochs=PLANNED_EPOCHS, batch_size=p["batch"], lr_max=p["lr"], seed=seed
        )
        self.optimizer = trainer.AdamW(self.model.named_parameters(), self.cfg)
        self.epoch = 0
        # Warm-up: one forward and backward pass, no update.
        positions, categories = next(data.epoch_batches(self.ts, p["batch"], seed, 0))
        loss, _ = self.model.loss(positions, categories)
        loss.backward()
        self.model.zero_grad()

    def run_unit(self) -> Unit:
        skipped = self.optimizer.skipped
        t0 = clock()
        history, _ = trainer.train(
            self.model, self.ts, self.cfg,
            start_epoch=self.epoch, end_epoch=self.epoch + 1,
            optimizer=self.optimizer, checkpoint_path=self.ckpt,
        )
        seconds = clock() - t0
        self.epoch += 1
        steps = len(history)
        nonfinite = sum(not math.isfinite(r["loss"]) for r in history)
        failed = min(steps, nonfinite + self.optimizer.skipped - skipped)
        unit = Unit(scenes=self.ts.count, seconds=seconds, steps=steps,
                    attempted=steps, failed=failed)
        if failed:
            unit.notes.append(f"epoch {self.epoch}: {nonfinite} non-finite losses, "
                              f"{self.optimizer.skipped - skipped} skipped updates")
        return unit

    def check_unit(self, unit: Unit) -> None:
        """Step outcomes are counted by ``run_unit`` itself."""

    @property
    def skipped(self) -> int:
        return self.optimizer.skipped

    def final_check(self):
        P = self.model.config.context_frames
        contexts = self.ts.agent_major()[:, :, :P]
        return rollout_consistency(
            self.model, contexts, self.ts.categories.astype(np.int64), self.seed
        )


def parse_container(path) -> np.ndarray:
    """Positions [S, T, N, 2] read from the container bytes by the documented layout."""
    with open(path, "rb") as f:
        raw = f.read()
    off = len(data.MAGIC)
    S, N, Tlen = struct.unpack_from("<III", raw, off)
    off += 12 + N + 4
    return np.frombuffer(raw, dtype="<f4", offset=off).reshape(S, Tlen, N, 2)


class SampleWorkload:
    """``causaltraj sample`` then ``causaltraj eval``, in-process through the CLI."""

    skipped = 0  # no optimizer runs

    def __init__(self, params: dict, workdir):
        self.p = params
        self.held = str(workdir / "held.ctrj")
        self.ckpt = str(workdir / "model.ckpt")
        self.pred = str(workdir / "pred.ctrj")

    def setup(self, seed: int) -> None:
        p = self.p
        self.seed = seed
        self.held_ts = data.synth_forking_play(
            p["contexts"], frames=p["frames"], players=p["players"], seed=seed
        ).trajectories
        data.write_trajectories(self.held, self.held_ts)
        model = model_mod.TrajectoryModel(model_config(p, seed))
        model_mod.save_checkpoint(self.ckpt, model)
        # Warm-up: one full pass, so the allocator has grown to the rollout's
        # working set before timing.
        self._pass()

    def _pass(self):
        argv = ["sample", "--model", self.ckpt, "--data", self.held, "--out", self.pred,
                "--scenarios", str(self.p["scenarios"]), "--seed", str(self.seed)]
        sample_out, eval_out = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(sample_out):
            rc_sample = cli.entrypoint(argv)
        with contextlib.redirect_stdout(eval_out):
            rc_eval = cli.entrypoint(["eval", "--pred", self.pred, "--gt", self.held])
        seconds = clock() - t0
        if rc_sample or rc_eval:
            raise RuntimeError(f"cli exit codes: sample {rc_sample}, eval {rc_eval}")
        return seconds, eval_out.getvalue()

    def run_unit(self) -> Unit:
        seconds, self.scores = self._pass()
        return Unit(scenes=self.p["contexts"] * self.p["scenarios"], seconds=seconds,
                    attempted=1)

    def check_unit(self, unit: Unit) -> None:
        p = self.p
        C, k, P = p["contexts"], p["scenarios"], p["context"]
        written = parse_container(self.pred)
        read = data.read_trajectories(self.pred)
        contexts = np.repeat(self.held_ts.positions[:C, :P], k, axis=0)
        scores = json.loads(self.scores)
        checks = (
            (written.shape == (C * k, p["frames"], p["players"] + 1, 2)
             and np.array_equal(read.positions, written)
             and np.array_equal(written[:, :P], contexts),
             "sampled container reads back equal to what was written"),
            (bool(np.isfinite(written).all()), "every sampled position is finite"),
            (scores["min_ade"] <= scores["min_jade"] and scores["min_fde"] <= scores["min_jfde"],
             "min_ade <= min_jade and min_fde <= min_jfde"),
        )
        for ok, what in checks:
            unit.attempted += 1
            if not ok:
                unit.failed += 1
                unit.notes.append(f"check failed: {what}")

    def final_check(self):
        model, _, _ = model_mod.load_model(self.ckpt)
        P = self.p["context"]
        contexts = self.held_ts.agent_major()[:, :, :P]
        return rollout_consistency(
            model, contexts, self.held_ts.categories.astype(np.int64), self.seed
        )


def make(name: str, tiny: bool, workdir):
    spec = WORKLOADS[name]
    params = dict(spec["params"], **(spec["tiny"] if tiny else {}))
    cls = TrainWorkload if spec["kind"] == "train" else SampleWorkload
    return cls(params, workdir), params


def run_guarded(workload, recording=None) -> Unit:
    """Run one unit; an exception counts as one failed operation."""
    try:
        if recording is None:
            unit = workload.run_unit()
        else:
            with recording():
                unit = workload.run_unit()
    except Exception:  # a benchmark boundary: record the failure and keep measuring
        traceback.print_exc()
        return Unit(attempted=1, failed=1, raised=True, notes=["unit raised"])
    try:
        workload.check_unit(unit)
    except Exception:
        traceback.print_exc()
        unit.attempted += 1
        unit.failed += 1
        unit.notes.append("checks raised")
    return unit


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    t0 = clock()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return clock() - t0


def measure(workload, seconds: float, min_units: int, recording=None) -> list:
    """Run units until ``seconds`` have passed and at least ``min_units`` ran.

    The host probe runs before the first unit and after each one, outside the
    units' timing.
    """
    units = []
    t0 = clock()
    before = host_probe()
    while len(units) < min_units or clock() - t0 < seconds:
        unit = run_guarded(workload, recording)
        after = host_probe()
        unit.probe_s = (before + after) / 2.0
        before = after
        units.append(unit)
    return units


def rate(units, host_exponent: float) -> float:
    """Median scenes per second over the units that ran to completion.

    Each unit's rate is scaled to the reference host speed by
    ``(probe_s / PROBE_REF_S) ** host_exponent``; exponent 0 gives the
    wall-clock rate.
    """
    done = [u for u in units if not u.raised and u.seconds > 0]
    if not done:
        raise RuntimeError("no unit ran to completion")
    return statistics.median(
        u.scenes / u.seconds * (u.probe_s / PROBE_REF_S) ** host_exponent for u in done
    )
