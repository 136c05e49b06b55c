"""Optimizer, schedule, and the teacher-forced training loop.

Decoupled weight decay, global-norm gradient clipping, and a one-cycle
learning-rate schedule with cosine ramps on both sides. Updates are skipped
outright when any gradient is non-finite, leaving parameters, moments, and
the bias-correction counter untouched.

Epoch shuffles are derived from (seed, epoch), so resuming from a checkpoint
reproduces the exact remaining batch sequence without serialized RNG state.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import model as model_mod
from .data import TrajectorySet, epoch_batches
from .errors import ConfigError
from .mdn import ENTROPY_WEIGHT
from .model import TrajectoryModel
from .tensor import Tensor


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr_max: float = 0.02
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    warmup_frac: float = 0.3
    start_div: float = 25.0
    final_div: float = 1e4
    entropy_weight: float = ENTROPY_WEIGHT
    seed: int = 0

    def __post_init__(self):
        model_mod.check_config_fields(self)
        if not 0.0 < self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac must be in (0, 1)")


def onecycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine ramp up to lr_max, then cosine anneal down to lr_max/final_div."""
    if total_steps <= 1:
        return cfg.lr_max
    warm = cfg.warmup_frac * (total_steps - 1)
    lo = cfg.lr_max / cfg.start_div
    end = cfg.lr_max / cfg.final_div
    s = min(max(step, 0), total_steps - 1)
    if s <= warm:
        t = s / warm if warm > 0 else 1.0
        return lo + (cfg.lr_max - lo) * 0.5 * (1.0 - math.cos(math.pi * t))
    t = (s - warm) / (total_steps - 1 - warm)
    return end + (cfg.lr_max - end) * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Moment state keyed by parameter name; applies updates in place."""

    def __init__(self, named_params: list[tuple[str, Tensor]], cfg: TrainConfig):
        self.named = named_params
        self.cfg = cfg
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}
        self.t = 0
        self.skipped = 0

    def step(self, lr: float) -> bool:
        """Clip by global norm and update; returns False on a skipped step."""
        cfg = self.cfg
        grads = []
        for name, p in self.named:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                self.skipped += 1
                return False
            grads.append(g.astype(np.float32, copy=False))
        total = 0.0
        for g in grads:
            total += float(np.square(g, dtype=np.float64).sum())
        norm = math.sqrt(total)
        if cfg.clip_norm > 0.0 and norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
            grads = [g * np.float32(scale) for g in grads]
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for (name, p), g in zip(self.named, grads):
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            p.data = p.data - lr * (update + cfg.weight_decay * p.data)
        return True

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.m:
            out[f"opt/m/{name}"] = self.m[name]
            out[f"opt/v/{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ConfigError(f"optimizer step count adam_t must be an integer >= 0, got {t!r}")
        for name in self.m:
            mk, vk = f"opt/m/{name}", f"opt/v/{name}"
            if mk not in arrays or vk not in arrays:
                raise ConfigError(f"checkpoint is missing optimizer moments for {name}")
            for key in (mk, vk):
                if arrays[key].shape != self.m[name].shape:
                    raise ConfigError(f"optimizer moment shape mismatch for {key}")
            self.m[name] = arrays[mk].astype(np.float32)
            self.v[name] = arrays[vk].astype(np.float32)
        self.t = t


def train(
    model: TrajectoryModel,
    data: TrajectorySet,
    cfg: TrainConfig,
    start_epoch: int = 0,
    end_epoch: int | None = None,
    optimizer: AdamW | None = None,
    checkpoint_path=None,
    log=None,
) -> tuple[list[dict], AdamW]:
    """Run epochs [start_epoch, end_epoch or cfg.epochs); returns (history, optimizer).

    The learning-rate schedule always spans the full cfg.epochs plan, so a
    run stopped at ``end_epoch`` and resumed from its checkpoint retraces the
    uninterrupted run exactly. History holds one record per step: step index,
    lr, loss, nll, entropy. When ``checkpoint_path`` is set, the model plus
    optimizer state land there after every epoch, tagged with the next epoch
    to run.
    """
    if data.frames <= model.config.context_frames:
        raise ConfigError(
            f"data has {data.frames} frames but context is {model.config.context_frames}"
        )
    named = model.named_parameters()
    if optimizer is None:
        optimizer = AdamW(named, cfg)
    steps_per_epoch = math.ceil(data.count / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    stop = cfg.epochs if end_epoch is None else min(end_epoch, cfg.epochs)
    history: list[dict] = []
    step = start_epoch * steps_per_epoch
    for epoch in range(start_epoch, stop):
        t0 = time.time()
        epoch_losses = []
        for positions, categories in epoch_batches(data, cfg.batch_size, cfg.seed, epoch):
            lr = onecycle_lr(step, total_steps, cfg)
            model.zero_grad()
            loss, stats = model.loss(positions, categories, entropy_weight=cfg.entropy_weight)
            loss.backward()
            optimizer.step(lr)
            rec = {
                "step": step,
                "epoch": epoch,
                "lr": lr,
                "loss": float(loss.data),
                "nll": stats["nll"],
                "entropy": stats["entropy"],
            }
            history.append(rec)
            epoch_losses.append(rec["loss"])
            step += 1
        if log is not None:
            log(
                f"epoch {epoch + 1}/{stop} "
                f"loss {float(np.mean(epoch_losses)):.4f} "
                f"lr {lr:.2e} ({time.time() - t0:.1f}s)"
            )
        if checkpoint_path is not None:
            save_training_checkpoint(checkpoint_path, model, optimizer, cfg, epoch + 1)
    return history, optimizer


def save_training_checkpoint(
    path, model: TrajectoryModel, optimizer: AdamW, cfg: TrainConfig, next_epoch: int
) -> None:
    extra = {
        "next_epoch": int(next_epoch),
        "adam_t": int(optimizer.t),
        "train": asdict(cfg),
    }
    model_mod.save_checkpoint(path, model, extra=extra, extra_arrays=optimizer.state_arrays())


def load_training_checkpoint(path) -> tuple[TrajectoryModel, AdamW, TrainConfig, int]:
    """Rebuild (model, optimizer, train config, next epoch) from a checkpoint."""
    model, extra, arrays = model_mod.load_model(path)
    if "train" not in extra:
        raise ConfigError("checkpoint has no training state to resume from")
    cfg = model_mod.config_from_dict(TrainConfig, extra["train"])
    optimizer = AdamW(model.named_parameters(), cfg)
    optimizer.load_state_arrays(arrays, extra.get("adam_t", 0))
    return model, optimizer, cfg, int(extra.get("next_epoch", 0))
