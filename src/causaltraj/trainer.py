"""Optimizer, schedule, and the teacher-forced training loop.

Training follows one fixed recipe; only ``epochs``, ``batch_size``, ``lr_max``
and ``seed`` are settable. The rest are the module constants below:

* AdamW with betas 0.9 / 0.999, eps 1e-8 and decoupled weight decay 0.01;
* global-norm gradient clipping at 1.0;
* a one-cycle learning-rate schedule with cosine ramps on both sides: 30% of
  the steps warm up from lr_max / 25, the rest anneal to lr_max / 1e4;
* an entropy bonus of weight 0.05 on the mixture weights
  (``mdn.ENTROPY_WEIGHT``).

Updates are skipped outright when any gradient is non-finite, leaving
parameters, moments, and the bias-correction counter untouched.

Epoch shuffles are derived from (seed, epoch), so resuming from a checkpoint
reproduces the exact remaining batch sequence without serialized RNG state.
A training checkpoint stores its ``TrainConfig``; one whose ``train`` entry
still names a setting of the recipe (``weight_decay``, ``clip_norm``, ...)
cannot be resumed and raises ``ConfigError``, but its model still loads.
"""

from __future__ import annotations

import ctypes
import functools
import math
import platform
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import model as model_mod
from .data import TrajectorySet, epoch_batches
from .errors import ConfigError, DataError
from .model import TrajectoryModel
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
CLIP_NORM = 1.0
WARMUP_FRAC = 0.3
START_DIV = 25.0
FINAL_DIV = 1e4
# AdamW updates each parameter in blocks of this many floats through three
# float32 scratch buffers of this size, so a block's passes run in cache.
ADAM_BLOCK = 1 << 16

# glibc's mallopt parameters (malloc.h) and the values ``keep_freed_heap`` sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20    # glibc's largest on 64-bit; larger values are refused
_TRIM_THRESHOLD = 256 << 20


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr_max: float = 0.02
    seed: int = 0

    def __post_init__(self):
        model_mod.check_config_fields(self)
        if self.lr_max <= 0:
            raise ConfigError(f"TrainConfig.lr_max must be > 0, got {self.lr_max!r}")


@functools.cache
def keep_freed_heap() -> bool:
    """Have glibc keep freed memory for reuse; once per process.

    A rollout step frees and reallocates arrays of a few hundred KB to a few
    MB, and a training step frees each intermediate result that no backward
    reads during its forward pass. With glibc's default thresholds those are
    mmap'ed, or the heap top is trimmed after they are freed, so each step
    faults in fresh zeroed pages (~150k minor faults in a 64-context x
    20-scenario sample pass). Raising the mmap threshold to 32 MB and the trim
    threshold to 256 MB keeps freed memory in the heap. Both are set: any
    mallopt call freezes the adaptive mmap threshold at its 128 KB start, so
    the trim threshold alone makes more faults, not fewer. A forked rollout
    worker inherits both. ``train`` and the CLI's ``entrypoint`` apply it; a
    library caller of ``rollout`` keeps its allocator.

    Returns True when glibc took both values; off glibc it does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mmap first: if glibc refuses it, the trim threshold is left alone too
    if not mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def onecycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine ramp up to lr_max, then cosine anneal down to lr_max/FINAL_DIV."""
    if total_steps <= 1:
        return cfg.lr_max
    warm = WARMUP_FRAC * (total_steps - 1)
    lo = cfg.lr_max / START_DIV
    end = cfg.lr_max / FINAL_DIV
    s = min(max(step, 0), total_steps - 1)
    if s <= warm:
        t = s / warm
        return lo + (cfg.lr_max - lo) * 0.5 * (1.0 - math.cos(math.pi * t))
    t = (s - warm) / (total_steps - 1 - warm)
    return end + (cfg.lr_max - end) * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Moment state keyed by parameter name; updates parameters and moments in place.

    The optimizer owns its parameters' arrays: ``step`` writes into each
    ``p.data`` (a C-contiguous float32 array) and into the moments, block by
    block through three scratch buffers. Apart from the float64 square of
    each gradient for the global norm, which also tells whether every
    gradient is finite, it makes no full-size array. So no parameter array
    may be one its caller still reads; ``Module.load_state_arrays`` copies
    what it is given.

    Every optimizer setting is a module constant, so ``cfg`` does not affect
    the updates; it stays in the signature because callers pass the run's
    ``TrainConfig``.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], cfg: TrainConfig):
        for name, p in named_params:
            if p.data.dtype != np.float32 or not p.data.flags.c_contiguous:
                raise ConfigError(f"parameter {name} is not a C-contiguous float32 array")
        self.named = named_params
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}
        self.t = 0
        self.skipped = 0
        self._scratch = np.empty((3, ADAM_BLOCK), dtype=np.float32)

    def step(self, lr: float) -> bool:
        """Clip by global norm and update; returns False on a skipped step."""
        grads = [(p.grad if p.grad is not None else np.zeros_like(p.data)).astype(
            np.float32, copy=False) for _, p in self.named]
        total = 0.0
        for g in grads:
            total += float(np.square(g, dtype=np.float64).sum())
        # float32 squares cannot overflow a float64 sum, so the global norm is
        # finite exactly when every gradient is, and it alone decides the skip
        if not math.isfinite(total):
            self.skipped += 1
            return False
        norm = math.sqrt(total)
        scale = np.float32(CLIP_NORM / norm) if norm > CLIP_NORM else None
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for (name, p), g in zip(self.named, grads):
            flat = [a.reshape(-1) for a in (p.data, self.m[name], self.v[name], g)]
            for lo in range(0, flat[0].size, ADAM_BLOCK):
                block = [a[lo:lo + ADAM_BLOCK] for a in flat]
                self._update_block(*block, scale, lr, bc1, bc2)
        return True

    def _update_block(self, p, m, v, g, scale, lr, bc1, bc2) -> None:
        """One block's clip and AdamW update, in place, in the unfused expression order.

        ``m += (1 - BETA1) * g``, ``v += (1 - BETA2) * (g * g)``, then
        ``p -= lr * ((m / bc1) / (sqrt(v / bc2) + ADAM_EPS) + WEIGHT_DECAY * p)``,
        each operation rounded to float32 exactly as the expression rounds it.
        """
        a, b, c = (buf[:p.size] for buf in self._scratch)
        if scale is not None:
            g = np.multiply(g, scale, out=a)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=b)
        v *= BETA2
        np.multiply(g, g, out=b)
        b *= 1.0 - BETA2
        v += b
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        np.divide(m, bc1, out=c)
        c /= b
        c += np.multiply(p, WEIGHT_DECAY, out=b)
        c *= lr
        p -= c

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
            self.m[name] = arrays[mk].astype(np.float32, order="C")
            self.v[name] = arrays[vk].astype(np.float32, order="C")
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
    if data.count == 0:
        raise DataError("data holds no scenes to train on")
    keep_freed_heap()
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
            loss, stats = model.loss(positions, categories)
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
                f"loss {float(np.mean(epoch_losses)):g} "
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
    next_epoch = extra.get("next_epoch", 0)
    if not isinstance(next_epoch, int) or isinstance(next_epoch, bool) or next_epoch < 0:
        raise ConfigError(f"checkpoint next_epoch must be an integer >= 0, got {next_epoch!r}")
    return model, optimizer, cfg, next_epoch
