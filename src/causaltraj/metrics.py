"""Displacement-error metrics over k sampled futures.

Two families: per-agent metrics (each agent may pick its best scenario
independently) and joint metrics (one scenario must serve the whole scene).
Both are derived from the same per-scenario, per-agent error table so the
orderings min_ade <= min_jade and min_fde <= min_jfde hold exactly, not just
up to rounding.

All arithmetic is float64. Shapes: predictions [k, F, N, 2] (time-major like
the trajectory container), ground truth [F, N, 2]; ``error_table`` and
``evaluate_batch`` also take a batch of C cases, [C, k, F, N, 2] and
[C, F, N, 2]. The single-case metrics score a batch of one.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

COURT_TO_METERS = 28.0 / 94.0  # 94 ft playing surface mapped onto a 28 m one


def error_table(pred, gt) -> np.ndarray:
    """Euclidean errors per (scenario, frame, agent): [k, F, N], or [C, k, F, N] for a batch."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.ndim not in (4, 5) or pred.shape[-1] != 2:
        raise ShapeError(f"predictions must be [(C,) k, F, N, 2], got {pred.shape}")
    if gt.shape != pred.shape[:-4] + pred.shape[-3:]:
        raise ShapeError(f"ground truth {gt.shape} does not match predictions {pred.shape}")
    d = pred - np.expand_dims(gt, -4)
    return np.sqrt((d * d).sum(axis=-1))


def min_ade(pred, gt) -> float:
    """Each agent independently keeps its best scenario; mean over agents."""
    return evaluate_batch([pred], [gt])["min_ade"]


def min_fde(pred, gt) -> float:
    return evaluate_batch([pred], [gt])["min_fde"]


def min_jade(pred, gt) -> float:
    """One scenario serves the whole scene; best scene-average error."""
    return evaluate_batch([pred], [gt])["min_jade"]


def min_jfde(pred, gt) -> float:
    return evaluate_batch([pred], [gt])["min_jfde"]


def average_jade(pred, gt) -> float:
    """Scene-average error averaged over all scenarios instead of the best."""
    return evaluate_batch([pred], [gt])["average_jade"]


def evaluate_batch(preds, gts, slice_frames: int | None = None, scale: float = 1.0) -> dict:
    """Each metric's mean over cases; preds [C, k, F, N, 2], gts [C, F, N, 2].

    All metrics come from one error table [C, k, F, N], optionally truncated
    to the first ``slice_frames`` (the final-displacement metrics then refer
    to the slice's last frame). ``scale`` multiplies every reported value,
    e.g. ``COURT_TO_METERS`` to convert court units.
    """
    preds = np.asarray(preds, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    if preds.ndim != 5 or gts.ndim != 4 or preds.shape[0] != gts.shape[0]:
        raise ShapeError(f"batch shapes {preds.shape} / {gts.shape} inconsistent")
    if 0 in preds.shape:
        raise ShapeError(f"nothing to score in predictions {preds.shape}")
    C, k, F = preds.shape[:3]
    if slice_frames is not None:
        if not 1 <= slice_frames <= F:
            raise ShapeError(f"slice_frames {slice_frames} out of range for horizon {F}")
        preds = preds[:, :, :slice_frames]
        gts = gts[:, :slice_frames]
    err = error_table(preds, gts)
    ade, fde = err.mean(axis=2), err[:, :, -1]                     # [C, k, N] each
    per_case = {                                                   # [C] each
        "min_ade": ade.min(axis=1).mean(axis=1),
        "min_fde": fde.min(axis=1).mean(axis=1),
        "min_jade": ade.mean(axis=2).min(axis=1),
        "min_jfde": fde.mean(axis=2).min(axis=1),
        "average_jade": ade.reshape(C, -1).mean(axis=1),
    }
    out = {key: float(np.mean(v * scale)) for key, v in per_case.items()}
    return {"cases": C, "k": k, "horizon": err.shape[2], **out}
