"""Displacement metrics: hand cases, orderings, slicing, scaling."""

import numpy as np
import pytest

from causaltraj import metrics
from causaltraj.errors import ShapeError


def random_case(rng, k=5, F=6, N=3):
    pred = rng.normal(size=(k, F, N, 2))
    gt = rng.normal(size=(F, N, 2))
    return pred, gt


def test_crossed_specialists_hand_case():
    # two scenarios, two agents, one frame; each scenario nails one agent
    # and misses the other by 1. per-agent picking gets 0, joint gets 0.5.
    gt = np.zeros((1, 2, 2))
    pred = np.zeros((2, 1, 2, 2))
    pred[0, 0, 1, 0] = 1.0
    pred[1, 0, 0, 0] = 1.0
    assert metrics.min_ade(pred, gt) == 0.0
    assert metrics.min_jade(pred, gt) == 0.5
    assert metrics.min_fde(pred, gt) == 0.0
    assert metrics.min_jfde(pred, gt) == 0.5
    assert metrics.average_jade(pred, gt) == 0.5


def test_single_scenario_collapses_families():
    rng = np.random.default_rng(0)
    pred, gt = random_case(rng, k=1)
    assert metrics.min_ade(pred, gt) == metrics.min_jade(pred, gt)
    assert metrics.min_fde(pred, gt) == metrics.min_jfde(pred, gt)
    assert metrics.min_jade(pred, gt) == metrics.average_jade(pred, gt)


def test_per_agent_never_worse_than_joint():
    rng = np.random.default_rng(1)
    for _ in range(50):
        pred, gt = random_case(rng, k=int(rng.integers(1, 8)))
        assert metrics.min_ade(pred, gt) <= metrics.min_jade(pred, gt)
        assert metrics.min_fde(pred, gt) <= metrics.min_jfde(pred, gt)
        assert metrics.min_jade(pred, gt) <= metrics.average_jade(pred, gt)


def test_more_scenarios_never_hurt():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred, gt = random_case(rng, k=7)
        for k in range(1, 7):
            sub = pred[:k]
            assert metrics.min_ade(pred, gt) <= metrics.min_ade(sub, gt)
            assert metrics.min_jade(pred, gt) <= metrics.min_jade(sub, gt)


def evaluate_one(pred, gt, **kw):
    """evaluate_batch over a single case (C = 1)."""
    return metrics.evaluate_batch(pred[None], gt[None], **kw)


def test_exact_prediction_zeroes_everything():
    rng = np.random.default_rng(3)
    _, gt = random_case(rng)
    pred = np.concatenate([rng.normal(size=(4, 6, 3, 2)), gt[None]], axis=0)
    out = evaluate_one(pred, gt)
    assert out["min_ade"] == 0.0
    assert out["min_jade"] == 0.0
    assert out["min_fde"] == 0.0
    assert out["min_jfde"] == 0.0


def test_error_table_is_euclidean():
    gt = np.zeros((1, 1, 2))
    pred = np.array([[[[3.0, 4.0]]]])
    assert metrics.error_table(pred, gt)[0, 0, 0] == 5.0
    assert metrics.error_table(pred[None], gt[None])[0, 0, 0, 0] == 5.0


def test_slice_frames_changes_fde_anchor():
    gt = np.zeros((4, 1, 2))
    pred = np.zeros((1, 4, 1, 2))
    pred[0, :, 0, 0] = [1.0, 2.0, 3.0, 4.0]
    full = evaluate_one(pred, gt)
    half = evaluate_one(pred, gt, slice_frames=2)
    assert full["min_fde"] == 4.0
    assert half["min_fde"] == 2.0
    assert half["min_ade"] == 1.5
    assert half["horizon"] == 2
    with pytest.raises(ShapeError):
        evaluate_one(pred, gt, slice_frames=5)
    with pytest.raises(ShapeError):
        evaluate_one(pred, gt, slice_frames=0)


def test_scale_is_linear():
    rng = np.random.default_rng(4)
    pred, gt = random_case(rng)
    base = evaluate_one(pred, gt)
    scaled = evaluate_one(pred, gt, scale=metrics.COURT_TO_METERS)
    for key in ("min_ade", "min_fde", "min_jade", "min_jfde", "average_jade"):
        assert scaled[key] == pytest.approx(base[key] * 28.0 / 94.0, rel=1e-12)


def test_court_to_meters_value():
    assert metrics.COURT_TO_METERS == pytest.approx(0.297872, abs=1e-6)


def test_shape_validation():
    with pytest.raises(ShapeError):
        metrics.min_ade(np.zeros((2, 3, 2)), np.zeros((3, 1, 2)))
    with pytest.raises(ShapeError):
        metrics.min_ade(np.zeros((2, 3, 1, 2)), np.zeros((3, 2, 2)))
    with pytest.raises(ShapeError):               # a batch is not one case
        metrics.min_ade(np.zeros((1, 2, 3, 1, 2)), np.zeros((1, 3, 1, 2)))


def test_evaluate_batch_means_cases():
    rng = np.random.default_rng(5)
    preds = rng.normal(size=(3, 4, 5, 2, 2))
    gts = rng.normal(size=(3, 5, 2, 2))
    out = metrics.evaluate_batch(preds, gts)
    assert out["cases"] == 3
    assert out["min_jade"] == pytest.approx(
        np.mean([metrics.min_jade(p, g) for p, g in zip(preds, gts)]))
    with pytest.raises(ShapeError):
        metrics.evaluate_batch(preds, gts[:2])


def per_case_reference(preds, gts, slice_frames=None, scale=1.0):
    """The per-case loop evaluate_batch replaced, one case at a time."""
    cases = []
    for pred, gt in zip(preds.astype(np.float64), gts.astype(np.float64)):
        pred, gt = pred[:, :slice_frames], gt[:slice_frames]
        d = pred - gt[None]
        err = np.sqrt((d * d).sum(axis=-1))                    # [k, F, N]
        ade, fde = err.mean(axis=1), err[:, -1, :]
        cases.append({
            "min_ade": float(ade.min(axis=0).mean()) * scale,
            "min_fde": float(fde.min(axis=0).mean()) * scale,
            "min_jade": float(ade.mean(axis=1).min()) * scale,
            "min_jfde": float(fde.mean(axis=1).min()) * scale,
            "average_jade": float(ade.mean()) * scale,
        })
    return {key: float(np.mean([c[key] for c in cases])) for key in cases[0]}


@pytest.mark.parametrize("slice_frames, scale", [
    (None, 1.0), (8, 1.0), (None, metrics.COURT_TO_METERS), (8, metrics.COURT_TO_METERS),
])
def test_evaluate_batch_bit_equal_to_per_case_loop(slice_frames, scale):
    # the size of one 64-context x 20-scenario x 16-step sample pass over 5 agents
    rng = np.random.default_rng(6)
    preds = rng.normal(scale=5.0, size=(64, 20, 16, 5, 2)).astype(np.float32)
    gts = rng.normal(scale=5.0, size=(64, 16, 5, 2)).astype(np.float32)
    out = metrics.evaluate_batch(preds, gts, slice_frames=slice_frames, scale=scale)
    ref = per_case_reference(preds, gts, slice_frames, scale)
    for key, value in ref.items():
        assert out[key] == value, key
    assert (out["cases"], out["k"], out["horizon"]) == (64, 20, slice_frames or 16)


def test_evaluate_batch_builds_one_error_table(monkeypatch):
    builds = []
    table = metrics.error_table
    monkeypatch.setattr(metrics, "error_table",
                        lambda pred, gt: builds.append(np.shape(pred)) or table(pred, gt))
    rng = np.random.default_rng(7)
    metrics.evaluate_batch(rng.normal(size=(6, 4, 5, 3, 2)), rng.normal(size=(6, 5, 3, 2)),
                           slice_frames=3)
    assert builds == [(6, 4, 3, 3, 2)]


def test_evaluate_batch_rejects_empty_sets():
    for preds, gts in ((np.zeros((0, 4, 5, 3, 2)), np.zeros((0, 5, 3, 2))),
                       (np.zeros((2, 0, 5, 3, 2)), np.zeros((2, 5, 3, 2))),
                       (np.zeros((2, 4, 0, 3, 2)), np.zeros((2, 0, 3, 2)))):
        with pytest.raises(ShapeError):
            metrics.evaluate_batch(preds, gts)
