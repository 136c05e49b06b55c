"""Temporal encoders: causality, incremental parity, gradients."""

import gc
import weakref

import numpy as np
import pytest

from causaltraj import tensor as T
from causaltraj.encoders import SSM_CONV_WIDTH, PointNetEncoder, SSMBlock, SSMEncoder
from causaltraj.errors import ShapeError
from causaltraj.tensor import Tensor, grad_check


def make_pointnet(seed=0):
    return PointNetEncoder(np.random.default_rng(seed), 4, hidden=12, out_dim=6)


def make_ssm(seed=0):
    return SSMEncoder(np.random.default_rng(seed), 4, d_model=12, state=4, headdim=6)


ENCODERS = {"pointnet": make_pointnet, "ssm": make_ssm}


@pytest.mark.parametrize("kind", sorted(ENCODERS))
class TestCommonContract:
    def test_output_shape(self, kind):
        enc = ENCODERS[kind]()
        x = np.random.default_rng(1).normal(size=(3, 9, 4)).astype(np.float32)
        with T.no_grad():
            y = enc(Tensor(x))
        assert y.shape == (3, 9, enc.out_dim)

    def test_causal_prefix_bit_identical(self, kind):
        enc = ENCODERS[kind]()
        rng = np.random.default_rng(2)
        for trial in range(10):
            x = rng.normal(size=(2, 8, 4)).astype(np.float32)
            cut = int(rng.integers(1, 8))
            x2 = x.copy()
            x2[:, cut:] += rng.normal(0.0, 5.0, x2[:, cut:].shape).astype(np.float32)
            with T.no_grad():
                y1 = enc(Tensor(x)).data
                y2 = enc(Tensor(x2)).data
            assert np.array_equal(y1[:, :cut], y2[:, :cut]), (trial, cut)
            assert not np.array_equal(y1[:, cut:], y2[:, cut:])

    def test_incremental_matches_full(self, kind):
        enc = ENCODERS[kind]()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 11, 4)).astype(np.float32)
        with T.no_grad():
            full = enc(Tensor(x)).data
        state = enc.init_state(4)
        for t in range(11):
            step = enc.step(x[:, t], state)
            assert np.abs(step - full[:, t]).max() <= 1e-5, t

    def test_gradients(self, kind):
        enc = ENCODERS[kind]()
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        err = grad_check(lambda: enc(x).sum(), enc.parameters() + [x],
                         max_coords_per_param=30, rng=np.random.default_rng(0))
        assert err < 1e-5

    def test_batch_rows_independent(self, kind):
        enc = ENCODERS[kind]()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6, 4)).astype(np.float32)
        with T.no_grad():
            full = enc(Tensor(x)).data
            solo = enc(Tensor(x[1:2])).data
        assert np.abs(full[1] - solo[0]).max() < 1e-5


class TestPointNetSpecifics:
    def test_rejects_wrong_rank(self):
        enc = make_pointnet()
        with pytest.raises(ShapeError):
            enc(Tensor(np.ones((3, 4))))

    def test_prefix_pool_monotone_feature(self):
        # a strictly growing input feature must never lower the pooled stage
        enc = make_pointnet()
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 7, 4)).astype(np.float32)
        with T.no_grad():
            f1 = enc.stage1(Tensor(x))
            p1 = T.max_pool_window(f1).data
        assert (np.diff(p1, axis=1) >= 0).all()

    def test_parameter_names_stable(self):
        names = [n for n, _ in make_pointnet().named_parameters()]
        assert names[0] == "stage1.layers.0.weight"
        assert len(names) == 12


class TestSSMSpecifics:
    def test_block_residual_at_zero_weights(self):
        # zeroing the output projection makes the block an identity
        blk = SSMBlock(np.random.default_rng(7), 8, state=4, headdim=4)
        blk.out_proj.weight.data[:] = 0.0
        x = np.random.default_rng(8).normal(size=(2, 5, 8)).astype(np.float32)
        with T.no_grad():
            y = blk(Tensor(x)).data
        assert np.array_equal(y, x)

    def test_decay_in_unit_interval(self):
        blk = SSMBlock(np.random.default_rng(9), 8, state=4, headdim=4)
        x = Tensor(np.random.default_rng(10).normal(size=(2, 6, 8)).astype(np.float32))
        with T.no_grad():
            u = blk.in_proj(x)
            z, xbc, dt = blk._split(u)
            xbc = T.silu(T.causal_depthwise_conv(xbc, blk.conv_weight))
            log_decay, *_ = blk._recurrence_inputs(xbc, dt)
        decay = np.exp(log_decay.data)
        assert decay.min() > 0.0
        assert decay.max() < 1.0

    def test_conv_state_ring_buffer(self):
        blk = SSMBlock(np.random.default_rng(11), 8, state=4, headdim=4)
        state = blk.init_state(3)
        assert state["conv"].shape == (3, SSM_CONV_WIDTH - 1, blk.conv_dim)
        assert state["h"].shape == (3, blk.heads, blk.headdim, blk.state)
        x0 = np.random.default_rng(12).normal(size=(3, 8)).astype(np.float32)
        blk.step(x0, state)
        # newest raw projection sits at the end of the buffer
        with T.no_grad():
            u = blk.in_proj(Tensor(x0[:, None, :]))
            _, xbc, _ = blk._split(u)
        assert np.allclose(state["conv"][:, -1], xbc.data[:, 0], atol=1e-6)

    def test_headdim_divisibility(self):
        with pytest.raises(ShapeError):
            SSMBlock(np.random.default_rng(0), 10, state=4, headdim=6)

    def test_no_biases(self):
        enc = make_ssm()
        names = [n for n, _ in enc.named_parameters()]
        assert not any(n.endswith("in_proj.bias") or n.endswith("out_proj.bias")
                       for n in names)


class TestSSMBlockTape:
    """The block's slices of ``in_proj``'s output and the conv's padded input are
    rebuilt in backward, from the block input ``in_proj`` keeps anyway."""

    @staticmethod
    def run():
        enc = SSMEncoder(np.random.default_rng(3), 4, d_model=12, state=4, headdim=6)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 2 * T.SCAN_CHUNK + 3, 4)).astype(np.float32),
                   requires_grad=True)
        out = enc(x)
        out.backward(rng.normal(size=out.shape).astype(np.float32))
        return [out.data, x.grad] + [p.grad for p in enc.parameters()]

    def test_output_and_gradients_are_byte_equal_to_kept_arrays(self, monkeypatch):
        got = self.run()
        # the reference clears every recipe: each op keeps the array it reads
        monkeypatch.setattr(T, "_keep", lambda t: t.data)
        want = self.run()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_slices_are_freed_during_the_forward_pass(self, monkeypatch):
        refs = []
        narrow = T.narrow

        def recording(*args):
            out = narrow(*args)
            refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "narrow", recording)
        blk = SSMBlock(np.random.default_rng(5), 8, state=4, headdim=4)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 7, 8)).astype(np.float32),
                   requires_grad=True)
        out = blk(x)
        gc.collect()
        # z, the conv input, dt and the x, B and C parts of the conv stream
        assert len(refs) == 6 and all(r() is None for r in refs)
        out.backward(np.ones(out.shape, dtype=out.dtype))
        assert blk.conv_weight.grad is not None and x.grad is not None

    def test_one_sigmoid_per_silu_in_a_training_backward(self, monkeypatch):
        from causaltraj.data import synth_forking_play
        from causaltraj.model import ModelConfig, TrajectoryModel
        from causaltraj.trainer import epoch_batches

        calls = []
        sigmoid = T._sigmoid
        monkeypatch.setattr(T, "_sigmoid", lambda x: calls.append(1) or sigmoid(x))
        model = TrajectoryModel(ModelConfig.small(temporal="ssm", seed=0))
        ts = synth_forking_play(2, frames=24, players=4, seed=0).trajectories
        positions, categories = next(epoch_batches(ts, 2, 0, 0))
        loss, _ = model.loss(positions, categories)
        silus = len(calls)          # the forward pass computes each silu's sigmoid once
        assert silus == 2 * len(model.temporal.blocks)
        calls.clear()
        loss.backward()
        assert len(calls) == silus
