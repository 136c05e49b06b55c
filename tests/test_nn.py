"""Layer containers: parameter discovery, init bounds, state round trips."""

import numpy as np
import pytest

from causaltraj import tensor as T
from causaltraj.errors import ConfigError
from causaltraj.nn import (
    INIT_STD,
    MLP,
    Dense,
    EmbeddingTable,
    LayerNorm,
    Module,
    RMSNorm,
    trunc_normal,
)
from causaltraj.tensor import Tensor, grad_check


class Nested(Module):
    def __init__(self):
        rng = np.random.default_rng(0)
        self.inner = Dense(rng, 3, 4)
        self.stack = [Dense(rng, 4, 4), Dense(rng, 4, 2)]
        self.scale = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        self.buffer = Tensor(np.zeros(2))   # no grad: not a parameter


class TestModule:
    def test_named_parameters_walks_nesting(self):
        m = Nested()
        names = [n for n, _ in m.named_parameters()]
        assert names == [
            "inner.weight",
            "inner.bias",
            "stack.0.weight",
            "stack.0.bias",
            "stack.1.weight",
            "stack.1.bias",
            "scale",
        ]

    def test_count_parameters(self):
        m = Nested()
        assert m.count_parameters() == (3 * 4 + 4) + (4 * 4 + 4) + (4 * 2 + 2) + 2

    def test_state_round_trip(self):
        m = Nested()
        state = {k: v.copy() for k, v in m.state_arrays().items()}
        for p in m.parameters():
            p.data = p.data + 1.0
        m.load_state_arrays(state)
        for name, p in m.named_parameters():
            assert np.array_equal(p.data, state[name])

    def test_load_rejects_mismatch(self):
        m = Nested()
        state = m.state_arrays()
        bad = dict(state)
        bad.pop("scale")
        with pytest.raises(ConfigError, match="scale"):
            m.load_state_arrays(bad)
        bad = dict(state)
        bad["scale"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ConfigError, match="shape"):
            m.load_state_arrays(bad)

    def test_zero_grad(self):
        m = Nested()
        x = Tensor(np.ones((2, 3)))
        m.stack[1](m.stack[0](m.inner(x))).sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestInit:
    def test_trunc_normal_bounds_and_dtype(self):
        rng = np.random.default_rng(1)
        w = trunc_normal(rng, (200, 200))
        assert w.dtype == np.float32
        assert np.abs(w).max() <= 2 * INIT_STD + 1e-9
        # truncation at two deviations shrinks the std to ~0.88 sigma
        assert abs(w.std() - 0.88 * INIT_STD) < 0.1 * INIT_STD

    @staticmethod
    def trunc_normal_full_retest(rng, shape):
        """The earlier loop: redraw every out-of-range entry, then test the whole array again."""
        out = rng.normal(0.0, INIT_STD, size=shape)
        bad = np.abs(out) > 2.0 * INIT_STD
        while np.any(bad):
            out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * INIT_STD
        return out.astype(np.float32)

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (64, 48), (2, 3, 4), 11])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trunc_normal_matches_the_full_retest_loop(self, shape, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = trunc_normal(rng_new, shape)
        want = self.trunc_normal_full_retest(rng_old, shape)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # the same number of draws: the two generators continue alike
        assert rng_new.random() == rng_old.random()

    def test_dense_bias_zero(self):
        d = Dense(np.random.default_rng(0), 4, 4)
        assert np.array_equal(d.bias.data, np.zeros(4, dtype=np.float32))


class TestLayers:
    def test_dense_activations(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 4)))
        for act in (None, "gelu"):
            d = Dense(np.random.default_rng(0), 4, 3, activation=act)
            y = d(x)
            assert y.shape == (5, 3)
        with pytest.raises(ConfigError):
            Dense(np.random.default_rng(0), 4, 3, activation="tanh")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    def test_dense_gelu_is_gelu_of_linear_bit_for_bit(self, dtype, bias):
        # Dense writes the GELU over the linear's own output; the composition is the reference
        rng = np.random.default_rng(7)
        d = Dense(np.random.default_rng(1), 6, 2**16 // 9, activation="gelu", bias=bias)
        params = [d.weight] + ([d.bias] if bias else [])
        for p in params:
            p.data = p.data.astype(dtype)
        if bias:
            d.bias.data[:] = rng.normal(size=d.bias.shape)
        x_arr = (rng.normal(size=(3, 5, 6)) * 40.0).astype(dtype)   # spans both erf branches
        g = rng.normal(size=(3, 5, d.weight.shape[1])).astype(dtype)
        results = []
        for fn in (d, lambda x: T.gelu(T.linear(x, d.weight, d.bias))):
            with T.no_grad():
                plain = fn(Tensor(x_arr)).data
            x = Tensor(x_arr, requires_grad=True)
            y = fn(x)
            y.backward(g)
            results.append([plain, y.data, x.grad] + [p.grad for p in params])
            for p in params:
                p.zero_grad()
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()

    def test_mlp_depth_and_last_activation(self):
        rng = np.random.default_rng(4)
        m = MLP(np.random.default_rng(0), [4, 8, 8, 2], activate_last=False)
        assert len(m.layers) == 3
        assert m.layers[-1].activation is None
        assert m.layers[0].activation == "gelu"
        m2 = MLP(np.random.default_rng(0), [4, 8, 2], activate_last=True)
        assert m2.layers[-1].activation == "gelu"
        with pytest.raises(ConfigError):
            MLP(np.random.default_rng(0), [4])
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert grad_check(lambda: m(x).sum(), m.parameters() + [x]) < 1e-5

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(5)
        ln = LayerNorm(16)
        x = rng.normal(3.0, 2.5, size=(4, 16)).astype(np.float32)
        y = ln(Tensor(x)).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(y.std(axis=-1), 1.0, atol=1e-2)

    def test_rms_norm_unit_rms(self):
        rng = np.random.default_rng(6)
        rn = RMSNorm(16)
        x = rng.normal(0.0, 4.0, size=(4, 16)).astype(np.float32)
        y = rn(Tensor(x)).data
        rms = np.sqrt((y * y).mean(axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-2)

    def test_embedding_rows(self):
        e = EmbeddingTable(np.random.default_rng(0), 5, 7)
        idx = np.array([[0, 4], [2, 2]])
        out = e(idx)
        assert out.shape == (2, 2, 7)
        assert np.array_equal(out.data[0, 1], e.table.data[4])
