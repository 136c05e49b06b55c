"""Autodiff engine: primitives against finite differences and hand oracles."""

import itertools
import math
import warnings
import weakref
import zlib

import numpy as np
import pytest
from scipy import special

from causaltraj import tensor as T
from causaltraj.errors import CausalTrajError, GradCheckError, GraphReleasedError, ShapeError
from causaltraj.tensor import Tensor, grad_check


def randt(rng, shape, scale=1.0, requires_grad=True):
    return Tensor(rng.normal(0.0, scale, shape), requires_grad=requires_grad)


class TestBasics:
    def test_dtype_default(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64

    def test_scalar_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_backward_without_grad_flag(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ShapeError):
            x.sum().backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * 2.0   # dy/dx = 2x + 2 = 8
        y.sum().backward()
        assert np.allclose(x.grad, [8.0])

    def test_multiple_backward_calls_accumulate(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_backward_visits_each_node_once(self):
        # diamond: z = (a + a) * (a + a); a.grad must be exact, not doubled
        a = Tensor(np.array([1.5]), requires_grad=True)
        b = a + a
        z = (b * b).sum()   # z = 4a^2, dz/da = 8a = 12
        z.backward()
        assert np.allclose(a.grad, [12.0])

    def test_untouched_leaf_has_none_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        x.sum().backward()
        assert y.grad is None


def mlp_graph():
    """A two-layer MLP loss; returns (loss, leaves, weakrefs to interior arrays).

    ``pre`` is the first layer's output, which only GELU reads, and GELU keeps
    its slope instead; the second layer's weight gradient reads ``hidden``; the
    squared loss reads ``out`` through its recipe, which rebuilds it from
    ``hidden``.
    """
    rng = np.random.default_rng(0)
    x = randt(rng, (4, 3))
    w1, b1, w2 = randt(rng, (3, 5)), randt(rng, (5,)), randt(rng, (5, 2))
    pre = T.linear(x, w1, b1)
    hidden = T.gelu(pre)
    out = T.linear(hidden, w2)
    loss = (out * out).sum()
    arrays = {"pre": pre.data, "hidden": hidden.data, "out": out.data}
    return loss, [x, w1, b1, w2], {k: weakref.ref(a) for k, a in arrays.items()}


class TestTapeRelease:
    def test_unread_results_are_freed_during_the_forward_pass(self):
        loss, _, arrays = mlp_graph()
        assert arrays["pre"]() is None
        assert arrays["hidden"]() is not None   # the graph is still alive
        loss.backward()

    def test_read_results_live_until_backward(self):
        loss, _, arrays = mlp_graph()
        assert arrays["hidden"]() is not None and arrays["out"]() is None
        loss.backward()
        assert arrays["hidden"]() is None and arrays["out"]() is None

    def test_backward_frees_the_interior_tensors(self):
        loss, leaves, arrays = mlp_graph()
        loss.backward()
        assert all(ref() is None for ref in arrays.values())
        assert loss.data.shape == ()            # the root itself is still held here
        assert all(p.grad is not None for p in leaves)

    @pytest.mark.parametrize("op, const_side", [
        ("mul", 1), ("div", 1), ("matmul", 1), ("linear", 1),
        ("mul", 0), ("matmul", 0), ("linear", 0),
    ])
    def test_operand_without_grad_costs_nothing(self, op, const_side):
        # the gradient of the operand that needs none is not computed, and the
        # array only that gradient would read (the other operand's) is not kept
        rng = np.random.default_rng(4)
        const = Tensor(rng.normal(size=(4, 4)))
        a = randt(rng, (4, 4)) * 2.0            # its own backward reads no array
        ref = weakref.ref(a.data)
        operands = [a, a]
        operands[const_side] = const
        y = getattr(T, op)(*operands)
        del a, operands
        assert ref() is None
        grads = y._backward(np.ones(y.shape, dtype=y.dtype))
        assert grads[const_side] is None and grads[1 - const_side] is not None


    def test_interior_tensors_keep_no_grad(self):
        rng = np.random.default_rng(1)
        x = randt(rng, (4, 3))
        hidden = T.gelu(x * 2.0)
        loss = hidden.sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        assert x.grad is not None

    def test_second_backward_on_the_same_root_raises(self):
        loss, leaves, _ = mlp_graph()
        loss.backward()
        before = [p.grad.copy() for p in leaves]
        with pytest.raises(GraphReleasedError):
            loss.backward()
        assert issubclass(GraphReleasedError, CausalTrajError)
        assert all(np.array_equal(b, p.grad) for b, p in zip(before, leaves))

    def test_second_root_on_a_released_subgraph_raises(self):
        rng = np.random.default_rng(2)
        x, w = randt(rng, (4, 3)), randt(rng, (3, 5))
        shared = T.gelu(T.linear(x, w))
        first = shared.sum()
        second = (shared * shared).sum()
        first.backward()
        before = [p.grad.copy() for p in (x, w)]
        with pytest.raises(GraphReleasedError):
            second.backward()
        assert all(np.array_equal(b, p.grad) for b, p in zip(before, (x, w)))

    def test_refused_backward_writes_no_leaf_gradient(self):
        rng = np.random.default_rng(3)
        x, y = randt(rng, (3,)), randt(rng, (3,))
        shared = x * 2.0
        shared.sum().backward()
        with pytest.raises(GraphReleasedError):
            # y is walked before ``shared``: a check made during the walk instead
            # of the sort would already have written y.grad
            (y * shared).sum().backward()
        assert y.grad is None
        assert np.array_equal(x.grad, np.full(3, 2.0))


class TestBroadcasting:
    def test_suffix_broadcast_ok(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 6.0)

    def test_non_suffix_rejected(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.ones((3, 1)))
        with pytest.raises(ShapeError, match=r"\(3, 4\)"):
            _ = a + b

    def test_explicit_broadcast_to(self):
        rng = np.random.default_rng(0)
        b = randt(rng, (3, 1))
        err = grad_check(lambda: T.broadcast_to(b, (2, 3, 4)).sum(), [b])
        assert err < 1e-5

    def test_scalar_operand(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (2.0 * x + 1.0).sum().backward()
        assert np.allclose(x.grad, [2.0, 2.0])


PRIMITIVES = {}


def primitive(name):
    def wrap(f):
        PRIMITIVES[name] = f
        return f
    return wrap


@primitive("add")
def _case_add(rng):
    a, b = randt(rng, (3, 4)), randt(rng, (4,))
    return lambda: (a + b).sum(), [a, b]


@primitive("sub")
def _case_sub(rng):
    a, b = randt(rng, (3, 4)), randt(rng, (3, 4))
    return lambda: (a - b * 2.0).sum(), [a, b]


@primitive("mul")
def _case_mul(rng):
    a, b = randt(rng, (2, 5)), randt(rng, (5,))
    return lambda: (a * b).sum(), [a, b]


@primitive("div")
def _case_div(rng):
    a, b = randt(rng, (3, 3)), randt(rng, (3, 3))
    return lambda: (a / (b * b + 1.0)).sum(), [a, b]


@primitive("neg")
def _case_neg(rng):
    a = randt(rng, (4,))
    return lambda: (-a).sum(), [a]


@primitive("exp")
def _case_exp(rng):
    a = randt(rng, (3, 3), scale=0.5)
    return lambda: T.exp(a).sum(), [a]


@primitive("log")
def _case_log(rng):
    a = randt(rng, (3, 3))
    return lambda: T.log(a * a + 0.5).sum(), [a]


@primitive("clamp")
def _case_clamp(rng):
    a = randt(rng, (5, 5))
    return lambda: T.clamp(a, -0.7, 0.7).sum(), [a]


@primitive("gelu")
def _case_gelu(rng):
    a = randt(rng, (4, 4))
    return lambda: T.gelu(a).sum(), [a]


@primitive("silu")
def _case_silu(rng):
    a = randt(rng, (4, 4))
    return lambda: T.silu(a).sum(), [a]


@primitive("softplus")
def _case_softplus(rng):
    a = randt(rng, (4, 4))
    return lambda: T.softplus(a).sum(), [a]


@primitive("matmul")
def _case_matmul(rng):
    a, b = randt(rng, (2, 3, 4)), randt(rng, (2, 4, 5))
    return lambda: T.matmul(a, b).sum(), [a, b]


@primitive("matmul_shared")
def _case_matmul_shared(rng):
    a, b = randt(rng, (2, 3, 4)), randt(rng, (4, 5))
    return lambda: T.matmul(a, b).sum(), [a, b]


@primitive("linear")
def _case_linear(rng):
    x, w, b = randt(rng, (6, 4)), randt(rng, (4, 3)), randt(rng, (3,))
    return lambda: T.linear(x, w, b).sum(), [x, w, b]


@primitive("embedding")
def _case_embedding(rng):
    w = randt(rng, (5, 3))
    idx = rng.integers(0, 5, size=(2, 4))
    return lambda: T.embedding_lookup(w, idx).sum(), [w]


@primitive("reshape")
def _case_reshape(rng):
    a = randt(rng, (2, 6))
    return lambda: a.reshape(3, 4).sum(), [a]


@primitive("transpose")
def _case_transpose(rng):
    a = randt(rng, (2, 3, 4))
    return lambda: (T.transpose(a, (2, 0, 1)) * 2.0).sum(), [a]


@primitive("concat")
def _case_concat(rng):
    a, b = randt(rng, (2, 3)), randt(rng, (2, 5))
    return lambda: T.concat([a, b], axis=-1).sum(), [a, b]


@primitive("narrow")
def _case_narrow(rng):
    a = randt(rng, (3, 8))
    return lambda: T.narrow(a, 1, 2, 4).sum(), [a]


@primitive("reduce_sum_axis")
def _case_reduce_sum(rng):
    # every axis form: a tuple, None, an int, a negative tuple, and keepdims
    a = randt(rng, (3, 4, 5))
    v = randt(rng, (4,), requires_grad=False)
    w = randt(rng, (3, 1, 5), requires_grad=False)

    def f():
        s1 = a.sum(axis=1)
        s_all = a.sum(keepdims=True)
        return ((a.sum(axis=(0, 2)) * 3.0).sum()
                + a.sum() * a.sum()
                + (s1 * s1).sum()
                + (a.sum(axis=(-1, -3)) * v).sum()
                + (a.sum(axis=1, keepdims=True) * w).sum()
                + (s_all * s_all).sum())

    return f, [a]


@primitive("reduce_mean")
def _case_reduce_mean(rng):
    a = randt(rng, (3, 4))
    return lambda: a.mean(axis=-1).sum(), [a]


@primitive("logsumexp")
def _case_logsumexp(rng):
    a = randt(rng, (4, 6), scale=3.0)
    return lambda: T.logsumexp_lastdim(a).sum(), [a]


@primitive("softmax")
def _case_softmax(rng):
    a = randt(rng, (4, 6), scale=2.0)
    w = randt(rng, (6,))
    return lambda: (T.softmax_lastdim(a) * w).sum(), [a, w]


@primitive("layer_norm")
def _case_layer_norm(rng):
    x, g, b = randt(rng, (3, 8)), randt(rng, (8,)), randt(rng, (8,))
    w = randt(rng, (8,), requires_grad=False)
    return lambda: (T.layer_norm(x, g, b) * w).sum(), [x, g, b]


@primitive("rms_norm")
def _case_rms_norm(rng):
    x, g = randt(rng, (3, 8)), randt(rng, (8,))
    w = randt(rng, (8,), requires_grad=False)
    return lambda: (T.rms_norm(x, g) * w).sum(), [x, g]


@primitive("max_pool_full")
def _case_max_pool_full(rng):
    # the last frame pools the whole sequence: gradient reaches only the argmaxes
    x = randt(rng, (2, 7, 3))
    return lambda: T.narrow(T.max_pool_window(x), 1, 6, 1).sum(), [x]


@primitive("max_pool_window")
def _case_max_pool_window(rng):
    x = randt(rng, (2, 7, 3))
    return lambda: T.max_pool_window(x).sum(), [x]


@primitive("depthwise_conv")
def _case_conv(rng):
    x, w = randt(rng, (2, 6, 4)), randt(rng, (3, 4))
    return lambda: T.causal_depthwise_conv(x, w).sum(), [x, w]


@primitive("ssm_scan")
def _case_ssm(rng):
    L, Tn, H, P, S = 2, 4, 2, 3, 3
    la = Tensor(np.log(rng.uniform(0.2, 0.95, (L, Tn, H))), requires_grad=True)
    xdt = randt(rng, (L, Tn, H, P))
    b = randt(rng, (L, Tn, S))
    c = randt(rng, (L, Tn, S))
    return lambda: T.ssm_scan(la, xdt, b, c).sum(), [la, xdt, b, c]


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients(name):
    for trial in range(3):
        # crc32, not hash(): str hashes are salted per process
        rng = np.random.default_rng(zlib.crc32(name.encode()) + trial)
        f, params = PRIMITIVES[name](rng)
        assert grad_check(f, params) < 1e-5, f"{name} trial {trial}"


@pytest.mark.parametrize("lead", [(), (5,), (2, 3), (2, 1, 3), (1, 2, 1, 3)],
                         ids=["1d", "2d", "3d", "4d", "5d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lastdim_reductions_equal_numpy_bitwise(dtype, lead):
    # softmax and logsumexp reduce over slices; the result must be numpy's, bit for bit
    rng = np.random.default_rng(31)
    for n in range(1, 131):
        x = rng.normal(size=lead + (n,)) * 10.0 ** rng.integers(-4, 5, size=lead + (n,))
        x = x.astype(dtype)
        rows = x.reshape(-1, n)
        if len(rows) > 1:
            rows[1, rng.integers(n)] = -np.inf
        if len(rows) > 2:
            rows[2] = -np.inf
        if len(rows) > 3:
            rows[3] = -0.0
        for got, want in ((T._lastdim_max(x), x.max(axis=-1, keepdims=True)),
                          (T._lastdim_sum(x), x.sum(axis=-1, keepdims=True))):
            assert got.dtype == want.dtype and got.shape == want.shape, n
            assert got.tobytes() == want.tobytes(), n


def package_erf(x: np.ndarray) -> np.ndarray:
    """The package's erf kernel over all of ``x`` at once (a copy; ``x`` is kept)."""
    z = np.array(x, dtype=x.dtype).reshape(-1)
    T._erf_inplace(z, np.empty_like(z), np.empty_like(z))
    return z.reshape(x.shape)


def ulp_distance(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """How many representable values apart, for finite arrays of one sign pattern."""
    ints = np.int32 if got.dtype == np.float32 else np.int64
    return np.abs(got.view(ints).astype(np.int64) - want.view(ints).astype(np.int64))


class TestGeluSlope:
    @staticmethod
    def reference_cdf(x: np.ndarray) -> np.ndarray:
        cdf = package_erf(x * (1.0 / math.sqrt(2.0)))
        cdf += 1.0
        cdf *= 0.5
        return cdf

    @classmethod
    def reference_input_grad(cls, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The input gradient as a backward that recomputes the slope forms it."""
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        return g * (cls.reference_cdf(x) + x * pdf)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_gradient_is_bit_identical(self, dtype):
        # a dense grid over [-9, 9], well past the +-4 where the pdf term underflows
        x = np.linspace(-9.0, 9.0, 360_001).astype(dtype)
        g = np.random.default_rng(6).normal(size=x.shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        T.gelu(xt).backward(g)
        want = self.reference_input_grad(x, g)
        assert xt.grad.dtype == want.dtype == dtype
        assert xt.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [
        (2**16 - 1,), (2**16,), (2**16 + 1,), (3, 2**16 + 5), (),
    ])
    def test_blocks_cover_every_element(self, shape):
        # the output and slope are formed per block of _ERF_BLOCK elements
        assert T._ERF_BLOCK == 2**16
        x = np.random.default_rng(3).normal(0.0, 2.0, shape).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        y = T.gelu(xt)
        y.backward(np.ones(shape, np.float32))
        assert y.shape == shape and y.dtype == np.float32
        assert y.data.tobytes() == (x * self.reference_cdf(x)).tobytes()
        assert xt.grad.tobytes() == self.reference_input_grad(x, np.float32(1.0)).tobytes()

    def test_non_contiguous_input(self):
        base = np.random.default_rng(4).normal(size=(64, 48)).astype(np.float32)
        x = base[::2, ::3].T
        assert not x.flags.c_contiguous
        y = T.gelu(Tensor(x)).data
        assert y.shape == x.shape and y.flags.c_contiguous
        assert y.tobytes() == T.gelu(Tensor(np.ascontiguousarray(x))).data.tobytes()

    def test_no_grad_records_no_node(self):
        x = Tensor(np.linspace(-3.0, 3.0, 7), requires_grad=True)
        with T.no_grad():
            y = T.gelu(x)
        assert not y.requires_grad and y._backward is None
        assert np.array_equal(y.data, T.gelu(x).data)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extremes_give_the_limits_without_a_warning(self, dtype):
        big = np.finfo(dtype).max
        x = np.array([-np.inf, np.inf, -3e38, 3e38, -big, big, np.nan], dtype)
        want_out = np.array([-0.0, np.inf, -0.0, 3e38, -0.0, big, np.nan], dtype)
        want_slope = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, np.nan], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with T.no_grad():
                plain = T.gelu(Tensor(x)).data
            xt = Tensor(x, requires_grad=True)
            y = T.gelu(xt)
            y.backward(np.ones_like(x))
        for got, want in ((plain, want_out), (y.data, want_out), (xt.grad, want_slope)):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_magnitude_matches_the_unclamped_formula(self, dtype):
        # the clamp at +-_GELU_CLAMP changes no finite input's output or slope
        # 400,000 magnitudes evenly spaced in bit pattern: every exponent, up to the max
        uint = np.uint32 if dtype == np.float32 else np.uint64
        top = int(np.array(np.inf, dtype).view(uint))
        mags = np.arange(1, top, top // 400_000, dtype=uint).view(dtype)
        x = np.concatenate([mags, -mags, np.linspace(-60.0, 60.0, 240_001, dtype=dtype),
                            np.array([0.0, -0.0], dtype)])
        xt = Tensor(x, requires_grad=True)
        y = T.gelu(xt)
        y.backward(np.ones_like(x))
        with np.errstate(over="ignore", under="ignore"):
            want_out = x * self.reference_cdf(x)
            want_slope = self.reference_input_grad(x, dtype(1.0))
        assert y.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == want_slope.tobytes()


class TestErf:
    """The cephes erf kernel against scipy's erf, the test-only oracle.

    Bounds, fixed before measuring: float32 within 3 ulp of scipy's float32
    erf (float64 erf rounded to float32); float64 within 1 ulp of scipy's, and
    bit-identical to it for |x| <= 1, where both evaluate the same T/U series.
    """

    def test_float32_within_3_ulp(self):
        x = np.linspace(-9.0, 9.0, 2_000_001).astype(np.float32)
        assert ulp_distance(package_erf(x), special.erf(x)).max() <= 3

    def test_float64_within_1_ulp(self):
        x = np.linspace(-9.0, 9.0, 2_000_001)
        got, want = package_erf(x), special.erf(x)
        assert ulp_distance(got, want).max() <= 1
        inner = np.abs(x) <= 1.0
        assert got[inner].tobytes() == want[inner].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_bit_for_bit(self, dtype):
        x = np.random.default_rng(8).normal(0.0, 2.0, 100_001).astype(dtype)
        assert package_erf(-x).tobytes() == (-package_erf(x)).tobytes()
        zeros = package_erf(np.array([0.0, -0.0], dtype))
        assert zeros.tobytes() == np.array([0.0, -0.0], dtype).tobytes()

    @pytest.mark.parametrize("dtype, bound", [(np.float32, 3), (np.float64, 1)])
    def test_special_values_warn_nothing(self, dtype, bound):
        info = np.finfo(dtype)
        big = np.array([np.inf, -np.inf, 3e38, -3e38, info.max, -info.max], dtype)
        small = np.array([info.smallest_subnormal, -info.smallest_subnormal,
                          1e3 * info.smallest_subnormal, info.tiny, -info.tiny], dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_big, got_small = package_erf(big), package_erf(small)
            got_nan = package_erf(np.array([np.nan, -np.nan], dtype))
        assert got_big.tobytes() == np.sign(big).tobytes()
        assert ulp_distance(got_small, special.erf(small)).max() <= bound
        assert np.isnan(got_nan).all()


class TestRowKernelsAgainstUnfused:
    """layer_norm, rms_norm and softmax_lastdim against their plain-expression forms.

    The kernels work in place in their own arrays; the references below are
    the expressions they replace, whose temporaries the kernels no longer make.
    Forward outputs and every gradient must match byte for byte.
    """

    @staticmethod
    def layer_norm(x, gd, bd, g):
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + T.NORM_EPS)
        xhat = xc * inv
        out = xhat * gd + bd
        gx_hat = g * gd
        mean_g = gx_hat.mean(axis=-1, keepdims=True)
        mean_gx = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - mean_g - xhat * mean_gx)
        d = x.shape[-1]
        return out, (gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))

    @staticmethod
    def rms_norm(x, gd, g):
        ms = (x * x).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(ms + T.NORM_EPS)
        xhat = x * inv
        out = xhat * gd
        gx_hat = g * gd
        mean_gx = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - xhat * mean_gx)
        return out, (gx, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))

    @staticmethod
    def softmax(x, g):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        out = e / e.sum(axis=-1, keepdims=True)
        inner = (g * out).sum(axis=-1, keepdims=True)
        return out, (out * (g - inner),)

    @staticmethod
    def check(op, arrays, g, want_out, want_grads):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        out.backward(g.astype(out.dtype))
        assert out.dtype == want_out.dtype
        assert out.data.tobytes() == want_out.tobytes()
        for leaf, want in zip(leaves, want_grads):
            want = want.astype(leaf.dtype)   # backward casts each gradient to its leaf's dtype
            assert leaf.grad.shape == want.shape
            assert leaf.grad.tobytes() == want.tobytes()

    # (x, gain, bias) dtypes; the mixed ones widen the output beyond x's dtype
    DTYPES = [(np.float32,) * 3, (np.float64,) * 3, (np.float32, np.float64, np.float32),
              (np.float32, np.float32, np.float64)]

    @pytest.mark.parametrize("shape", [(3, 7), (4, 5, 24, 32), (2, 6, 128)])
    @pytest.mark.parametrize("dtypes", DTYPES, ids=lambda d: "-".join(np.dtype(t).name for t in d))
    def test_norms(self, shape, dtypes):
        rng = np.random.default_rng(sum(shape))
        d = shape[-1]
        x = (rng.normal(size=shape) * 3.0 + 0.5).astype(dtypes[0])
        gd = rng.normal(1.0, 0.3, size=d).astype(dtypes[1])
        bd = rng.normal(size=d).astype(dtypes[2])
        g = rng.normal(size=shape)
        out_dtype = np.result_type(*dtypes)
        self.check(T.layer_norm, [x, gd, bd], g,
                   *self.layer_norm(x, gd, bd, g.astype(out_dtype)))
        rms_dtype = np.result_type(x, gd)
        self.check(T.rms_norm, [x, gd], g, *self.rms_norm(x, gd, g.astype(rms_dtype)))

    @pytest.mark.parametrize("shape", [(3, 1), (6, 5), (4, 3, 11), (2, 130)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax(self, shape, dtype):
        rng = np.random.default_rng(shape[-1])
        x = (rng.normal(size=shape) * 4.0).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        self.check(T.softmax_lastdim, [x], g, *self.softmax(x, g))


class TestScaledSoftmax:
    """``softmax_lastdim(a, extra, scale)`` against ``softmax_lastdim((a + extra) * scale)``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_extra", [True, False])
    @pytest.mark.parametrize("scale", [1.0 / math.sqrt(3.0), 0.5])
    def test_bytes_equal_the_add_mul_softmax_composition(self, dtype, with_extra, scale):
        rng = np.random.default_rng(11)
        shape = (2, 3, 4, 5, 5)
        arrays = [rng.normal(size=shape) * 3.0 for _ in range(2 if with_extra else 1)]
        seed = rng.normal(size=shape).astype(dtype)

        def run(fused):
            ts = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            extra = ts[1] if with_extra else None
            if fused:
                y = T.softmax_lastdim(ts[0], extra, scale)
            else:
                s = ts[0] + extra if with_extra else ts[0]
                y = T.softmax_lastdim(s * scale)
            y.backward(seed)
            return [y.data] + [t.grad for t in ts]

        want, got = run(fused=False), run(fused=True)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype == dtype
            assert g.tobytes() == w.tobytes()

    def test_keeps_only_its_output(self):
        rng = np.random.default_rng(12)
        a, extra = randt(rng, (3, 4, 4)), randt(rng, (3, 4, 4))
        y = T.softmax_lastdim(a, extra, 0.25)
        kept = [k for k in kept_arrays(y) if k.ndim]     # and the 0-d scale
        assert len(kept) == 1 and kept[0] is y.data


@pytest.mark.parametrize("kind", ["layer_norm", "rms_norm"])
class TestNormOutputRebuild:
    """A linear that needs its weight gradient keeps a norm output as a recipe.

    The reference feeds the linears ``norm(x) * 1.0``: a plain copy of the same
    values, without a recipe, so those linears keep the array itself.
    """

    @staticmethod
    def norm(kind, x, gain, bias):
        return T.layer_norm(x, gain, bias) if kind == "layer_norm" else T.rms_norm(x, gain)

    def test_the_output_array_is_freed_once_only_a_linear_reads_it(self, kind):
        rng = np.random.default_rng(5)
        x, gain, bias, w = (randt(rng, s) for s in [(2, 3, 8), (8,), (8,), (8, 4)])
        z = self.norm(kind, x, gain, bias)
        ref = weakref.ref(z.data)
        y = T.linear(z, w)
        del z
        assert ref() is None
        y.backward(np.ones(y.shape, dtype=y.dtype))
        assert w.grad is not None and x.grad is not None and gain.grad is not None

    def test_the_readers_of_one_output_rebuild_it_once(self, kind):
        rng = np.random.default_rng(7)
        x, gain, bias = (randt(rng, s) for s in [(2, 3, 8), (8,), (8,)])
        ws = [randt(rng, (8, 4)) for _ in range(3)]
        z = self.norm(kind, x, gain, bias)
        recipe, build, builds = z._rebuild, z._rebuild.build, []
        recipe.build = lambda *args: builds.append(1) or build(*args)
        outs = [T.linear(z, w) for w in ws]
        del z
        out = T.concat(outs, axis=-1)
        out.backward(np.ones(out.shape, dtype=out.dtype))
        assert len(builds) == 1
        assert recipe.readers == 0 and recipe.array is None   # dropped after the last reader
        assert all(w.grad is not None for w in ws)

    def test_no_grad_sets_no_recipe(self, kind):
        rng = np.random.default_rng(6)
        x, gain, bias = (randt(rng, s) for s in [(3, 8), (8,), (8,)])
        with T.no_grad():
            assert self.norm(kind, x, gain, bias)._rebuild is None
        assert self.norm(kind, x, gain, bias)._rebuild is not None

    # (x, gain/bias, linear) dtypes; the mixed one widens the norm output to float64
    DTYPES = [(np.float32,) * 3, (np.float64,) * 3, (np.float32, np.float64, np.float64)]

    @pytest.mark.parametrize("dtypes", DTYPES, ids=lambda d: "-".join(np.dtype(t).name for t in d))
    @pytest.mark.parametrize("linear_bias", [True, False])
    @pytest.mark.parametrize("consumers", [1, 3])     # 3: q/k/v share one norm output
    def test_gradients_are_byte_equal_to_a_plain_copy(self, kind, dtypes, linear_bias, consumers):
        rng = np.random.default_rng(consumers + 2 * linear_bias)
        d, d_out = 16, 12
        arrays = {
            "x": (rng.normal(size=(3, 5, d)) * 2.0 + 0.3).astype(dtypes[0]),
            "gain": rng.normal(1.0, 0.3, size=d).astype(dtypes[1]),
            "bias": rng.normal(size=d).astype(dtypes[1]),
            **{f"w{i}": rng.normal(size=(d, d_out)).astype(dtypes[2]) for i in range(consumers)},
            **{f"b{i}": rng.normal(size=d_out).astype(dtypes[2])
               for i in range(consumers) if linear_bias},
        }
        seed = rng.normal(size=(3, 5, consumers * d_out))

        def run(plain):
            t = {k: Tensor(a.copy(), requires_grad=True) for k, a in arrays.items()}
            z = self.norm(kind, t["x"], t["gain"], t["bias"])
            ref = weakref.ref(z.data)
            src = z * 1.0 if plain else z
            outs = [T.linear(src, t[f"w{i}"], t.get(f"b{i}")) for i in range(consumers)]
            del z, src
            freed = ref() is None
            out = T.concat(outs, axis=-1)
            out.backward(seed.astype(out.dtype))
            grads = {k: v.grad for k, v in t.items() if v.grad is not None}
            return out.data, grads, freed

        want_out, want, _ = run(plain=True)
        got_out, got, freed = run(plain=False)
        assert freed
        assert got_out.tobytes() == want_out.tobytes()
        assert got.keys() == want.keys() == arrays.keys() - ({"bias"} if kind == "rms_norm" else set())
        for k in want:
            assert got[k].dtype == want[k].dtype
            assert got[k].tobytes() == want[k].tobytes(), k


def kept_arrays(t):
    """The arrays ``t``'s backward keeps: through its closure, nested functions and recipes."""
    found, seen = [], set()

    def visit(obj):
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, T._Rebuild):
            visit(obj.build)
            visit(obj.sources)
        elif isinstance(obj, (tuple, list)):
            for o in obj:
                visit(o)
        elif callable(obj) and getattr(obj, "__closure__", None) and id(obj) not in seen:
            seen.add(id(obj))
            for cell in obj.__closure__:
                visit(cell.cell_contents)

    visit(t._node.backward)
    return found


class TestEncoderRecipes:
    """``silu``, ``mul`` and ``ssm_scan`` keep recipes where they can rebuild an array.

    Each byte-equality reference clears the intermediate's ``_rebuild``, so that
    its consumer keeps the plain array.
    """

    def test_silu_keeps_only_its_input(self):
        x = randt(np.random.default_rng(0), (3, 4))
        kept = kept_arrays(T.silu(x))       # directly and through the sigmoid's recipe
        assert len(kept) == 2 and all(k is x.data for k in kept)

    def test_a_silu_output_is_freed_once_only_a_mul_reads_it(self):
        rng = np.random.default_rng(1)
        a, z = randt(rng, (3, 4)), randt(rng, (3, 4))
        s = T.silu(z)
        ref = weakref.ref(s.data)
        y = T.mul(a, s)
        del s
        assert ref() is None
        y.backward(np.ones(y.shape, dtype=y.dtype))
        assert a.grad is not None and z.grad is not None

    def test_mul_rebuilds_its_output_only_from_two_kept_arrays(self):
        rng = np.random.default_rng(2)
        a, b = randt(rng, (3, 4)), randt(rng, (3, 4))
        assert T.mul(a, b)._rebuild is not None
        assert T.mul(a, 2.0)._rebuild is None                              # a scalar
        assert T.mul(a, Tensor(b.data))._rebuild is None                   # no gradient
        s = T.silu(b)
        assert T.mul(a, s)._rebuild.sources[1] is s._rebuild               # a recipe operand
        with T.no_grad():
            assert T.mul(a, b)._rebuild is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mul_of_silu_gradients_are_byte_equal_to_plain_arrays(self, dtype):
        rng = np.random.default_rng(3)
        # -100 and 100 take silu's saturated ends
        za = np.concatenate([rng.normal(size=(5, 6)) * 3.0, [[-100.0] * 6, [100.0] * 6]])
        aa = rng.normal(size=za.shape)
        seed = rng.normal(size=za.shape).astype(dtype)

        def run(plain):
            a, z = Tensor(aa.astype(dtype), requires_grad=True), Tensor(za.astype(dtype), requires_grad=True)
            s = T.silu(z)
            if plain:
                s._rebuild = None
            ref = weakref.ref(s.data)
            y = T.mul(a, s)
            del s
            y.backward(seed)
            return y.data, a.grad, z.grad, ref() is None

        want = run(plain=True)
        got = run(plain=False)
        assert got[3] and not want[3]
        for w, g in zip(want[:3], got[:3]):
            assert g.dtype == dtype and g.tobytes() == w.tobytes()

    # 2 full chunks and a ragged one: the carry runs across two boundaries
    L, TN, H, P, S = 2, 2 * T.SCAN_CHUNK + 3, 2, 3, 4
    NC = 3

    def scan_of_mul(self, dtype, plain=False):
        rng = np.random.default_rng(4)
        la, xh, b, c = (Tensor(a, requires_grad=True)
                        for a in scan_inputs(rng, self.TN, self.L, self.H, self.P, self.S, dtype))
        d = Tensor(rng.uniform(0.5, 1.5, xh.shape).astype(dtype), requires_grad=True)
        xdt = T.mul(xh, d)
        if plain:
            xdt._rebuild = None
        return T.ssm_scan(la, xdt, b, c), xdt, (la, xh, b, c, d)

    def test_ssm_scan_of_a_mul_output_keeps_no_chunk_copy_or_chunk_state(self):
        y, _, _ = self.scan_of_mul(np.float32)
        L, nc, H, Q, P, S = self.L, self.NC, self.H, T.SCAN_CHUNK, self.P, self.S
        shapes = {a.shape for a in kept_arrays(y)}
        assert (L, nc, H, Q, P) not in shapes                        # the chunks of xdt
        assert (L, nc - 1, H, S, P) not in shapes                    # local
        assert (L, nc, H, S, P) not in shapes                        # h_in
        assert (L, nc, H, Q, S) not in shapes                        # Ce

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ssm_scan_of_mul_gradients_are_byte_equal_to_plain_arrays(self, dtype):
        seed = np.random.default_rng(5).normal(size=(self.L, self.TN, self.H, self.P)).astype(dtype)

        def run(plain):
            y, xdt, leaves = self.scan_of_mul(dtype, plain)
            keeps_xdt = any(a is xdt.data for a in kept_arrays(y))
            y.backward(seed)
            return [y.data] + [t.grad for t in leaves], keeps_xdt

        # the reference keeps xdt's array; the recipe path keeps no array of it
        want, want_kept = run(plain=True)
        got, got_kept = run(plain=False)
        assert want_kept and not got_kept
        for w, g in zip(want, got):
            assert g.dtype == dtype and g.tobytes() == w.tobytes()


class TestRecipeChains:
    """Recipes that read recipes: slices and reshapes of a ``linear`` output.

    The reference clears every recipe (``_keep`` hands each op the array), so
    each op keeps the arrays it reads.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    def test_gradients_are_byte_equal_to_kept_arrays(self, dtype, bias, monkeypatch):
        rng = np.random.default_rng(6)
        arrays = {"x": rng.normal(size=(3, 5, 6)), "w": rng.normal(size=(6, 10)),
                  "b": rng.normal(size=10), "cw": rng.normal(size=(4, 4))}
        seed = rng.normal(size=(3, 5, 8)).astype(dtype)

        def run():
            t = {k: Tensor(a.astype(dtype), requires_grad=True) for k, a in arrays.items()}
            u = T.linear(t["x"], t["w"], t["b"] if bias else None)
            parts = [T.narrow(u, -1, lo, 4) for lo in (0, 4, 6)]
            refs = [weakref.ref(a.data) for a in [u, *parts]]
            z, xs, cin = parts
            xs = T.reshape(T.reshape(xs, (3, 5, 2, 2)), (3, 5, 4))
            y = T.concat([T.silu(z) * xs, T.causal_depthwise_conv(cin, t["cw"]) * xs], axis=-1)
            del u, parts, z, xs, cin
            freed = [r() is None for r in refs]
            y.backward(seed)
            return [y.data] + [v.grad for v in t.values() if v.grad is not None], freed

        got, got_freed = run()
        with monkeypatch.context() as m:
            m.setattr(T, "_keep", lambda t: t.data)
            want, want_freed = run()
        assert all(got_freed) and not any(want_freed[1:])
        assert len(got) == len(want) == (5 if bias else 4)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype and g.tobytes() == w.tobytes()

    def test_a_recipe_holds_its_sources_from_its_first_keep_to_its_build(self):
        rng = np.random.default_rng(7)
        x, w = randt(rng, (4, 3)), randt(rng, (3, 6))
        u = T.linear(x, w)
        z = T.narrow(u, -1, 0, 2)
        assert u._rebuild.readers == 0                  # nothing keeps z yet
        y = T.silu(z)
        assert z._rebuild.readers == 2 and u._rebuild.readers == 1
        y.backward(np.ones(y.shape))
        assert z._rebuild.readers == u._rebuild.readers == 0
        assert z._rebuild.array is None and u._rebuild.array is None


class TestRecipeRule:
    """Every op that can carry a recipe: a recorded result carries one that
    rebuilds its array bit for bit; an unrecorded result carries none."""

    OPS = {
        "mul": lambda t: T.mul(t(3, 4), t(3, 4)),
        "silu": lambda t: T.silu(t(3, 4)),
        "linear": lambda t: T.linear(t(2, 3, 8), t(8, 6), t(6)),
        "reshape": lambda t: T.reshape(T.linear(t(2, 3, 8), t(8, 6)), (6, 6)),
        "narrow": lambda t: T.narrow(T.linear(t(2, 3, 8), t(8, 6)), -1, 1, 3),
        "layer_norm": lambda t: T.layer_norm(t(2, 3, 8), t(8), t(8)),
        "rms_norm": lambda t: T.rms_norm(t(2, 3, 8), t(8)),
    }

    @staticmethod
    def maker(dtype=np.float32, requires_grad=True):
        rng = np.random.default_rng(8)
        return lambda *shape: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=requires_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", OPS)
    def test_a_recorded_result_carries_a_recipe_for_its_array(self, op, dtype):
        y = self.OPS[op](self.maker(dtype))
        assert y._node is not None and y._rebuild is not None
        rebuilt = y._rebuild.keep().take()
        assert rebuilt.dtype == y.dtype and rebuilt.tobytes() == y.data.tobytes()
        assert y._rebuild.readers == 0 and y._rebuild.array is None

    @pytest.mark.parametrize("op", OPS)
    def test_an_unrecorded_result_carries_none(self, op):
        with T.no_grad():
            assert self.OPS[op](self.maker())._rebuild is None
        y = self.OPS[op](self.maker(requires_grad=False))       # no operand records
        assert y._node is None and y._rebuild is None

    def test_a_recorded_result_its_node_cannot_rebuild_carries_none(self):
        t = self.maker()
        x = t(2, 3, 8)
        assert T.reshape(x, (6, 8))._rebuild is None                  # a leaf has no recipe
        assert T.narrow(x, -1, 0, 4)._rebuild is None
        assert T.linear(x, T.mul(t(8, 6), 1.0))._rebuild is None      # a weight no leaf
        assert T.linear(x, t(8, 6), T.mul(t(6), 1.0))._rebuild is None
        assert T.linear(x, Tensor(t(8, 6).data))._rebuild is None     # the input is not kept
        assert T.mul(x, Tensor(x.data))._rebuild is None              # one operand kept


class TestExpOverflow:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_and_softplus_far_below_zero_warn_nothing(self, dtype):
        # exp(-x) overflows to inf for x << 0; the limits sig -> 0 and slope -> 0 are exact
        x = np.array([-1000.0, -100.0, -1.0, 0.0, 3.0], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = Tensor(x, requires_grad=True)
            s = T.silu(a)
            s.backward(np.ones_like(x))
            b = Tensor(x, requires_grad=True)
            T.softplus(b).backward(np.ones_like(x))
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x))
        assert sig[0] == 0.0
        assert s.data.tobytes() == (x * sig).tobytes()
        assert a.grad.tobytes() == (sig * (1.0 + x * (1.0 - sig))).tobytes()
        assert b.grad.tobytes() == sig.tobytes()    # softplus' slope is the sigmoid


class TestMatmulOracle:
    def test_against_triple_loop(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        want = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.allclose(got, want, atol=1e-12)

    # [rows, heads, agents, head dim] of the attention in a small (B=32) and a
    # full (B=8) training step
    @pytest.mark.parametrize("shape", [(448, 8, 5, 4), (112, 8, 11, 16)])
    def test_backward_equals_the_swapaxes_form(self, shape):
        rng = np.random.default_rng(10)
        R, H, N, hd = shape
        q, v = rng.normal(size=(2, R, H, N, hd)).astype(np.float32)
        k_t = rng.normal(size=(R, H, hd, N)).astype(np.float32)
        attn = rng.random(size=(R, H, N, N)).astype(np.float32)
        for a, b in ((q, k_t), (attn, v)):
            at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            y = T.matmul(at, bt)
            g = rng.normal(size=y.shape).astype(np.float32)
            y.backward(g)
            assert at.grad.tobytes() == np.matmul(g, np.swapaxes(b, -1, -2)).tobytes()
            assert bt.grad.tobytes() == np.matmul(np.swapaxes(a, -1, -2), g).tobytes()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


class TestTransposeOracle:
    """``transpose`` against ``np.ascontiguousarray(x.transpose(axes))``, byte for byte."""

    @staticmethod
    def payload_array(shape, dtype):
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape).astype(dtype)
        bits = x.reshape(-1).view(np.uint32 if dtype == np.float32 else np.uint64)
        nans = (0x7FC12345, 0xFFA00001) if dtype == np.float32 else \
            (0x7FF8000000012345, 0xFFF4000000000001)
        for i, pattern in zip(range(0, bits.size, 7), itertools.cycle(nans)):
            bits[i] = pattern       # quiet and signalling NaNs, with payloads
        x.reshape(-1)[3::11] = -0.0
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, axes", [
        ((1280, 1, 5, 8, 4), (0, 1, 3, 2, 4)),   # the attention's head split
        ((3, 4, 5, 6), (2, 0, 1, 3)),
        ((3, 4, 5, 6), (0, 2, 3, 1)),            # the last axis moves: element copy
        ((7, 1), (1, 0)),
        ((2, 3), (0, 1)),
        ((0, 3, 4), (1, 0, 2)),
        ((3, 0, 4), (1, 0, 2)),
        ((3, 4, 0), (1, 0, 2)),
    ])
    def test_matches_numpy(self, dtype, shape, axes):
        x = self.payload_array(shape, dtype)
        for arr in (x, x[::-1]):                # C-contiguous, then a strided view
            got = T.transpose(Tensor(arr), axes).data
            want = np.ascontiguousarray(arr.transpose(axes))
            assert got.dtype == dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


class TestMaxPoolOracle:
    def brute(self, x, g):
        """The max over each prefix, and the gradient it passes back for ``g``."""
        out, gx = np.empty_like(x), np.zeros_like(x)
        for lead in np.ndindex(x.shape[:-2]):
            for t in range(x.shape[-2]):
                for d in range(x.shape[-1]):
                    seg = list(x[lead][: t + 1, d])
                    s = seg.index(max(seg))         # lowest-index argmax
                    out[lead][t, d] = x[lead][s, d]
                    gx[lead][s, d] += g[lead][t, d]
        return out, gx

    @pytest.mark.parametrize("frames", [1, 2, 3, 5, 8, 12])
    def test_matches_brute_force(self, frames):
        rng = np.random.default_rng(frames)
        for trial, dtype in itertools.product(range(7), (np.float32, np.float64)):
            x = rng.normal(size=(2, frames, 3)).astype(dtype)
            if trial >= 5:
                # frames at -1e31 or -inf still take part in the max
                x[rng.random(x.shape) < 0.5] = (-1e31, -np.inf)[trial - 5]
            g = rng.normal(size=x.shape).astype(dtype)
            xt = Tensor(x, requires_grad=True)
            got = T.max_pool_window(xt)
            got.backward(g)
            want, want_grad = self.brute(x, g)
            assert np.array_equal(got.data, want)
            assert np.array_equal(xt.grad, want_grad)

    @pytest.mark.parametrize("frames, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_kept_index_is_narrow(self, frames, dtype):
        rng = np.random.default_rng(frames)
        x = rng.normal(size=(2, frames, 3)).astype(np.float32)
        x[0, frames // 2:] += 10.0              # a late argmax
        g = rng.normal(size=x.shape).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        y = T.max_pool_window(xt)
        kept = [c.cell_contents for c in y._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert [a.dtype for a in kept] == [dtype] and kept[0].shape == x.shape
        y.backward(g)
        want, want_grad = self.brute(x, g)
        assert np.array_equal(y.data, want) and np.array_equal(xt.grad, want_grad)

    def test_tie_routes_to_lowest_index(self):
        x = np.zeros((1, 4, 1), dtype=np.float32)
        x[0, :, 0] = [1.0, 1.0, 0.5, 1.0]
        xt = Tensor(x, requires_grad=True)
        T.max_pool_window(xt).sum().backward()
        # argmax of each prefix: t=0 -> 0; t=1 tie -> 0; t=2 -> 0; t=3 tie -> 0
        assert np.array_equal(xt.grad[0, :, 0], [4.0, 0.0, 0.0, 0.0])


class TestConvOracle:
    def test_against_explicit_sum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 6, 3)).astype(np.float32)
        w = rng.normal(size=(4, 3)).astype(np.float32)
        got = T.causal_depthwise_conv(Tensor(x), Tensor(w)).data
        K = 4
        want = np.zeros_like(x)
        for t in range(6):
            for j in range(K):
                src = t - K + 1 + j
                if src >= 0:
                    want[:, t] += x[:, src] * w[j]
        assert np.allclose(got, want, atol=1e-6)

    def test_causal(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 8, 2)).astype(np.float32)
        w = rng.normal(size=(3, 2)).astype(np.float32)
        y1 = T.causal_depthwise_conv(Tensor(x), Tensor(w)).data
        x2 = x.copy()
        x2[:, 5:] += 100.0
        y2 = T.causal_depthwise_conv(Tensor(x2), Tensor(w)).data
        assert np.array_equal(y1[:, :5], y2[:, :5])


def step_loop(log_decay, xdt, b, c):
    """The recurrence as rollout runs it: ``ssm_scan_step`` frame by frame."""
    L, Tn, H = log_decay.shape
    h = np.zeros((L, H, xdt.shape[-1], b.shape[-1]), dtype=xdt.dtype)
    ys = []
    for t in range(Tn):
        y, h = T.ssm_scan_step(h, log_decay[:, t], xdt[:, t], b[:, t], c[:, t])
        ys.append(y)
    return np.stack(ys, axis=1)


def scan_inputs(rng, Tn, L=2, H=2, P=3, S=4, dtype=np.float32):
    """log decays of decays drawn from [0.05, 0.999], and normal x, B, C."""
    la = np.log(rng.uniform(0.05, 0.999, (L, Tn, H)))
    return tuple(a.astype(dtype) for a in (
        la, rng.normal(size=(L, Tn, H, P)), rng.normal(size=(L, Tn, S)),
        rng.normal(size=(L, Tn, S)),
    ))


class TestSSMScan:
    def hand_recurrence(self, dec, xdt, b, c):
        L, Tn, H = dec.shape
        P, S = xdt.shape[-1], b.shape[-1]
        y = np.zeros((L, Tn, H, P))
        for l in range(L):
            h = np.zeros((H, P, S))
            for t in range(Tn):
                h = dec[l, t][:, None, None] * h + xdt[l, t][:, :, None] * b[l, t][None, None, :]
                for hh in range(H):
                    y[l, t, hh] = h[hh] @ c[l, t]
        return y

    def test_matches_hand_recurrence(self):
        rng = np.random.default_rng(11)
        dec = rng.uniform(0.1, 0.99, (2, 5, 3))
        xdt = rng.normal(size=(2, 5, 3, 2))
        b = rng.normal(size=(2, 5, 4))
        c = rng.normal(size=(2, 5, 4))
        got = T.ssm_scan(Tensor(np.log(dec)), Tensor(xdt), Tensor(b), Tensor(c)).data
        assert np.allclose(got, self.hand_recurrence(dec, xdt, b, c), atol=1e-6)

    @pytest.mark.parametrize("Tn,P", [(7, 3), (33, 32), (64, 32), (40, 8)])
    def test_chunked_matches_sequential(self, Tn, P):
        rng = np.random.default_rng(Tn * 100 + P)
        la, xdt, b, c = scan_inputs(rng, Tn, P=P)
        with T.no_grad():
            got = T.ssm_scan(la, xdt, b, c).data
        assert np.abs(got - step_loop(la, xdt, b, c)).max() < 1e-4

    @pytest.mark.parametrize("Tn", [23, 64])
    def test_step_loop_parity(self, Tn):
        la, xdt, b, c = scan_inputs(np.random.default_rng(Tn), Tn, L=3, P=32, S=8)
        got = T.ssm_scan(la, xdt, b, c).data
        ref = step_loop(la, xdt, b, c)
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_gradients_across_chunk_boundaries(self):
        # two chunk boundaries and a ragged last chunk
        Tn = 2 * T.SCAN_CHUNK + 3
        rng = np.random.default_rng(17)
        ps = [Tensor(a, requires_grad=True)
              for a in scan_inputs(rng, Tn, dtype=np.float64)]
        w = Tensor(rng.normal(size=ps[1].shape))
        assert grad_check(lambda: (T.ssm_scan(*ps) * w).sum(), ps) < 1e-6

    def test_output_does_not_depend_on_length(self):
        Tn = 3 * T.SCAN_CHUNK + 5
        la, xdt, b, c = scan_inputs(np.random.default_rng(19), Tn, P=8)
        full = T.ssm_scan(la, xdt, b, c).data
        for t in range(1, Tn + 1):
            part = T.ssm_scan(la[:, :t], xdt[:, :t], b[:, :t], c[:, :t]).data
            assert part.tobytes() == full[:, :t].tobytes(), t

    def test_underflowing_decay(self):
        # exp(-1e4) is 0 in any float: the state forgets everything each frame
        _, xdt, b, c = scan_inputs(np.random.default_rng(23), 2 * T.SCAN_CHUNK + 3)
        la = np.full(xdt.shape[:3], -1e4, dtype=np.float32)
        ps = [Tensor(a, requires_grad=True) for a in (la, xdt, b, c)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = T.ssm_scan(*ps)
            (y * y).sum().backward()
            ref = step_loop(la, xdt, b, c)
        assert np.isfinite(y.data).all()
        assert all(np.isfinite(p.grad).all() for p in ps)
        assert np.abs(y.data - ref).max() < 1e-4

    def test_step_matches_scan(self):
        rng = np.random.default_rng(13)
        L, Tn, H, P, S = 2, 6, 2, 3, 4
        dec = rng.uniform(0.2, 0.95, (L, Tn, H)).astype(np.float32)
        xdt = rng.normal(size=(L, Tn, H, P)).astype(np.float32)
        b = rng.normal(size=(L, Tn, S)).astype(np.float32)
        c = rng.normal(size=(L, Tn, S)).astype(np.float32)
        la = np.log(dec)
        with T.no_grad():
            full = T.ssm_scan(Tensor(la), Tensor(xdt), Tensor(b), Tensor(c)).data
        h = np.zeros((L, H, P, S), dtype=np.float32)
        for t in range(Tn):
            y, h = T.ssm_scan_step(h, la[:, t], xdt[:, t], b[:, t], c[:, t])
            assert np.allclose(y, full[:, t], atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            T.ssm_scan(
                Tensor(np.ones((1, 2, 3))),
                Tensor(np.ones((1, 2, 3, 4))),
                Tensor(np.ones((1, 3, 5))),
                Tensor(np.ones((1, 2, 5))),
            )


class TestGradCheck:
    def test_rejects_non_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradCheckError):
            grad_check(lambda: x * 2.0, [x])

    def test_flags_non_finite(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        with np.errstate(divide="ignore"), pytest.raises(GradCheckError):
            grad_check(lambda: T.log(x).sum(), [x])

    def test_restores_parameters(self):
        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        before = x.data.copy()
        grad_check(lambda: (x * x).sum(), [x])
        assert x.data.dtype == np.float32
        assert np.array_equal(x.data, before)
        assert x.grad is None

    def test_subsampling_deterministic(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(10, 10)), requires_grad=True)
        e1 = grad_check(lambda: (x * x).sum(), [x], max_coords_per_param=5,
                        rng=np.random.default_rng(0))
        e2 = grad_check(lambda: (x * x).sum(), [x], max_coords_per_param=5,
                        rng=np.random.default_rng(0))
        assert e1 == e2

    def test_detects_wrong_gradient(self):
        # a deliberately broken op: forward x^2 but gradient of x
        x = Tensor(np.array([1.3]), requires_grad=True)

        def broken():
            out = Tensor._result(x.data * x.data, (x,), lambda g: (g,))
            return out.sum()

        assert grad_check(broken, [x]) > 1e-2


class TestDtypePromotion:
    def test_f32_f64_mix(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = T.cast(a, np.float64)
        out = (b * 2.0).sum()
        assert out.dtype == np.float64
        out.backward()
        assert a.grad.dtype == np.float32

    def test_narrow_out_of_range(self):
        with pytest.raises(ShapeError):
            T.narrow(Tensor(np.ones((2, 3))), 1, 2, 2)
