"""Mixture head: density against dense-covariance and extended-precision oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from causaltraj import mdn
from causaltraj import tensor as T
from causaltraj.errors import ParameterizationError, ShapeError
from causaltraj.tensor import Tensor, grad_check


def random_params(rng, shape_prefix, M, N, chol_scale=0.6):
    logits = rng.normal(size=shape_prefix + (M,))
    means = rng.normal(size=shape_prefix + (M, N, 2))
    chols = rng.normal(0.0, chol_scale, size=shape_prefix + (M, N, 3))
    targets = rng.normal(size=shape_prefix + (N, 2))
    return logits, means, chols, targets


def dense_oracle(logits, means, chols, target):
    """Assemble the block-diagonal 2N-covariance per component; scipy logpdf."""
    M, N = means.shape[0], means.shape[1]
    comps = np.empty(M)
    for m in range(M):
        L = mdn.chol_matrices(chols[m])
        cov = np.zeros((2 * N, 2 * N))
        for n in range(N):
            cov[2 * n: 2 * n + 2, 2 * n: 2 * n + 2] = L[n] @ L[n].T
        comps[m] = stats.multivariate_normal.logpdf(
            target.reshape(-1), means[m].reshape(-1).astype(np.float64), cov
        )
    z = logits.astype(np.float64)
    return logsumexp(z + comps) - logsumexp(z)


class TestJointLogDensity:
    def test_matches_dense_covariance(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            M = int(rng.integers(1, 5))
            N = int(rng.integers(1, 6))
            logits, means, chols, targets = random_params(rng, (), M, N)
            with T.no_grad():
                got = float(
                    mdn.joint_log_density(
                        Tensor(logits), Tensor(means), Tensor(chols), Tensor(targets)
                    ).data
                )
            want = dense_oracle(logits, means, chols, targets)
            assert abs(got - want) < 1e-9, trial

    def test_extended_precision_mixture_sum(self):
        # recompute the weighted mixture with 60-digit arithmetic
        rng = np.random.default_rng(1)
        M, N = 4, 3
        logits, means, chols, targets = random_params(rng, (), M, N)
        with T.no_grad():
            got = float(
                mdn.joint_log_density(
                    Tensor(logits), Tensor(means), Tensor(chols), Tensor(targets)
                ).data
            )
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            norm = mpmath.mpf(0)
            for m in range(M):
                logdens = mpmath.mpf(0)
                for n in range(N):
                    l11 = mpmath.mpf(float(np.clip(chols[m, n, 0], -7, 7)))
                    l21 = mpmath.mpf(float(chols[m, n, 1]))
                    l22 = mpmath.mpf(float(np.clip(chols[m, n, 2], -7, 7)))
                    rx = mpmath.mpf(float(targets[n, 0] - means[m, n, 0]))
                    ry = mpmath.mpf(float(targets[n, 1] - means[m, n, 1]))
                    z1 = rx / mpmath.e**l11
                    z2 = (ry - l21 * z1) / mpmath.e**l22
                    logdens += -(z1**2 + z2**2) / 2 - l11 - l22 - mpmath.log(2 * mpmath.pi)
                total += mpmath.e ** (mpmath.mpf(float(logits[m])) + logdens)
                norm += mpmath.e ** mpmath.mpf(float(logits[m]))
            want = float(mpmath.log(total / norm))
        assert abs(got - want) < 1e-10

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits, means, chols, targets = random_params(rng, (6,), 5, 4)
        with T.no_grad():
            base = mdn.joint_log_density(
                Tensor(logits), Tensor(means), Tensor(chols), Tensor(targets)
            ).data
            for shift in (1.0, -57.25, 300.0):
                moved = mdn.joint_log_density(
                    Tensor(logits + shift), Tensor(means), Tensor(chols), Tensor(targets)
                ).data
                assert np.abs(moved - base).max() < 1e-12

    def test_clamp_active_beyond_limits(self):
        rng = np.random.default_rng(3)
        logits, means, chols, targets = random_params(rng, (), 2, 2)
        hot = chols.copy()
        hot[..., 0] = 25.0
        hot[..., 2] = -25.0
        clamped = hot.copy()
        clamped[..., 0] = 7.0
        clamped[..., 2] = -7.0
        with T.no_grad():
            a = mdn.joint_log_density(Tensor(logits), Tensor(means), Tensor(hot), Tensor(targets))
            b = mdn.joint_log_density(
                Tensor(logits), Tensor(means), Tensor(clamped), Tensor(targets)
            )
        assert float(a.data) == float(b.data)

    def test_single_component_drops_logit(self):
        rng = np.random.default_rng(4)
        _, means, chols, targets = random_params(rng, (3,), 1, 2)
        with T.no_grad():
            a = mdn.joint_log_density(
                Tensor(np.full((3, 1), -9.9)), Tensor(means), Tensor(chols), Tensor(targets)
            ).data
            b = mdn.joint_log_density(
                Tensor(np.full((3, 1), 44.0)), Tensor(means), Tensor(chols), Tensor(targets)
            ).data
        assert np.array_equal(a, b)

    def test_identity_unit_gaussian_value(self):
        # target at the mean with unit covariance: N * log(2*pi) per step
        for N in (1, 4, 11):
            lg = Tensor(np.zeros((1, 1)))
            mu = Tensor(np.random.default_rng(N).normal(size=(1, 1, N, 2)))
            ch = Tensor(np.zeros((1, 1, N, 3)))
            with T.no_grad():
                nll = mdn.step_nll(lg, mu, ch, Tensor(mu.data[:, 0])).data.item()
            assert abs(nll - N * math.log(2 * math.pi)) < 1e-6

    def test_gradients(self):
        rng = np.random.default_rng(5)
        logits, means, chols, targets = random_params(rng, (2,), 3, 2)
        lg, mn, ch = (Tensor(v, requires_grad=True) for v in (logits, means, chols))
        tg = Tensor(targets)
        err = grad_check(lambda: mdn.sequence_loss(lg, mn, ch, tg)[0], [lg, mn, ch])
        assert err < 1e-5

    def test_shape_validation(self):
        rng = np.random.default_rng(6)
        logits, means, chols, targets = random_params(rng, (2,), 3, 2)
        with pytest.raises(ShapeError):
            mdn.joint_log_density(
                Tensor(logits), Tensor(means), Tensor(chols), Tensor(targets[:1])
            )
        with pytest.raises(ParameterizationError):
            mdn.joint_log_density(
                Tensor(logits), Tensor(means), Tensor(chols[..., :2]), Tensor(targets)
            )


class TestEntropy:
    def test_uniform_is_one(self):
        for M in (2, 5, 8):
            with T.no_grad():
                e = mdn.mixture_entropy(Tensor(np.zeros((1, M)))).data.item()
            assert abs(e - 1.0) < 1e-6

    def test_peaked_is_small(self):
        z = np.full((1, 6), -40.0)
        z[0, 2] = 40.0
        with T.no_grad():
            e = mdn.mixture_entropy(Tensor(z)).data.item()
        assert e < 1e-6

    def test_single_component_is_zero(self):
        with T.no_grad():
            e = mdn.mixture_entropy(Tensor(np.zeros((4, 1)))).data
        assert np.array_equal(e, np.zeros(4))

    def test_sequence_loss_combines(self):
        rng = np.random.default_rng(7)
        logits, means, chols, targets = random_params(rng, (3,), 4, 2)
        lg, mn, ch, tg = (Tensor(v) for v in (logits, means, chols, targets))
        loss, stats = mdn.sequence_loss(lg, mn, ch, tg)
        assert abs(float(loss.data) - (stats["nll"] - 0.05 * stats["entropy"])) < 1e-12


class TestSampling:
    def test_component_frequencies(self):
        rng = np.random.default_rng(8)
        logits = np.array([0.3, -0.5, 1.2, 0.0])
        e = np.exp(logits - logits.max())
        pi = e / e.sum()
        _, comps = mdn.sample_displacements(
            [rng],
            np.broadcast_to(logits, (1, 40000, 4)),
            np.zeros((1, 40000, 4, 1, 2)),
            np.zeros((1, 40000, 4, 1, 3)),
        )
        draws = comps[0]
        freq = np.bincount(draws, minlength=4) / 40000
        assert np.abs(freq - pi).max() < 0.02

    def test_sample_moments(self):
        rng = np.random.default_rng(9)
        n_draws = 40000
        M, N = 2, 2
        logits = np.array([0.4, -0.4])
        means = rng.normal(size=(M, N, 2))
        chols = rng.normal(0.0, 0.4, size=(M, N, 3))
        lg = np.broadcast_to(logits, (1, n_draws, M))
        mn = np.broadcast_to(means, (1, n_draws, M, N, 2))
        ch = np.broadcast_to(chols, (1, n_draws, M, N, 3))
        dx, comp = (a[0] for a in mdn.sample_displacements([rng], lg, mn, ch))
        L = mdn.chol_matrices(chols)
        want_cov = L @ np.swapaxes(L, -1, -2)
        for m in range(M):
            sel = dx[comp == m].astype(np.float64)
            for n in range(N):
                got = np.cov(sel[:, n].T)
                rel = np.linalg.norm(got - want_cov[m, n]) / np.linalg.norm(want_cov[m, n])
                assert rel < 0.05, (m, n, rel)
                assert np.abs(sel[:, n].mean(axis=0) - means[m, n]).max() < 0.05

    def test_forced_components(self):
        rng = np.random.default_rng(10)
        logits = np.zeros((5, 3))
        means = rng.normal(size=(5, 3, 2, 2))
        chols = np.full((5, 3, 2, 3), -30.0)   # tiny diagonals, zero off-diagonal
        chols[..., 1] = 0.0
        comp = np.array([0, 1, 2, 1, 0])
        dx = mdn.displacements_from_normals(means, chols, comp, rng.standard_normal((5, 2, 2)))
        picked = means[np.arange(5), comp]
        assert np.abs(dx - picked).max() < 1e-2

    def test_mode_displacements(self):
        logits = np.array([[0.1, 2.0, -1.0]])
        means = np.arange(3 * 2 * 2, dtype=np.float64).reshape(1, 3, 2, 2)
        out, comp = mdn.mode_displacements(logits, means)
        assert np.array_equal(out[0], means[0, 1].astype(np.float32))
        assert np.array_equal(comp, [1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_drawn_factor_matches_the_all_component_build(self, dtype):
        # building only the drawn component's factor must give, byte for byte,
        # what building all M factors and then gathering the drawn one gave
        rng = np.random.default_rng(12)
        R, S, M, N = 3, 400, 4, 5
        means = rng.normal(0.0, 3.0, size=(R, S, M, N, 2)).astype(dtype)
        chols = rng.normal(0.0, 6.0, size=(R, S, M, N, 3)).astype(dtype)
        chols[0, 0, :, 0] = [-50.0, 0.3, 50.0]          # far outside the clamp
        assert np.abs(chols[..., [0, 2]]).max() > mdn.CHOL_LOG_CLAMP
        comp = rng.integers(0, M, size=(R, S))
        eps = rng.standard_normal((R, S, N, 2))
        mu = np.take_along_axis(
            means.astype(np.float64), comp[..., None, None, None], axis=-3)[..., 0, :, :]
        L = mdn.chol_matrices(chols)
        Lm = np.take_along_axis(L, comp[..., None, None, None, None], axis=-4)[..., 0, :, :, :]
        old = (mu + np.einsum("...ij,...j->...i", Lm, eps)).astype(np.float32)
        new = mdn.displacements_from_normals(means, chols, comp, eps)
        assert new.dtype == np.float32 and new.tobytes() == old.tobytes()

        logits = rng.normal(size=(R, S, M))
        dx, m = mdn.mode_displacements(logits, means)
        old_mode = np.take_along_axis(means.astype(np.float64),
                                      np.argmax(logits, axis=-1)[..., None, None, None],
                                      axis=-3)[..., 0, :, :].astype(np.float32)
        assert dx.tobytes() == old_mode.tobytes()

    def test_rows_draw_from_their_own_generator(self):
        # row r's draws equal a one-row call with generator r alone, so a
        # rollout's scenarios do not depend on each other or on batching
        rng = np.random.default_rng(11)
        R, S, M, N = 4, 3, 3, 2
        logits, means, chols = random_params(rng, (R, S), M, N)[:3]
        seeds = [101, 202, 303, 404]
        dx, comp = mdn.sample_displacements(
            [np.random.default_rng(s) for s in seeds], logits, means, chols)
        assert dx.shape == (R, S, N, 2) and comp.shape == (R, S)
        for r, s in enumerate(seeds):
            dx_r, comp_r = mdn.sample_displacements(
                [np.random.default_rng(s)], logits[r: r + 1], means[r: r + 1], chols[r: r + 1])
            assert np.array_equal(dx_r[0], dx[r])
            assert np.array_equal(comp_r[0], comp[r])
        with pytest.raises(ShapeError):
            mdn.sample_displacements([rng], logits, means, chols)

    def test_chol_matrices_structure(self):
        cp = np.array([[0.5, 0.3, -0.2]])
        L = mdn.chol_matrices(cp)
        assert L[0, 0, 1] == 0.0
        assert np.isclose(L[0, 0, 0], np.exp(0.5))
        assert np.isclose(L[0, 1, 0], 0.3)
        assert np.isclose(L[0, 1, 1], np.exp(-0.2))
        with pytest.raises(ParameterizationError):
            mdn.chol_matrices(np.zeros((2, 4)))
