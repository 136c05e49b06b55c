"""Mixture-of-Gaussians displacement head over joint multi-agent steps.

A prediction for one timestep is a mixture with M components. Component m
carries one 2-d Gaussian per agent, parameterized by a mean and the three
entries of a lower-triangular Cholesky factor (log-diagonal storage):

    L = [[exp(l11), 0      ],
         [l21,      exp(l22)]]        Sigma = L @ L.T

Agents are conditionally independent given the component, so the joint
covariance over the 2N stacked displacement coordinates is block diagonal.
All density math runs in float64 regardless of the network dtype.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import tensor as T
from .errors import ParameterizationError, ShapeError
from .tensor import Tensor

LOG_2PI = math.log(2.0 * math.pi)
CHOL_LOG_CLAMP = 7.0
ENTROPY_EPS = 1e-8
ENTROPY_WEIGHT = 0.05


def _validate(logits, means, chol_params, targets=None) -> tuple[int, int]:
    if means.shape[-1] != 2:
        raise ParameterizationError(f"means must end in 2 coordinates, got {means.shape}")
    if chol_params.shape[-1] != 3:
        raise ParameterizationError(
            f"chol_params must end in 3 entries, got {chol_params.shape}"
        )
    M = logits.shape[-1]
    N = means.shape[-2]
    if means.shape[:-2] != logits.shape:
        raise ShapeError(f"means {means.shape} inconsistent with logits {logits.shape}")
    if chol_params.shape[:-1] != means.shape[:-1]:
        raise ShapeError(f"chol_params {chol_params.shape} vs means {means.shape}")
    if targets is not None and targets.shape != logits.shape[:-1] + (N, 2):
        raise ShapeError(
            f"targets {targets.shape} inconsistent with means {means.shape}"
        )
    return M, N


def joint_log_density(logits, means, chol_params, targets) -> Tensor:
    """Log-likelihood of joint displacements under the mixture.

    Shapes: logits [..., M]; means, chol_params [..., M, N, 2|3];
    targets [..., N, 2]. Returns [...]. Unnormalized logits are accepted;
    the mixture weights are softmax(logits), folded in as
    logsumexp(logits + logdens) - logsumexp(logits).
    """
    logits = T.as_tensor(logits)
    means = T.as_tensor(means)
    chol_params = T.as_tensor(chol_params)
    targets = T.as_tensor(targets)
    _validate(logits, means, chol_params, targets)

    logits = T.cast(logits, np.float64)
    means = T.cast(means, np.float64)
    chol_params = T.cast(chol_params, np.float64)
    targets = T.cast(targets, np.float64)

    tgt = T.reshape(targets, targets.shape[:-2] + (1,) + targets.shape[-2:])
    tgt = T.broadcast_to(tgt, means.shape)
    r = tgt - means
    rx = T.narrow(r, -1, 0, 1)
    ry = T.narrow(r, -1, 1, 1)

    l11 = T.clamp(T.narrow(chol_params, -1, 0, 1), -CHOL_LOG_CLAMP, CHOL_LOG_CLAMP)
    l21 = T.narrow(chol_params, -1, 1, 1)
    l22 = T.clamp(T.narrow(chol_params, -1, 2, 1), -CHOL_LOG_CLAMP, CHOL_LOG_CLAMP)

    z1 = rx / T.exp(l11)
    z2 = (ry - l21 * z1) / T.exp(l22)
    per_agent = -0.5 * (z1 * z1 + z2 * z2) - l11 - l22 - LOG_2PI
    logdens = per_agent.sum(axis=(-2, -1))          # [..., M]

    if logits.shape[-1] == 1:
        # single component: the weight terms cancel exactly, skip them
        return logdens.sum(axis=-1)
    return T.logsumexp_lastdim(logits + logdens) - T.logsumexp_lastdim(logits)


def step_nll(logits, means, chol_params, targets) -> Tensor:
    """Per-step negative log-likelihood, shape [...]."""
    return -joint_log_density(logits, means, chol_params, targets)


def mixture_entropy(logits) -> Tensor:
    """Entropy of the mixture weights normalized to [0, 1]; zero when M == 1."""
    logits = T.cast(T.as_tensor(logits), np.float64)
    M = logits.shape[-1]
    if M == 1:
        return Tensor(np.zeros(logits.shape[:-1], dtype=np.float64))
    pi = T.softmax_lastdim(logits)
    ent = -(pi * T.log(pi + ENTROPY_EPS)).sum(axis=-1)
    return ent * (1.0 / math.log(M))


def sequence_loss(logits, means, chol_params, targets) -> tuple[Tensor, dict]:
    """Training objective: mean step NLL minus ENTROPY_WEIGHT * mean normalized entropy."""
    nll = step_nll(logits, means, chol_params, targets).mean()
    ent = mixture_entropy(logits).mean()
    loss = nll - ENTROPY_WEIGHT * ent
    return loss, {"nll": float(nll.data), "entropy": float(ent.data)}


# -- inference-side helpers (plain ndarrays, no graph) ----------------------------


def chol_matrices(chol_params: np.ndarray) -> np.ndarray:
    """Materialize [..., 2, 2] lower-triangular factors (float64, clamped)."""
    cp = np.asarray(chol_params, dtype=np.float64)
    if cp.shape[-1] != 3:
        raise ParameterizationError(f"chol_params must end in 3 entries, got {cp.shape}")
    l11 = np.clip(cp[..., 0], -CHOL_LOG_CLAMP, CHOL_LOG_CLAMP)
    l22 = np.clip(cp[..., 2], -CHOL_LOG_CLAMP, CHOL_LOG_CLAMP)
    L = np.zeros(cp.shape[:-1] + (2, 2), dtype=np.float64)
    L[..., 0, 0] = np.exp(l11)
    L[..., 1, 0] = cp[..., 1]
    L[..., 1, 1] = np.exp(l22)
    return L


def components_from_uniforms(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical pick: component index per leading index of u [...].

    The weights are ``softmax_lastdim`` of the logits widened to float64.
    """
    weights = T.softmax_lastdim(np.asarray(logits, dtype=np.float64)).data
    cum = np.cumsum(weights, axis=-1)
    m = (np.asarray(u)[..., None] > cum).sum(axis=-1)
    return np.minimum(m, cum.shape[-1] - 1)


def _take_component(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Component m [...]'s rows [..., N, c] of a [..., M, N, c], gathered, then made float64."""
    rows = np.take_along_axis(np.asarray(a), m[..., None, None, None], axis=-3)[..., 0, :, :]
    return rows.astype(np.float64)


def displacements_from_normals(
    means: np.ndarray, chol_params: np.ndarray, components: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Joint displacement [..., N, 2] float32: mu_m + L_m eps for component m.

    eps [..., N, 2] holds standard normals; ``components`` [...] picks m; only L_m is built.
    """
    m = np.asarray(components)
    L = chol_matrices(_take_component(chol_params, m))
    return (_take_component(means, m) + np.einsum("...ij,...j->...i", L, eps)).astype(np.float32)


def sample_displacements(
    rngs: Sequence[np.random.Generator],
    logits: np.ndarray,
    means: np.ndarray,
    chol_params: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one joint displacement per leading index, one generator per row.

    Shapes: logits [R, ..., M]; means, chol_params [R, ..., M, N, 2|3];
    ``rngs`` holds R generators. Generator r fills row r's uniforms first
    (one per index: the component all agents share), then its standard
    normals, so a row's draws do not depend on the other rows. Returns
    (displacements [R, ..., N, 2] float32, components [R, ...]).
    """
    logits = np.asarray(logits)
    lead = logits.shape[:-1]
    if not lead or lead[0] != len(rngs):
        raise ShapeError(
            f"need one generator per row of logits {logits.shape}, got {len(rngs)}"
        )
    u = np.empty(lead)
    eps = np.empty(lead + np.shape(means)[-2:])
    rest = lead[1:] or None                  # a row's uniforms; one float for 1-D logits
    for r, g in enumerate(rngs):
        u[r] = g.random(rest)
        g.standard_normal(out=eps[r])
    m = components_from_uniforms(logits, u)
    return displacements_from_normals(means, chol_params, m, eps), m


def mode_displacements(logits: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the highest-weight component per leading index.

    Returns (displacements [..., N, 2] float32, components [...]), as
    ``sample_displacements`` does.
    """
    m = np.argmax(np.asarray(logits), axis=-1)
    return _take_component(means, m).astype(np.float32), m
