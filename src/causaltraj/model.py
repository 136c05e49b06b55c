"""Full forecaster: temporal encoder, relation stack, scene head, rollout.

The model consumes joint scenes ``positions [B, N, T, 2]`` with a fixed agent
roster. From frame t it predicts the parameters of a joint mixture density
over the displacement of all agents into frame t+1. Training runs teacher
forced and computes only the F = T - P scored frames P-1 .. T-2; inference
extends the scene autoregressively, sampling one mixture component per scene
per step (shared by all agents, so joint modes stay coherent).
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import importlib
import json
import math
import mmap
import numbers
import os
import pickle
import signal
import struct
import sys
import threading
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mdn
from . import tensor as T
from .data import CATEGORY_NAMES, atomic_write, open_binary
from .encoders import SSM_BLOCKS, SSM_CONV_WIDTH, SSM_EXPAND, PointNetEncoder, SSMEncoder
from .errors import (CausalTrajError, ConfigError, DataError, ShapeError,
                     TrajectoryFormatError)
from .nn import Dense, EmbeddingTable, MLP, Module
from .relation import FRAME_DIM, RelationEncoder, frame_features
from .tensor import Tensor

NUM_CATEGORIES = len(CATEGORY_NAMES)

CHECKPOINT_MAGIC = b"CTCKPT1"
MAX_NDIM = 64  # numpy's limit on array dimensions

# Former ModelConfig fields, now encoder constants; older checkpoint headers
# still carry them, always at these values.
FIXED_SSM_KEYS = {"ssm_blocks": SSM_BLOCKS, "ssm_expand": SSM_EXPAND, "ssm_conv": SSM_CONV_WIDTH}


def config_from_dict(cls, d: dict):
    """Build the config dataclass ``cls`` from ``d``, rejecting unknown keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be stored as an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys {unknown}")
    return cls(**d)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_config_fields(cfg) -> None:
    """Check every field of the config dataclass ``cfg`` against its annotation.

    Ints (not bools) are dims or counts and must be >= 1, except ``seed``
    (>= 0); floats must be finite numbers; bools must be bools; ``temporal``
    must name an encoder; a tuple field must be a non-empty list or tuple of
    ints >= 1. Raises ``ConfigError``.
    """
    types = typing.get_type_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        v, kind = getattr(cfg, f.name), types[f.name]
        where = f"{type(cfg).__name__}.{f.name}"
        if kind is int:
            low = 0 if f.name == "seed" else 1
            if not _is_int(v) or v < low:
                raise ConfigError(f"{where} must be an integer >= {low}, got {v!r}")
        elif kind is float:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ConfigError(f"{where} must be a finite number, got {v!r}")
        elif kind is bool and not isinstance(v, bool):
            raise ConfigError(f"{where} must be true or false, got {v!r}")
        elif f.name == "temporal" and v not in ("pointnet", "ssm"):
            raise ConfigError(f"unknown temporal encoder {v!r}")
        elif kind is tuple and not (
            isinstance(v, (list, tuple)) and v and all(_is_int(x) and x >= 1 for x in v)
        ):
            raise ConfigError(f"{where} must be a non-empty list of integers >= 1, got {v!r}")


@dataclass
class ModelConfig:
    num_agents: int = 11
    num_components: int = 8
    context_frames: int = 10
    future_frames: int = 20
    temporal: str = "pointnet"            # "pointnet" | "ssm"
    temporal_hidden: int = 64
    temporal_dim: int = 64
    relation_dim: int = 128
    attn_heads: int = 8
    std_blocks: int = 4
    mesh_blocks: int = 4
    std_ff: int = 512
    mesh_ff: int = 256
    use_mesh: bool = True
    category_dim: int = 64
    agent_channels: int = 64
    scene_hidden: tuple = (768, 768, 448)
    ssm_state: int = 16
    ssm_headdim: int = 64
    seed: int = 0

    def __post_init__(self):
        check_config_fields(self)
        if self.context_frames < 2:
            raise ConfigError("context_frames must be >= 2")
        if self.relation_dim % self.attn_heads != 0:
            raise ConfigError(
                f"relation_dim {self.relation_dim} not divisible by heads {self.attn_heads}"
            )
        self.scene_hidden = tuple(int(h) for h in self.scene_hidden)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["scene_hidden"] = list(self.scene_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if isinstance(d, dict):
            d = dict(d)
            for key, fixed in FIXED_SSM_KEYS.items():
                v = d.pop(key, fixed)
                if not _is_int(v) or v != fixed:
                    raise ConfigError(f"ModelConfig.{key} is fixed at {fixed}, got {v!r}")
        return config_from_dict(cls, d)

    @classmethod
    def small(cls, **overrides) -> "ModelConfig":
        """Reduced geometry for fast experiments and tests."""
        base = dict(
            num_agents=5,
            num_components=4,
            context_frames=8,
            future_frames=16,
            temporal_hidden=32,
            temporal_dim=32,
            relation_dim=32,
            attn_heads=8,
            std_blocks=2,
            mesh_blocks=2,
            std_ff=128,
            mesh_ff=64,
            category_dim=16,
            agent_channels=32,
            scene_hidden=(128, 128),
            ssm_state=8,
            ssm_headdim=32,
        )
        base.update(overrides)
        return cls(**base)


# Scenario rows in flight in the rollout's horizon loop. Chunks split a call's
# contexts evenly; run one at a time, a chunk holds about this many rows, and run
# W at a time in W worker processes, about ROLLOUT_ROWS / W each. So no chunk holds
# much fewer than half its share unless one context has more scenarios. At 640 a
# small-preset `sample` of 64 contexts x 20 scenarios runs in two serial chunks at
# the single batch's speed, or in four of 320, two in each of two workers; serial
# chunks of 320 are 7-10% slower, and chunks of 20-60 rows changed the last bits of
# some scenarios (80 or more kept every bit).
ROLLOUT_ROWS = 640
# The most worker processes that run horizon-loop chunks at once. They are forked
# processes, not threads: each numpy call of a step takes ~10 us, so two threads
# spent most of a step handing the GIL to each other.
ROLLOUT_WORKERS = 2
# The functions through which OpenBLAS (numpy's wheels carry it with a prefix and
# a suffix on its symbols) and MKL report how many threads a BLAS call runs on.
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads")
# A cgroup's CPU quota: v2's "<quota> <period>" ("max" for none), then v1's two files.
CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                   ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def _usable_cpus() -> int:
    """The CPUs the process may run on, at most its cgroup's quota in whole CPUs."""
    cpus = len(os.sched_getaffinity(0))
    for files in CPU_QUOTA_FILES:
        try:
            quota, period = " ".join(Path(f).read_text() for f in files).split()[:2]
        except (OSError, ValueError):      # no such cgroup, or a short file
            continue
        if quota.isdigit() and period.isdigit() and int(period) > 0:    # not "max" or -1
            cpus = min(cpus, max(1, int(quota) // int(period)))
        break
    return cpus


@functools.cache
def _blas_thread_query():
    """numpy's BLAS's thread-count function (``BLAS_THREAD_QUERIES``), or None.

    dlsym on the handle of numpy's umath extension searches the libraries that
    extension loaded, so this finds the BLAS numpy calls, not another copy
    (scipy's wheels carry their own OpenBLAS).
    """
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
            break
        except (ImportError, OSError):
            continue
    else:
        return None
    for symbol in BLAS_THREAD_QUERIES:
        query = getattr(lib, symbol, None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            return query
    return None


def _blas_threads(cpus: int) -> int:
    """The threads numpy's BLAS runs a call on now, as it reports them; ``cpus``
    (BLAS's usual default) when it has no ``BLAS_THREAD_QUERIES`` function."""
    query = _blas_thread_query()
    return cpus if query is None else max(1, query())


def _rollout_workers() -> int:
    """``ROLLOUT_WORKERS``, or fewer, so that each runs its BLAS calls on CPUs of its own.

    That is the usable CPUs (``_usable_cpus``) divided by the threads BLAS
    runs a call on (``_blas_threads``). BLAS's threads spin while they wait
    for work: on 2 vCPUs a small-preset rollout of 64 contexts x 20 scenarios
    on two threads over a two-thread OpenBLAS took 1.8x as long as on one,
    and OpenBLAS's second thread gave the one-thread rollout nothing.
    """
    cpus = _usable_cpus()
    return max(1, min(ROLLOUT_WORKERS, cpus // _blas_threads(cpus)))


def _rollout_plan(contexts: int, runs: int, workers: int, rows: int) -> list:
    """The horizon loop's chunks: one list per worker of its chunks' context bounds
    (lo, hi), in order.

    ``runs`` scenario rows per context. W = min(workers, contexts, the chunks
    of ``rows`` rows the call needs); the chunks, of about rows / W rows each,
    split the contexts evenly, and worker j takes chunks [chunks * j / W,
    chunks * (j + 1) / W). So a call of at most ``rows`` rows is one chunk,
    with W = 1.
    """
    total = contexts * runs
    workers = min(workers, contexts, -(-total // rows))
    chunks = min(contexts, -(-total * workers // rows))
    bounds = [(contexts * i // chunks, contexts * (i + 1) // chunks) for i in range(chunks)]
    return [bounds[chunks * j // workers: chunks * (j + 1) // workers] for j in range(workers)]


def _worker_message(error) -> bytes:
    """What a worker sends the caller: its error (None on success) pickled, or, if
    that does not load back, a pickled ``CausalTrajError`` that names its type and
    message."""
    try:
        message = pickle.dumps(error)
        pickle.loads(message)
        return message
    except Exception:              # it does not pickle, or does not unpickle
        return pickle.dumps(CausalTrajError(
            f"a rollout worker raised {type(error).__name__}: {error}"))


def _run_in_workers(run, plan: list, stop: np.ndarray):
    """Run ``run(j)`` for every worker j of ``plan`` in a forked process of its own,
    wait for them all, and return the error the rollout raises, or None (the
    order, and the message rule, are in ``TrajectoryModel.rollout``'s docstring).

    Each worker sends its message through a pipe (``_worker_message``) and
    ends through ``os._exit``, so it never returns into the caller's stack.
    Signals are blocked across the fork, so none reaches either side before it
    has its bookkeeping. A worker whose fork fails runs in the caller, once the
    others are forked. The caller reaps every worker on every path.
    """
    children, errors, caller = [], [None] * len(plan), None    # (j, pid, read end) per fork
    try:
        in_caller = []
        for j in range(len(plan)):
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    in_caller.append(j)
                    continue
                if pid == 0:
                    try:
                        os.close(r)
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        # the caller's trace never holds this process's allocations; found
                        # through sys.modules, so that this module need not import tracemalloc
                        tracing = sys.modules.get("tracemalloc")
                        if tracing is not None and tracing.is_tracing():
                            tracing.stop()
                        message = _worker_message(run(j))
                        with open(w, "wb") as pipe:
                            pipe.write(message)
                    finally:
                        os._exit(0)
                os.close(w)
                children.append((j, pid, r))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for j in in_caller:
            errors[j] = run(j)
    except BaseException as e:
        stop[:] = -1
        caller = e
    for j, pid, r in children:
        parts = []                 # what was read, kept across interrupts
        while True:
            try:
                while part := os.read(r, 1 << 16):
                    parts.append(part)
                os.waitpid(pid, 0)
                break
            except ChildProcessError:  # reaped already, as where SIGCHLD is ignored
                break
            except BaseException as e:     # Ctrl-C while the caller waits
                stop[:] = -1
                caller = caller or e
        os.close(r)
        try:
            errors[j] = pickle.loads(b"".join(parts))
        except Exception:          # nothing sent, or cut short: unpickling raises any type
            errors[j] = CausalTrajError("a rollout worker ended without a result")
            stop[j] = min(stop[j], plan[j][0][0])
    if caller is not None:
        return caller
    failed = [j for j in range(len(plan)) if errors[j] is not None]
    return errors[min(failed, key=stop.__getitem__)] if failed else None


@dataclass
class ScenarioSample:
    """One sampled future for one context; the context itself stays with the caller.

    In ``mode="mean"`` the samples of one context share their arrays.
    """

    context_index: int
    scenario_index: int
    positions: np.ndarray        # [F, N, 2] float32
    components: np.ndarray       # [F] int64


class TrajectoryModel(Module):
    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        cfg = config
        if cfg.temporal == "pointnet":
            self.temporal = PointNetEncoder(
                rng, FRAME_DIM, hidden=cfg.temporal_hidden, out_dim=cfg.temporal_dim
            )
        else:
            self.temporal = SSMEncoder(
                rng, FRAME_DIM, d_model=cfg.relation_dim, state=cfg.ssm_state,
                headdim=cfg.ssm_headdim,
            )
        self.latent_dim = self.temporal.out_dim
        self.category_embed = EmbeddingTable(rng, NUM_CATEGORIES, cfg.category_dim)
        self.relation_input = Dense(
            rng, self.latent_dim + cfg.category_dim, cfg.relation_dim, activation="gelu"
        )
        self.relation = RelationEncoder(
            rng,
            cfg.relation_dim,
            cfg.attn_heads,
            std_blocks=cfg.std_blocks,
            mesh_blocks=cfg.mesh_blocks,
            std_ff=cfg.std_ff,
            mesh_ff=cfg.mesh_ff,
            use_mesh=cfg.use_mesh,
        )
        self.agent_proj = Dense(
            rng, cfg.relation_dim + FRAME_DIM, cfg.agent_channels, activation="gelu"
        )
        scene_in = cfg.num_agents * cfg.agent_channels
        self.scene_mlp = MLP(rng, [scene_in, *cfg.scene_hidden], activate_last=True)
        head_out = cfg.num_components * (1 + cfg.num_agents * 5)
        self.head = Dense(rng, cfg.scene_hidden[-1], head_out)

    # -- shared pieces -------------------------------------------------------

    def _check_positions(self, positions: np.ndarray) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.float32)
        if pos.ndim != 4 or pos.shape[-1] != 2:
            raise ShapeError(f"positions must be [B, N, T, 2], got {pos.shape}")
        if pos.shape[1] != self.config.num_agents:
            raise ShapeError(
                f"roster size {pos.shape[1]} != configured {self.config.num_agents}"
            )
        return pos

    def _categories(self, categories, batch: int) -> np.ndarray:
        cat = np.asarray(categories, dtype=np.int64)
        N = self.config.num_agents
        if cat.shape == (N,):
            cat = np.broadcast_to(cat, (batch, N))
        if cat.shape != (batch, N):
            raise ShapeError(f"categories shape {cat.shape} incompatible with [{batch}, {N}]")
        if cat.min() < 0 or cat.max() >= NUM_CATEGORIES:
            raise ShapeError(f"category indices must be in {set(range(NUM_CATEGORIES))}")
        return cat

    def _head_params(self, lat: Tensor, geo: np.ndarray, cat: np.ndarray):
        """Mixture parameters from latents and frame features.

        lat [B, T, N, d_latent]; geo [B, T, N, FRAME_DIM], the same frames'
        ``frame_features``; cat [B, N]. Returns (logits [B,T,M],
        means [B,T,M,N,2], chol_params [B,T,M,N,3]).
        """
        cfg = self.config
        B, Tlen, N, _ = lat.shape
        M = cfg.num_components
        ce = self.category_embed(cat)                                    # [B, N, cd]
        ce = T.broadcast_to(
            T.reshape(ce, (B, 1, N, cfg.category_dim)), (B, Tlen, N, cfg.category_dim)
        )
        h = self.relation_input(T.concat([lat, ce], axis=-1))
        h = self.relation(h, geo)
        a = self.agent_proj(T.concat([h, Tensor(geo)], axis=-1))         # [B, T, N, ac]
        flat = T.reshape(a, (B, Tlen, N * cfg.agent_channels))
        out = self.head(self.scene_mlp(flat))                            # [B, T, M + M*N*5]
        logits = T.narrow(out, -1, 0, M)
        rest = T.reshape(T.narrow(out, -1, M, M * N * 5), (B, Tlen, M, N, 5))
        means = T.narrow(rest, -1, 0, 2)
        chols = T.narrow(rest, -1, 2, 3)
        return logits, means, chols

    # -- teacher-forced paths ---------------------------------------------------

    def forward(self, positions, categories):
        """Teacher-forced mixture parameters and targets for the future frames.

        positions [B, N, T, 2] with T > P. Frame P-1+f predicts the joint
        displacement into frame P+f, so F = T-P frames are scored. Only the
        temporal encoder sees the causal prefix, frames 0..T-2; relation,
        scene MLP and head run on the F scored frames alone. Returns
        (logits [B,F,M], means [B,F,M,N,2], chol_params [B,F,M,N,3],
        targets [B,F,N,2]).
        """
        pos = self._check_positions(positions)
        B, N, Tlen, _ = pos.shape
        P = self.config.context_frames
        F = Tlen - P
        if F < 1:
            raise ShapeError(f"need at least one future frame beyond P={P}, got T={Tlen}")
        cat = self._categories(categories, B)
        feats = frame_features(pos[:, :, :-1])                           # frames 0..T-2
        lat = self.temporal(Tensor(feats.reshape(B * N, Tlen - 1, FRAME_DIM)))
        lat = T.narrow(T.reshape(lat, (B, N, Tlen - 1, self.latent_dim)), 2, P - 1, F)
        lat = T.transpose(lat, (0, 2, 1, 3))                             # [B, F, N, d]
        geo = feats[:, :, P - 1:].transpose(0, 2, 1, 3)                  # [B, F, N, FRAME_DIM]
        targets = np.ascontiguousarray((pos[:, :, P:] - pos[:, :, P - 1:-1]).transpose(0, 2, 1, 3))
        return (*self._head_params(lat, geo, cat), Tensor(targets))

    def loss(self, positions, categories):
        """Teacher-forced objective over the future frames; (Tensor, stats)."""
        return mdn.sequence_loss(*self.forward(positions, categories))

    def per_step_nll(self, positions, categories) -> np.ndarray:
        """Per-future-frame NLL terms, shape [B, F]; no graph is kept."""
        with T.no_grad():
            return mdn.step_nll(*self.forward(positions, categories)).data

    # -- autoregressive rollout -----------------------------------------------------

    def _step_params(self, lat_t: np.ndarray, f_t: np.ndarray, cat: np.ndarray):
        """Mixture parameters of one frame from its latent lat_t [X*N, d].

        f_t [X, N, FRAME_DIM] holds the frame's features; cat [X, N]. Returns
        arrays (logits [X, M], means [X, M, N, 2], chol_params [X, M, N, 3]).
        Runs under the rollout's ``no_grad``, so it records no graph.
        """
        X, N, _ = f_t.shape
        lat = Tensor(lat_t.reshape(X, 1, N, self.latent_dim))
        params = self._head_params(lat, f_t[:, None], cat)
        return tuple(p.data[:, 0] for p in params)

    def _reencode(self, f_t: np.ndarray, frames: list) -> np.ndarray:
        """``temporal.step`` by recompute: append f_t [L, FRAME_DIM] to frames, encode them
        all and return the last latent [L, d]. Runs under the rollout's ``no_grad``."""
        frames.append(f_t)
        return self.temporal(Tensor(np.stack(frames, axis=1))).data[:, -1]

    @T.no_grad()
    def rollout(
        self,
        contexts,
        categories,
        horizon: int | None = None,
        num_scenarios: int = 1,
        seed: int = 0,
        mode: str = "sample",
        incremental: bool = True,
    ) -> list[ScenarioSample]:
        """Sample futures for each context scene.

        contexts [C, N, P, 2]; categories [N] or [C, N]; returns
        C * num_scenarios samples ordered by context then scenario; sample
        ``s`` continues ``contexts[s.context_index]`` without copying it. Each
        scenario has its own generator, keyed by its context and scenario
        index, and ``mdn.sample_displacements`` draws from it at every step:
        one uniform for the component all agents share, then the agents'
        normals. So a scenario's draws do not depend on the other scenarios or
        on how many contexts the call holds. Its floating-point results can
        still differ in the last bits with the number of contexts in the call,
        because BLAS picks its kernels by row count. ``mode="mean"`` instead
        takes the highest-weight component's mean displacement,
        deterministically.

        The scenarios of a context share its prefix and its first step, so the
        encoder runs over the prefix and the head over step 0 once per context,
        for all C contexts of the call at once. The steps after that run in
        chunks of whole contexts, with about ``ROLLOUT_ROWS`` scenario rows in
        flight, so the working set stops growing with C * k: each chunk
        repeats only its own contexts' encoder state and step 0's mixture
        parameters per scenario, builds its own scenarios' generators and
        writes its rows of the output. W worker processes run the chunks, W =
        min(``ROLLOUT_WORKERS`` = 2, usable CPUs per thread numpy's BLAS reports
        (``_rollout_workers``), the chunks of ``ROLLOUT_ROWS`` rows the call
        would need), in chunks of about ``ROLLOUT_ROWS / W`` rows, worker j the
        j-th W-th of them in order (``_rollout_plan``). The workers are forked
        after step 0 and write their rows into one shared anonymous mapping
        that holds the outputs; the caller only waits. The whole call runs
        under one ``no_grad``, which the workers inherit. They are forked only
        on Linux and only while the process runs one Python thread (a fork
        from a multi-threaded process can deadlock in the child); otherwise, or
        with W = 1 (one CPU, or BLAS on every CPU, its usual default), the
        caller runs every chunk itself, in chunks of about ``ROLLOUT_ROWS``
        rows. So a call of at most ``ROLLOUT_ROWS`` rows never forks. Each
        worker has a stop slot: a chunk that raises sets its worker's slot to
        the chunk's first context, and the chunks after the lowest slot stop at
        their next step. A raise in the caller (Ctrl-C while it waits) sets
        every slot to -1, which stops them all. The call raises once every
        worker has ended and been reaped: the caller's raise if there was one,
        else the error of the worker with the lowest slot, which is the first
        failing chunk's in order, as if the chunks ran one after another. A
        worker sends one pickle, its error or None; an error that does not
        load back is sent as a ``CausalTrajError`` that names its type and
        message. A worker whose message is missing or does not unpickle ended
        without a result, and counts as failed at the first context of its
        first chunk.
        A chunk never changes a scenario's bits: a step's ops treat each scene
        row on its own, and a chunk keeps enough rows that BLAS takes the
        kernels it takes for the whole batch (tests compare chunked, forked
        and single-batch calls byte for byte).
        ``incremental=False`` swaps ``temporal.step`` for ``_reencode``, which
        re-encodes all frames so far: the reference that only tests and
        perfbench's rollout consistency check use. The encoder step and the
        head read each frame as one ``frame_features`` array
        f_t [B, N, FRAME_DIM]. In ``mode="mean"`` the scenarios of a context
        are equal, so the whole rollout runs once per context (a chunk holds
        about ``ROLLOUT_ROWS`` contexts), and the k samples of a context share
        that one row: their ``positions`` and ``components`` are the same
        arrays, so writing into one changes all k. Raises
        ``DataError`` at the first step that yields a
        non-finite position, naming the context, scenario and step.
        """
        cfg = self.config
        if mode not in ("sample", "mean"):
            raise ConfigError(f"unknown rollout mode {mode!r}")
        if horizon is None:
            horizon = cfg.future_frames
        if horizon < 1 or num_scenarios < 1:
            raise ConfigError(
                f"rollout needs horizon >= 1 and num_scenarios >= 1, "
                f"got {horizon} and {num_scenarios}"
            )
        if seed < 0:
            raise ConfigError(f"rollout seed must be >= 0, got {seed}")
        ctx = self._check_positions(contexts)
        C, N, P, _ = ctx.shape
        if C < 1 or P < 2:
            raise ShapeError(f"rollout needs >= 1 context of >= 2 frames, got {ctx.shape}")
        k = int(num_scenarios)
        runs = k if mode == "sample" else 1                               # rows per context
        ctx_cat = self._categories(categories, C)

        # prefix and step 0 once per context [C, ...]; the horizon loop per chunk
        feats = frame_features(ctx)                                       # [C, N, P, FRAME_DIM]
        step, state = ((self.temporal.step, self.temporal.init_state(C * N)) if incremental
                       else (self._reencode, []))
        for t in range(P):
            lat_t = step(feats[:, :, t].reshape(C * N, FRAME_DIM), state)
        step0 = self._step_params(lat_t, feats[:, :, P - 1], ctx_cat)

        # forked workers only on Linux, and only from a process of one Python thread: a
        # fork from a multi-threaded process can deadlock in the child
        may_fork = sys.platform == "linux" and threading.active_count() == 1
        plan = _rollout_plan(C, runs, _rollout_workers() if may_fork else 1, ROLLOUT_ROWS)
        workers = len(plan)
        # the outputs and one stop slot per worker: the first context of the first chunk
        # that failed in it, or -1 after an interrupt; the chunks after the lowest slot
        # stop at their next step. With workers, in one mapping they all share
        comp_bytes = C * runs * horizon * 8
        pos_at = comp_bytes + workers * 8
        size = pos_at + C * runs * horizon * N * 2 * 4
        buf = mmap.mmap(-1, size) if workers > 1 else np.empty(size, dtype=np.uint8)
        out_comp = np.ndarray((C * runs, horizon), np.int64, buf)
        stop = np.ndarray(workers, np.int64, buf, offset=comp_bytes)
        out_pos = np.ndarray((C * runs, horizon, N, 2), np.float32, buf, offset=pos_at)
        stop[:] = C

        def run_chunk(lo: int, hi: int) -> None:
            rows = slice(lo * runs, hi * runs)
            B = (hi - lo) * runs
            rngs = [
                np.random.default_rng(np.random.SeedSequence(seed, spawn_key=divmod(b, k)))
                for b in range(rows.start, rows.stop)
            ] if mode == "sample" else []
            chunk_state = _repeat_per_context(state, C, runs, slice(lo, hi))
            lg, mn, ch = (np.repeat(a[lo:hi], runs, axis=0) for a in step0)
            cat = np.repeat(ctx_cat[lo:hi], runs, axis=0)                 # [B, N]
            f_t = np.repeat(feats[lo:hi, :, P - 1], runs, axis=0)        # [B, N, FRAME_DIM]
            for u in range(horizon):
                if u > 0:
                    if lo > stop.min():
                        return
                    lat_t = step(f_t.reshape(B * N, FRAME_DIM), chunk_state)
                    lg, mn, ch = self._step_params(lat_t, f_t, cat)
                if mode == "mean":
                    dx, comp = mdn.mode_displacements(lg, mn)
                else:
                    dx, comp = mdn.sample_displacements(rngs, lg, mn, ch)
                cur = f_t[..., :2]
                new_cur = cur + dx
                finite = np.isfinite(new_cur).all(axis=(1, 2))
                if not finite.all():
                    ci, si = divmod(int(np.argmin(finite)), runs)
                    raise DataError(
                        f"rollout produced non-finite positions at context {lo + ci}, "
                        f"scenario {si}, step {u}"
                    )
                out_pos[rows, u] = new_cur
                out_comp[rows, u] = comp
                # the velocity is new_cur - cur, which can differ from dx in its last bit
                f_t = np.concatenate([new_cur, new_cur - cur], axis=-1)

        def run_chunks(j: int):
            """Run worker j's chunks in order; on a raise, set its stop slot and return
            the error. An interrupt (not an ``Exception``) stops every chunk as -1,
            so its error is the one raised."""
            lo = -1
            try:
                for lo, hi in plan[j]:
                    if lo > stop.min():
                        break
                    run_chunk(lo, hi)
            except BaseException as e:
                stop[j] = lo if isinstance(e, Exception) else -1
                return e
            return None

        error = run_chunks(0) if workers == 1 else _run_in_workers(run_chunks, plan, stop)
        if error is not None:
            raise error

        share = k // runs                      # scenarios per output row
        return [
            ScenarioSample(
                context_index=b // k,
                scenario_index=b % k,
                positions=out_pos[b // share],
                components=out_comp[b // share],
            )
            for b in range(C * k)
        ]


def _repeat_per_context(state, contexts: int, k: int, chunk: slice):
    """Repeat the rows of the contexts in ``chunk`` k times in an encoder state.

    ``state`` nests dicts and lists around arrays [contexts * N, ...] whose rows
    are ordered by context, then agent; the result is ordered by context,
    scenario, agent, as a rollout chunk's scene rows are.
    """
    if isinstance(state, dict):
        return {key: _repeat_per_context(v, contexts, k, chunk) for key, v in state.items()}
    if isinstance(state, list):
        return [_repeat_per_context(v, contexts, k, chunk) for v in state]
    rows = state.reshape(contexts, -1, *state.shape[1:])[chunk]
    return np.repeat(rows, k, axis=0).reshape(-1, *state.shape[1:])


def constant_velocity_rollout(contexts, horizon: int) -> np.ndarray:
    """Straight-line baseline: repeat the last observed displacement.

    contexts [C, N, P, 2] -> predictions [C, horizon, N, 2] (time-major).
    """
    ctx = np.asarray(contexts, dtype=np.float32)
    v = ctx[:, :, -1] - ctx[:, :, -2]                                     # [C, N, 2]
    steps = np.arange(1, horizon + 1, dtype=np.float32)
    pred = ctx[:, :, -1][:, None] + steps[None, :, None, None] * v[:, None]
    return pred


# -- checkpoint container ---------------------------------------------------------


def save_checkpoint(
    path,
    model: TrajectoryModel,
    extra: dict | None = None,
    extra_arrays: dict[str, np.ndarray] | None = None,
) -> None:
    """Write model config, parameters, and optional extra arrays.

    Layout: magic, u32 JSON length, JSON {"format", "model", "extra"}, u32
    array count, then per array: u16 name length + name, u8 ndim, u32 dims,
    raw little-endian float32 data. Parameter arrays are namespaced
    ``param/``; extra arrays keep their given names.
    """
    meta = {"format": 1, "model": model.config.to_dict(), "extra": extra or {}}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    arrays: dict[str, np.ndarray] = {
        f"param/{name}": arr for name, arr in model.state_arrays().items()
    }
    for name, arr in (extra_arrays or {}).items():
        arrays[name] = arr
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            data = np.ascontiguousarray(arrays[name], dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data)     # through the buffer protocol, without a bytes copy


def load_checkpoint(source) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a ``save_checkpoint`` file: (header dict, float32 arrays by name).

    ``source`` is a path or a binary file standing at its first byte. The
    arrays are read-only little-endian views of their own slices of the file's
    bytes; ``Module.load_state_arrays`` and ``AdamW.load_state_arrays`` copy
    them.
    """
    with open_binary(source) as f:
        raw = f.read()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise TrajectoryFormatError("bad checkpoint magic", offset=0)
    off = len(CHECKPOINT_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise TrajectoryFormatError(f"truncated checkpoint while reading {what}", offset=off)
        chunk = raw[off: off + n]
        off += n
        return chunk

    (blob_len,) = struct.unpack("<I", take(4, "header length"))
    header_off = off
    try:
        meta = json.loads(take(blob_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise TrajectoryFormatError(f"bad checkpoint header: {e}", offset=header_off) from e
    if not isinstance(meta, dict) or meta.get("format") != 1:
        fmt = meta.get("format") if isinstance(meta, dict) else None
        raise TrajectoryFormatError(f"unsupported checkpoint format {fmt!r}", offset=header_off)
    meta.setdefault("extra", {})
    if not isinstance(meta.get("model"), dict) or not isinstance(meta["extra"], dict):
        raise TrajectoryFormatError("checkpoint header lacks model/extra objects",
                                    offset=header_off)
    (count,) = struct.unpack("<I", take(4, "array count"))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name_off = off
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise TrajectoryFormatError(f"array name is not UTF-8: {e}", offset=name_off) from e
        if name in arrays:
            raise TrajectoryFormatError(f"duplicate array name {name!r}", offset=name_off)
        ndim_off = off
        (ndim,) = struct.unpack("<B", take(1, "ndim"))
        if ndim > MAX_NDIM:
            raise TrajectoryFormatError(
                f"array {name!r} has {ndim} dims, more than {MAX_NDIM}", offset=ndim_off
            )
        shape_off = off
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
        data = np.frombuffer(take(4 * math.prod(shape), f"data for {name}"), dtype="<f4")
        try:
            arrays[name] = data.reshape(shape)
        except ValueError as e:   # a zero dim lets the other dims pass numpy's size limit
            raise TrajectoryFormatError(f"array {name!r}: bad shape {shape}: {e}",
                                        offset=shape_off) from e
    if off != len(raw):
        raise TrajectoryFormatError("trailing bytes after last array", offset=off)
    return meta, arrays


def load_model(path) -> tuple[TrajectoryModel, dict, dict[str, np.ndarray]]:
    """Rebuild a model from a checkpoint; returns (model, extra, extra_arrays)."""
    meta, arrays = load_checkpoint(path)
    config = ModelConfig.from_dict(meta["model"])
    model = TrajectoryModel(config)
    params = {
        name[len("param/"):]: arr for name, arr in arrays.items() if name.startswith("param/")
    }
    rest = {name: arr for name, arr in arrays.items() if not name.startswith("param/")}
    model.load_state_arrays(params)
    return model, meta["extra"], rest
