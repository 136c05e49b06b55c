"""Trajectory container IO, synthetic data, and batching.

The on-disk container is deliberately tiny: a magic string, three u32 counts,
the per-agent category bytes, the frame rate, then raw little-endian float32
positions for every scenario in [T, N, 2] frame-major order. All scenarios in
one file share the roster and length.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrajectoryFormatError

MAGIC = b"CTRJ1"

CATEGORY_BALL = 0
CATEGORY_TEAM_A = 1
CATEGORY_TEAM_B = 2
CATEGORY_NAMES = ("ball", "team_a", "team_b")

COURT_X = 94.0
COURT_Y = 50.0
DEFAULT_FRAME_RATE = 5.0
TURN_FRAMES = 3  # frames over which synth_forking_play's group turn ramps in


@dataclass
class TrajectorySet:
    """In-memory mirror of one container file."""

    positions: np.ndarray    # [S, T, N, 2] float32
    categories: np.ndarray   # [N] uint8
    frame_rate: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float32)
        if pos.ndim != 4 or pos.shape[-1] != 2:
            raise DataError(f"positions must be [S, T, N, 2], got {pos.shape}")
        cats = np.asarray(self.categories, dtype=np.uint8)
        if cats.shape != (pos.shape[2],):
            raise DataError(f"categories {cats.shape} do not match agent count {pos.shape[2]}")
        if cats.max(initial=0) >= len(CATEGORY_NAMES):
            raise DataError("category bytes must be 0 (ball), 1 (team_a), or 2 (team_b)")
        # min and max carry any NaN or inf through, without a temporary of pos's size
        if not (np.isfinite(pos.min(initial=0.0)) and np.isfinite(pos.max(initial=0.0))):
            raise DataError("positions contain non-finite values")
        rate = float(self.frame_rate)
        if not (math.isfinite(rate) and rate > 0.0):
            raise DataError(f"frame rate must be finite and > 0, got {rate}")
        self.positions = pos
        self.categories = cats
        self.frame_rate = rate

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def frames(self) -> int:
        return self.positions.shape[1]

    @property
    def num_agents(self) -> int:
        return self.positions.shape[2]

    def agent_major(self) -> np.ndarray:
        """Positions as [S, N, T, 2] (model layout)."""
        return np.ascontiguousarray(self.positions.transpose(0, 2, 1, 3))

    def describe(self) -> dict:
        return {
            "count": self.count,
            "frames": self.frames,
            "agents": self.num_agents,
            "frame_rate": self.frame_rate,
            "categories": [CATEGORY_NAMES[c] for c in self.categories],
        }


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    """Write through a temp file next to ``path`` that replaces it on success.

    If the write fails part-way, the temp file is removed and whatever was at
    ``path`` before is left as it was. A temp file that cannot be created
    raises its ``OSError`` under ``path``'s name, not the temp file's.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        f = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as e:
        raise type(e)(e.errno, e.strerror, path) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_trajectories(path, ts: TrajectorySet) -> None:
    S, Tlen, N, _ = ts.positions.shape
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", S, N, Tlen))
        f.write(ts.categories.astype("<u1").tobytes())
        f.write(struct.pack("<f", ts.frame_rate))
        f.write(np.ascontiguousarray(ts.positions, dtype="<f4"))   # no bytes copy


def open_binary(source):
    """A context manager for reading ``source``, a path or an open binary file.

    A path is opened here and closed on exit; a file is used as it is and left
    open, so a caller can sniff a file's magic and hand on the same handle.
    """
    return contextlib.nullcontext(source) if hasattr(source, "read") else open(source, "rb")


def read_trajectories(source) -> TrajectorySet:
    """Read a container, its payload straight into the positions array.

    ``source`` is a path or a binary file, read from its first byte. Each
    section's length is checked against the file's size before it is read, so
    a corrupt count fails before anything is allocated for it.
    """
    with open_binary(source) as f:
        if not f.seekable():        # a pipe reports no size: read it whole
            f = io.BytesIO(f.read())
        size = f.seek(0, os.SEEK_END)
        f.seek(0)
        if f.read(len(MAGIC)) != MAGIC:
            raise TrajectoryFormatError("bad trajectory magic", offset=0)
        off = len(MAGIC)
        if size < off + 12:
            raise TrajectoryFormatError("truncated header", offset=off)
        S, N, Tlen = struct.unpack("<III", f.read(12))
        off += 12
        if size < off + N:
            raise TrajectoryFormatError("truncated categories", offset=off)
        cats = np.frombuffer(f.read(N), dtype="<u1").copy()
        off += N
        if size < off + 4:
            raise TrajectoryFormatError("truncated frame rate", offset=off)
        (frame_rate,) = struct.unpack("<f", f.read(4))
        off += 4
        n_vals = S * Tlen * N * 2
        payload = size - off
        if payload == 4 * n_vals:
            pos = np.empty(n_vals, dtype="<f4")
            payload = f.readinto(pos)       # short only if the file shrank meanwhile
        if payload != 4 * n_vals:
            raise TrajectoryFormatError(
                f"payload length {payload} != expected {4 * n_vals}", offset=off
            )
    try:
        return TrajectorySet(pos.reshape(S, Tlen, N, 2), cats, frame_rate)
    except DataError as e:
        raise TrajectoryFormatError(str(e)) from e


# -- provenance sidecars -----------------------------------------------------------


def write_sidecar(path, mapping: dict) -> None:
    """Plain ``key=value`` lines next to a binary artifact."""
    with atomic_write(path, "w") as f:
        for key in sorted(mapping):
            f.write(f"{key}={mapping[key]}\n")


def read_sidecar(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: sidecar is not UTF-8 text ({e.reason})") from e
    out = {}
    for line in lines:
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


# -- synthetic forking play ---------------------------------------------------------


@dataclass
class ForkingSet:
    """Synthetic scenes plus per-scenario labels the generator knows."""

    trajectories: TrajectorySet
    branch: np.ndarray       # [S] int8: 0 turns toward +y, 1 toward -y
    fork_frame: int
    turn_deg: float


def _players_into(p: np.ndarray, rng: np.random.Generator, turn: float, fork: int) -> None:
    """Draw the players' starts, speeds and velocity noise; write their paths into ``p``.

    ``p`` is one scene's [frames, players, 2] view of the float64 position
    array. The paths are built one frame at a time: the heading is a
    [players] row and the AR noise a rolling [players, 2] state, so a huge
    roster needs no [frames, players] array besides ``p`` itself, and this
    function's temporaries are gone when it returns.
    """
    frames, players = p.shape[0], p.shape[1]
    start = np.stack(
        [rng.uniform(8.0, 25.0, players), rng.uniform(15.0, 35.0, players)], axis=-1
    )
    speed = rng.uniform(0.8, 1.2, players)
    p[0] = start
    noise = np.zeros((players, 2))
    heading = np.zeros(players)
    for t in range(1, frames):
        if t >= fork:
            heading.fill(turn * min(1.0, (t - fork + 1) / TURN_FRAMES))
        noise = 0.8 * noise + rng.normal(0.0, 0.05, (players, 2))
        step = speed[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=-1)
        p[t] = p[t - 1] + step + noise


def synth_forking_play(
    count: int,
    frames: int = 24,
    players: int = 4,
    seed: int = 0,
    turn_deg: float = 35.0,
) -> ForkingSet:
    """Scripted possessions whose future forks into two shared modes.

    Every player starts in a box on the left of the court and runs toward +x
    at an individual speed; at the fork frame (frames // 2) the whole group
    turns by the same +/- ``turn_deg`` degrees, ramped over ``TURN_FRAMES``
    frames, with the sign drawn 50/50 per scenario. Velocity noise is a
    smooth first-order autoregression, so contexts look natural but contain
    no hint of the branch. The ball rides its carrier and is passed once,
    linearly interpolated between the two carriers' current positions (at the
    midpoint of the pass window it sits exactly halfway between them).
    """
    if players < 2:
        raise DataError("need at least 2 players for a pass")
    if frames < 11:
        raise DataError(f"need at least 11 frames for the pass window, got {frames}")
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if not math.isfinite(turn_deg):
        raise DataError(f"turn_deg must be finite, got {turn_deg}")
    rng = np.random.default_rng(seed)
    N = players + 1
    fork = frames // 2
    S = count
    pos = np.zeros((S, frames, N, 2), dtype=np.float64)
    branch = np.zeros(S, dtype=np.int8)

    half = players // 2
    cats = np.array(
        [CATEGORY_BALL] + [CATEGORY_TEAM_A] * (players - half) + [CATEGORY_TEAM_B] * half,
        dtype=np.uint8,
    )

    theta_turn = math.radians(turn_deg)
    for s in range(S):
        sign = 1 if rng.random() < 0.5 else -1
        branch[s] = 0 if sign > 0 else 1
        p = pos[s, :, 1:, :]
        _players_into(p, rng, sign * theta_turn, fork)

        # ball: carried, one pass, linear blend between the carriers
        c0, c1 = rng.choice(players, size=2, replace=False)
        pass_start = int(rng.integers(3, frames - 7))
        pass_len = 5
        ball = np.empty((frames, 2))
        for t in range(frames):
            if t < pass_start:
                ball[t] = p[t, c0]
            elif t < pass_start + pass_len:
                alpha = (t - pass_start) / (pass_len - 1)
                ball[t] = p[t, c0] + alpha * (p[t, c1] - p[t, c0])
            else:
                ball[t] = p[t, c1]
        pos[s, :, 0, :] = ball

    np.clip(pos[..., 0], 0.0, COURT_X, out=pos[..., 0])
    np.clip(pos[..., 1], 0.0, COURT_Y, out=pos[..., 1])
    ts = TrajectorySet(pos.astype(np.float32), cats, DEFAULT_FRAME_RATE)
    return ForkingSet(ts, branch, fork, turn_deg)


def classify_branch(positions_time_major: np.ndarray, start_frame: int = 0) -> int:
    """Which fork a trajectory slice follows: 0 if players drift toward +y.

    ``positions_time_major`` is [T, N, 2] with the ball at agent 0; the drift
    is measured from ``start_frame`` to the final frame, averaged over the
    players only.
    """
    p = np.asarray(positions_time_major, dtype=np.float64)
    dy = (p[-1, 1:, 1] - p[start_frame, 1:, 1]).mean()
    return 0 if dy > 0 else 1


# -- batching ----------------------------------------------------------------------


def epoch_batches(
    ts: TrajectorySet, batch_size: int, seed: int, epoch: int
):
    """Yield (positions [B, N, T, 2], categories) in a per-epoch shuffled order.

    The permutation depends only on (seed, epoch), so training can resume
    mid-run from a checkpoint without serializing generator state. The final
    short batch is kept.
    """
    if batch_size < 1:
        raise DataError("batch_size must be >= 1")
    order = np.random.default_rng([seed, epoch]).permutation(ts.count)
    for lo in range(0, ts.count, batch_size):
        idx = order[lo: lo + batch_size]
        batch = np.ascontiguousarray(ts.positions[idx].transpose(0, 2, 1, 3))
        yield batch, ts.categories.astype(np.int64)
