"""Trajectory container IO, synthetic play generator, batching."""

import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from causaltraj import data
from causaltraj.data import (
    CATEGORY_BALL,
    CATEGORY_TEAM_A,
    CATEGORY_TEAM_B,
    ForkingSet,
    TrajectorySet,
    classify_branch,
    epoch_batches,
    read_sidecar,
    read_trajectories,
    synth_forking_play,
    write_sidecar,
    write_trajectories,
)
from causaltraj.errors import DataError, TrajectoryFormatError


def small_set(rng, S=3, Tlen=6, N=4):
    pos = rng.uniform(0.0, 50.0, (S, Tlen, N, 2)).astype(np.float32)
    cats = np.array([0] + [1] * (N - 2) + [2], dtype=np.uint8)
    return TrajectorySet(pos, cats, 5.0)


class TestContainer:
    def test_round_trip_bitwise(self, tmp_path):
        ts = small_set(np.random.default_rng(0))
        p = tmp_path / "t.ctrj"
        write_trajectories(p, ts)
        back = read_trajectories(p)
        assert np.array_equal(back.positions, ts.positions)
        assert np.array_equal(back.categories, ts.categories)
        assert back.frame_rate == 5.0
        assert (back.count, back.frames, back.num_agents) == (3, 6, 4)

    def test_bytes_match_the_copying_writer(self, tmp_path):
        # the payload goes through the buffer protocol; a strided view and an
        # empty set must write the bytes the tobytes() writer wrote
        rng = np.random.default_rng(2)
        agent_major = rng.uniform(0.0, 50.0, (3, 4, 6, 2)).astype(np.float32)   # [S, N, T, 2]
        cats = np.array([0, 1, 1, 2], dtype=np.uint8)
        for ts in (small_set(rng), TrajectorySet(agent_major.transpose(0, 2, 1, 3), cats, 5.0),
                   TrajectorySet(np.zeros((0, 6, 4, 2), dtype=np.float32), cats, 5.0)):
            p = tmp_path / "t.ctrj"
            write_trajectories(p, ts)
            S, Tlen, N, _ = ts.positions.shape
            want = b"".join([data.MAGIC, struct.pack("<III", S, N, Tlen),
                             ts.categories.astype("<u1").tobytes(),
                             struct.pack("<f", ts.frame_rate),
                             np.ascontiguousarray(ts.positions, dtype="<f4").tobytes()])
            assert p.read_bytes() == want

    def test_bad_magic_offset_zero(self, tmp_path):
        p = tmp_path / "bad.ctrj"
        p.write_bytes(b"XXXXX" + b"\x00" * 40)
        with pytest.raises(TrajectoryFormatError) as e:
            read_trajectories(p)
        assert e.value.offset == 0

    def test_truncation_reports_offset(self, tmp_path):
        ts = small_set(np.random.default_rng(1))
        p = tmp_path / "t.ctrj"
        write_trajectories(p, ts)
        raw = p.read_bytes()
        for cut in (6, 15, 20, len(raw) - 3):
            p.write_bytes(raw[:cut])
            with pytest.raises(TrajectoryFormatError) as e:
                read_trajectories(p)
            assert e.value.offset is not None, cut

    def test_trailing_bytes_rejected(self, tmp_path):
        ts = small_set(np.random.default_rng(2))
        p = tmp_path / "t.ctrj"
        write_trajectories(p, ts)
        p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(TrajectoryFormatError):
            read_trajectories(p)

    def test_a_read_peaks_near_the_payload_size(self, tmp_path):
        # the payload is read once, into the positions array, and checked for
        # non-finite values without a temporary of its size: the bytes of the
        # whole file and a copy of them would take 2x, a full-size bool for the
        # finite check 1.25x
        ts = small_set(np.random.default_rng(5), S=4000, Tlen=24, N=5)
        p = tmp_path / "t.ctrj"
        write_trajectories(p, ts)
        payload = ts.positions.nbytes
        tracemalloc.start()
        try:
            back = read_trajectories(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.positions.tobytes() == ts.positions.tobytes()
        assert peak < 1.1 * payload, f"{peak / payload:.2f}x the payload"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("cut", [None, 20])
    def test_a_pipe_reads_like_a_file(self, tmp_path, cut):
        ts = small_set(np.random.default_rng(7))
        p, pipe = tmp_path / "t.ctrj", tmp_path / "pipe"
        write_trajectories(p, ts)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(p.read_bytes()[:cut],))
        writer.start()
        try:
            if cut is None:
                assert read_trajectories(pipe).positions.tobytes() == ts.positions.tobytes()
            else:
                with pytest.raises(TrajectoryFormatError, match="truncated categories") as e:
                    read_trajectories(pipe)
                assert e.value.offset == len(data.MAGIC) + 12
        finally:
            writer.join()

    def test_a_corrupt_count_fails_before_it_allocates(self, tmp_path):
        ts = small_set(np.random.default_rng(6))
        p = tmp_path / "t.ctrj"
        write_trajectories(p, ts)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, len(data.MAGIC), 0xFFFF_FFFF)      # scenes: 4e9
        p.write_bytes(bytes(raw))
        expected = 4 * 0xFFFF_FFFF * 6 * 4 * 2
        tracemalloc.start()
        try:
            with pytest.raises(TrajectoryFormatError, match=rf"^payload length {3 * 6 * 4 * 2 * 4} "
                               rf"!= expected {expected}") as e:
                read_trajectories(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.value.offset == len(data.MAGIC) + 12 + 4 + 4
        assert peak < len(raw) + (1 << 16)

    def test_failed_write_keeps_old_file(self, tmp_path):
        class Unwritable:
            shape = (3, 6, 4, 2)

            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("disk went away")

        p = tmp_path / "t.ctrj"
        write_trajectories(p, small_set(np.random.default_rng(4)))
        before = p.read_bytes()
        broken = small_set(np.random.default_rng(5))
        broken.positions = Unwritable()          # fails after the header is out
        with pytest.raises(RuntimeError):
            write_trajectories(p, broken)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["t.ctrj"]

    def test_bad_category_byte_in_file(self, tmp_path):
        ts = small_set(np.random.default_rng(3))
        p = tmp_path / "t.ctrj"
        write_trajectories(p, ts)
        raw = bytearray(p.read_bytes())
        raw[5 + 12] = 7                              # first category byte
        p.write_bytes(bytes(raw))
        with pytest.raises(TrajectoryFormatError):
            read_trajectories(p)

    def test_set_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DataError):
            TrajectorySet(rng.normal(size=(2, 3, 4)), np.zeros(4, np.uint8), 5.0)
        with pytest.raises(DataError):
            TrajectorySet(rng.normal(size=(2, 3, 4, 2)), np.zeros(3, np.uint8), 5.0)
        bad = rng.normal(size=(2, 3, 4, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(DataError):
            TrajectorySet(bad, np.zeros(4, np.uint8), 5.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_set_rejects_a_non_finite_position(self, value, at):
        pos = small_set(np.random.default_rng(4)).positions.copy()
        pos.reshape(-1)[at] = value
        with pytest.raises(DataError, match="positions contain non-finite values"):
            TrajectorySet(pos, np.zeros(4, np.uint8), 5.0)

    def test_set_accepts_an_empty_set(self):
        for shape in ((0, 6, 4, 2), (3, 0, 4, 2)):
            ts = TrajectorySet(np.zeros(shape, np.float32), np.zeros(4, np.uint8), 5.0)
            assert ts.positions.shape == shape

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -5.0])
    def test_set_rejects_a_bad_frame_rate(self, rate):
        ts = small_set(np.random.default_rng(4))
        with pytest.raises(DataError, match="frame rate must be finite and > 0"):
            TrajectorySet(ts.positions, ts.categories, rate)

    def test_agent_major_layout(self):
        ts = small_set(np.random.default_rng(5))
        am = ts.agent_major()
        assert am.shape == (3, 4, 6, 2)
        assert np.array_equal(am[1, 2, 3], ts.positions[1, 3, 2])

    def test_describe(self):
        ts = small_set(np.random.default_rng(6))
        d = ts.describe()
        assert d["categories"][0] == "ball"
        assert d["count"] == 3


class TestSidecar:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.meta"
        write_sidecar(p, {"seed": 7, "kind": "synth", "note": "a=b"})
        back = read_sidecar(p)
        assert back == {"seed": "7", "kind": "synth", "note": "a=b"}

    def test_ignores_blank_and_junk_lines(self, tmp_path):
        p = tmp_path / "t.meta"
        p.write_text("a=1\n\nnot a pair\nb=2\n")
        assert read_sidecar(p) == {"a": "1", "b": "2"}

    def test_invalid_utf8(self, tmp_path):
        p = tmp_path / "t.meta"
        p.write_bytes(b"a=1\nb=\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            read_sidecar(p)


@pytest.fixture(scope="module")
def fs() -> ForkingSet:
    return synth_forking_play(64, frames=24, players=4, seed=7)


def synth_whole_arrays(count, frames, players, seed, turn_deg=35.0):
    """The generator's positions built with [frames, players] arrays for the heading,
    the AR noise and each scene's paths: the form ``synth_forking_play`` replaces."""
    rng = np.random.default_rng(seed)
    fork = frames // 2
    pos = np.zeros((count, frames, players + 1, 2))
    theta_turn = math.radians(turn_deg)
    for s in range(count):
        sign = 1 if rng.random() < 0.5 else -1
        start = np.stack(
            [rng.uniform(8.0, 25.0, players), rng.uniform(15.0, 35.0, players)], axis=-1)
        speed = rng.uniform(0.8, 1.2, players)
        heading = np.zeros((frames, players))
        for t in range(fork, frames):
            heading[t] = sign * theta_turn * min(1.0, (t - fork + 1) / data.TURN_FRAMES)
        noise = np.zeros((frames, players, 2))
        for t in range(1, frames):
            noise[t] = 0.8 * noise[t - 1] + rng.normal(0.0, 0.05, (players, 2))
        p = np.zeros((frames, players, 2))
        p[0] = start
        for t in range(1, frames):
            step = speed[:, None] * np.stack([np.cos(heading[t]), np.sin(heading[t])], axis=-1)
            p[t] = p[t - 1] + step + noise[t]
        pos[s, :, 1:, :] = p
        c0, c1 = rng.choice(players, size=2, replace=False)
        pass_start = int(rng.integers(3, frames - 7))
        for t in range(frames):
            if t < pass_start:
                pos[s, t, 0] = p[t, c0]
            elif t < pass_start + 5:
                pos[s, t, 0] = p[t, c0] + (t - pass_start) / 4 * (p[t, c1] - p[t, c0])
            else:
                pos[s, t, 0] = p[t, c1]
    np.clip(pos[..., 0], 0.0, data.COURT_X, out=pos[..., 0])
    np.clip(pos[..., 1], 0.0, data.COURT_Y, out=pos[..., 1])
    return pos.astype(np.float32)


# Bytes per agent-step of synth_forking_play's traced peak for one scene over a
# huge roster. Built one frame at a time it peaks at ~27 (the float64 positions
# and their float32 copy take 24); with [frames, players] heading, noise and
# path arrays it peaked at ~70, past the ~32 that cli.MAX_AGENT_STEPS assumes.
SYNTH_PEAK_BYTES_PER_AGENT_STEP = 32


class TestSynthForkingPlay:
    @pytest.mark.parametrize("count, frames, players, seed, turn_deg", [
        (1, 11, 2, 0, 35.0), (3, 24, 4, 1, 35.0), (5, 40, 10, 9, -12.5), (2, 13, 300, 3, 80.0),
    ])
    def test_positions_equal_the_whole_array_form_bytewise(self, count, frames, players, seed,
                                                           turn_deg):
        fs = synth_forking_play(count, frames=frames, players=players, seed=seed,
                                turn_deg=turn_deg)
        want = synth_whole_arrays(count, frames, players, seed, turn_deg)
        assert fs.trajectories.positions.tobytes() == want.tobytes()

    def test_a_huge_roster_peaks_near_the_output_size(self):
        count, frames, players = 1, 11, 100_000
        tracemalloc.start()
        try:
            fs = synth_forking_play(count, frames=frames, players=players)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fs.trajectories.positions.shape == (count, frames, players + 1, 2)
        per_step = peak / (count * frames * (players + 1))
        assert per_step <= SYNTH_PEAK_BYTES_PER_AGENT_STEP, f"{per_step:.1f} B"

    def test_shapes_and_roster(self, fs):
        ts = fs.trajectories
        assert ts.positions.shape == (64, 24, 5, 2)
        assert ts.categories[0] == CATEGORY_BALL
        assert set(ts.categories[1:]) == {CATEGORY_TEAM_A, CATEGORY_TEAM_B}
        assert ts.frame_rate == 5.0
        assert fs.fork_frame == 12

    def test_deterministic_per_seed(self):
        a = synth_forking_play(8, seed=3)
        b = synth_forking_play(8, seed=3)
        c = synth_forking_play(8, seed=4)
        assert np.array_equal(a.trajectories.positions, b.trajectories.positions)
        assert np.array_equal(a.branch, b.branch)
        assert not np.array_equal(a.trajectories.positions, c.trajectories.positions)

    def test_stays_on_court(self, fs):
        pos = fs.trajectories.positions
        assert pos[..., 0].min() >= 0.0 and pos[..., 0].max() <= data.COURT_X
        assert pos[..., 1].min() >= 0.0 and pos[..., 1].max() <= data.COURT_Y

    def test_players_advance_in_x(self, fs):
        pos = fs.trajectories.positions
        dx = pos[:, -1, 1:, 0] - pos[:, 0, 1:, 0]
        assert (dx > 5.0).all()

    def test_branch_balance(self, fs):
        frac = fs.branch.mean()
        assert 0.3 < frac < 0.7

    def test_branch_matches_drift(self, fs):
        pos = fs.trajectories.positions
        hits = sum(
            classify_branch(pos[s], start_frame=fs.fork_frame) == fs.branch[s]
            for s in range(64)
        )
        assert hits == 64

    def test_context_hides_branch(self, fs):
        # before the fork the two groups of scenarios are statistically alike:
        # classifying from pre-fork drift should be near chance
        pos = fs.trajectories.positions
        pre = pos[:, : fs.fork_frame]
        guesses = np.array([classify_branch(pre[s]) for s in range(64)])
        agree = (guesses == fs.branch).mean()
        assert 0.25 < agree < 0.75

    def test_turn_rotates_post_fork_heading(self, fs):
        # post-ramp steps should run at about +/- turn_deg off the x axis
        pos = fs.trajectories.positions.astype(np.float64)
        steps = pos[:, 16:, 1:, :] - pos[:, 15:-1, 1:, :]
        ang = np.degrees(np.arctan2(steps[..., 1], steps[..., 0])).mean(axis=(1, 2))
        expect = np.where(fs.branch == 0, fs.turn_deg, -fs.turn_deg)
        assert np.abs(ang - expect).mean() < 8.0

    def test_ball_rides_carrier_and_passes_once(self):
        # with zero turn the play is clean enough to locate the pass window:
        # ball equals one player's track, then blends, then equals another's
        fs = synth_forking_play(6, frames=24, players=3, seed=11)
        pos = fs.trajectories.positions.astype(np.float64)
        for s in range(6):
            ball = pos[s, :, 0]
            players = pos[s, :, 1:]
            d = np.linalg.norm(players - ball[:, None], axis=-1)
            on_player = (d < 1e-4).any(axis=-1)
            changes = np.flatnonzero(on_player[1:] != on_player[:-1])
            assert on_player[0] and on_player[-1]
            assert len(changes) == 2              # leaves c0 once, lands on c1 once
            gap = changes[1] - changes[0]
            assert gap <= 5

    def test_pass_midpoint_between_carriers(self):
        fs = synth_forking_play(8, frames=24, players=4, seed=13)
        pos = fs.trajectories.positions.astype(np.float64)
        for s in range(8):
            ball = pos[s, :, 0]
            players = pos[s, :, 1:]
            d = np.linalg.norm(players - ball[:, None], axis=-1)
            carried = d.min(axis=-1) < 1e-4
            window = np.flatnonzero(~carried)
            if len(window) == 0:
                continue
            c0 = int(d[window[0] - 1].argmin())
            c1 = int(d[window[-1] + 1].argmin())
            mid = window[len(window) // 2]
            assert abs(d[mid, c0] - d[mid, c1]) < 1e-3

    def test_input_validation(self):
        with pytest.raises(DataError):
            synth_forking_play(4, players=1)
        # the pass starts at frame 3 or later and needs 8 frames after its start
        for bad in (dict(frames=6), dict(frames=10), dict(count=0), dict(count=-1),
                    dict(seed=-1)):
            with pytest.raises(DataError):
                synth_forking_play(**{"count": 4, **bad})
        assert synth_forking_play(2, frames=11).trajectories.positions.shape == (2, 11, 5, 2)


class TestEpochBatches:
    def test_deterministic_and_epoch_varying(self):
        ts = small_set(np.random.default_rng(8), S=10)
        a = [b[0] for b in epoch_batches(ts, 3, seed=1, epoch=0)]
        b = [b[0] for b in epoch_batches(ts, 3, seed=1, epoch=0)]
        c = [b[0] for b in epoch_batches(ts, 3, seed=1, epoch=1)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_covers_every_scenario_once(self):
        ts = small_set(np.random.default_rng(9), S=10)
        seen = np.concatenate(
            [pos for pos, _ in epoch_batches(ts, 4, seed=2, epoch=3)], axis=0
        )
        assert seen.shape[0] == 10
        want = np.sort(ts.agent_major(), axis=None)
        assert np.array_equal(np.sort(seen, axis=None), want)

    def test_batch_sizes(self):
        ts = small_set(np.random.default_rng(10), S=10)
        sizes = [pos.shape[0] for pos, _ in epoch_batches(ts, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_layout_and_categories(self):
        ts = small_set(np.random.default_rng(11))
        pos, cats = next(epoch_batches(ts, 2, seed=0, epoch=0))
        assert pos.shape[1:] == (4, 6, 2)
        assert cats.dtype == np.int64
        assert np.array_equal(cats, ts.categories)

    @pytest.mark.parametrize("seed, epoch, batch_size", [(0, 0, 1), (1, 3, 4), (7, 2, 5), (3, 1, 16)])
    def test_batches_are_byte_equal_to_slices_of_the_agent_major_copy(self, seed, epoch,
                                                                     batch_size):
        ts = small_set(np.random.default_rng(13), S=13)
        # the reference: one agent-major copy of the whole set, indexed per batch
        order = np.random.default_rng([seed, epoch]).permutation(ts.count)
        agent_major = ts.agent_major()
        want = [np.ascontiguousarray(agent_major[order[lo: lo + batch_size]])
                for lo in range(0, ts.count, batch_size)]
        got = [pos for pos, _ in epoch_batches(ts, batch_size, seed=seed, epoch=epoch)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous and g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_rejects_bad_batch_size(self):
        ts = small_set(np.random.default_rng(12))
        with pytest.raises(DataError):
            next(epoch_batches(ts, 0, seed=0, epoch=0))
