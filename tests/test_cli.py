"""End-to-end command-line flow in a temp directory."""

import contextlib
import io
import json
import os
import pathlib
import platform
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from causaltraj import cli, data
from causaltraj.model import (
    CHECKPOINT_MAGIC,
    ModelConfig,
    TrajectoryModel,
    load_model,
    save_checkpoint,
)


def run_cli(*argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.entrypoint(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def pipeline(workdir):
    """Synthesise, train and sample once; returns the paths and each run's result.

    Every test that reads the data, the checkpoint or the predictions depends
    on this fixture, so any test can run on its own.
    """
    paths = {
        "data": str(workdir / "plays.ctrj"),
        "ckpt": str(workdir / "model.ckpt"),
        "pred": str(workdir / "pred.ctrj"),
        "svg": str(workdir / "scene.svg"),
    }
    runs = {
        "synth": run_cli(
            "synth", "--out", paths["data"], "--count", "24",
            "--frames", "12", "--players", "2", "--seed", "3",
        ),
        "train": run_cli(
            "train", "--data", paths["data"], "--out", paths["ckpt"],
            "--epochs", "2", "--batch-size", "8", "--lr", "0.002",
            "--context", "4", "--components", "2", "--seed", "1",
        ),
        "sample": run_cli(
            "sample", "--model", paths["ckpt"], "--data", paths["data"],
            "--out", paths["pred"], "--scenarios", "3", "--seed", "9",
            "--limit", "8",
        ),
    }
    return paths, runs


@pytest.fixture(scope="module")
def paths(pipeline):
    return pipeline[0]


def test_synth(pipeline):
    paths, runs = pipeline
    code, out, _ = runs["synth"]
    assert code == 0
    info = json.loads(out)
    assert info["count"] == 24
    assert info["agents"] == 3
    ts = data.read_trajectories(paths["data"])
    assert ts.positions.shape == (24, 12, 3, 2)
    meta = data.read_sidecar(paths["data"] + ".meta")
    a, b = (int(x) for x in meta["branch_counts"].split(","))
    assert a + b == 24


@pytest.mark.parametrize("flag, value", [
    ("--frames", "8"), ("--frames", "10"), ("--count", "0"), ("--count", "-1"),
])
def test_synth_rejects_short_frames_and_empty_counts(workdir, flag, value):
    out = workdir / "rejected_synth.ctrj"
    code, stdout, err = run_cli("synth", "--out", str(out), flag, value)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err and stdout == ""
    assert not out.exists() and not (workdir / "rejected_synth.ctrj.meta").exists()


@pytest.mark.parametrize("flag, value, code, reason", [
    ("--frames", "2000000000", 2, "agent-steps"),
    ("--count", "4000000000", 2, "agent-steps"),
    ("--turn-deg", "inf", 1, "turn_deg"),
])
def test_synth_refuses_an_oversized_or_non_finite_set(workdir, monkeypatch, flag, value,
                                                      code, reason):
    # the oversized sets would need 0.1 TB and more, so the generator must never
    # see them; it runs for real only on sizes within the bound
    generate = data.synth_forking_play

    def bounded(**kw):
        assert kw["count"] * kw["frames"] * (kw["players"] + 1) <= 10**8, "allocated"
        return generate(**kw)

    monkeypatch.setattr(data, "synth_forking_play", bounded)
    out = workdir / "refused_synth.ctrj"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, stdout, err = run_cli("synth", "--out", str(out), flag, value)
    assert got == code
    assert err.startswith("error:") and reason in err and "Traceback" not in err
    assert stdout == "" and [str(w.message) for w in caught] == []
    assert not out.exists() and not (workdir / "refused_synth.ctrj.meta").exists()


@pytest.mark.parametrize("command, code", [("synth", 1), ("sample", 2)])
def test_a_negative_seed_exits_cleanly(paths, workdir, command, code):
    out = workdir / f"negative_seed_{command}.ctrj"
    inputs = ("--model", paths["ckpt"], "--data", paths["data"]) if command == "sample" else ()
    got, stdout, err = run_cli(command, "--out", str(out), *inputs, "--seed", "-1")
    assert got == code
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err
    assert stdout == ""
    assert not out.exists() and not (workdir / f"{out.name}.meta").exists()


def test_train(pipeline):
    code, out, err = pipeline[1]["train"]
    assert code == 0
    info = json.loads(out)
    assert info["steps"] == 6
    assert np.isfinite(info["final_loss"])
    assert "epoch 2/2" in err


def test_resume_rejects_finished_run(paths):
    code, _, err = run_cli(
        "train", "--data", paths["data"], "--out", paths["ckpt"],
        "--resume", paths["ckpt"],
    )
    assert code == 2
    assert "nothing to resume" in err


@pytest.mark.parametrize("next_epoch", ["x", 1.5, -1, True])
def test_resume_rejects_bad_next_epoch(paths, workdir, next_epoch):
    model, extra, arrays = load_model(paths["ckpt"])
    bad = str(workdir / "bad_epoch.ckpt")
    save_checkpoint(bad, model, {**extra, "next_epoch": next_epoch}, arrays)
    out = workdir / "bad_epoch_resumed.ckpt"
    code, stdout, err = run_cli(
        "train", "--data", paths["data"], "--out", str(out), "--resume", bad,
    )
    assert code == 2
    assert err.startswith("error:") and "next_epoch" in err
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()


def test_checkpoint_with_removed_train_settings(paths, workdir):
    # checkpoints written while the optimizer recipe was configurable store it
    # in the train entry: they no longer resume, but their model still samples
    model, extra, arrays = load_model(paths["ckpt"])
    old = str(workdir / "old_recipe.ckpt")
    train = {**extra["train"], "weight_decay": 0.01, "clip_norm": 1.0}
    save_checkpoint(old, model, {**extra, "next_epoch": 1, "train": train}, arrays)
    out = workdir / "old_recipe_resumed.ckpt"
    code, stdout, err = run_cli(
        "train", "--data", paths["data"], "--out", str(out), "--resume", old,
    )
    assert code == 2
    assert err.startswith("error:") and "clip_norm" in err and "weight_decay" in err
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()
    code, _, _ = run_cli(
        "sample", "--model", old, "--data", paths["data"],
        "--out", str(workdir / "old_recipe.ctrj"), "--scenarios", "2", "--limit", "2",
    )
    assert code == 0


def test_sample(pipeline):
    paths, runs = pipeline
    code, out, _ = runs["sample"]
    assert code == 0
    info = json.loads(out)
    assert info["contexts"] == 8
    pred = data.read_trajectories(paths["pred"])
    assert pred.count == 24                    # 8 contexts x 3 scenarios
    assert pred.frames == 12                   # 4 context + 8 horizon
    gt = data.read_trajectories(paths["data"])
    np.testing.assert_array_equal(            # each context's k rows, in order
        pred.positions[:, :4], np.repeat(gt.positions[:8, :4], 3, axis=0)
    )


def test_sample_of_one_context_peaks_near_the_container_payload(paths, workdir):
    # a container whose payload dwarfs the model: reading it takes the payload
    # once, and only the sampled context is transposed, not every scene
    gt = data.read_trajectories(paths["data"])
    rng = np.random.default_rng(4)
    big = data.TrajectorySet(rng.uniform(0.0, 50.0, (30_000,) + gt.positions.shape[1:])
                             .astype(np.float32), gt.categories, gt.frame_rate)
    src, out = workdir / "big.ctrj", workdir / "big-pred.ctrj"
    data.write_trajectories(src, big)
    payload = big.positions.nbytes
    del big
    tracemalloc.start()
    try:
        code, _, err = run_cli("sample", "--model", paths["ckpt"], "--data", str(src),
                               "--out", str(out), "--scenarios", "3", "--seed", "9",
                               "--limit", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert data.read_trajectories(out).count == 3
    assert peak < 1.5 * payload, f"{peak / payload:.2f}x the payload"


# Bound on the traced peak of `sample` per agent-step written, at 24 contexts x
# 100 scenarios x 8 steps x 3 agents (4 context frames). It reads ~115 B: the
# rollout's outputs, one ScenarioSample per row, the output array and one chunk's
# working set. With the rollout in one batch of 2,400 rows and the output built by
# repeat, stack and concatenate, it read ~294 B.
SAMPLE_PEAK_BYTES_PER_AGENT_STEP = 150


def test_sample_peaks_with_its_output_not_its_rows(paths, workdir):
    out = workdir / "many-pred.ctrj"
    tracemalloc.start()
    try:
        code, _, err = run_cli("sample", "--model", paths["ckpt"], "--data", paths["data"],
                               "--out", str(out), "--scenarios", "100", "--seed", "9")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    per_step = peak / (24 * 100 * 8 * 3)
    assert per_step <= SAMPLE_PEAK_BYTES_PER_AGENT_STEP, f"{per_step:.1f} B"


def test_eval(paths):
    code, out, _ = run_cli("eval", "--pred", paths["pred"], "--gt", paths["data"])
    assert code == 0
    scores = json.loads(out)
    assert scores["k"] == 3
    assert scores["cases"] == 8
    assert scores["horizon"] == 8
    assert scores["min_ade"] <= scores["min_jade"] <= scores["average_jade"]
    assert scores["units"] == "court"

    code, out, _ = run_cli(
        "eval", "--pred", paths["pred"], "--gt", paths["data"],
        "--meters", "--slice", "4",
    )
    meters = json.loads(out)
    assert meters["units"] == "meters"
    assert meters["horizon"] == 4


def run_python(*argv, stdout=subprocess.PIPE, timeout=120):
    """Run a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=timeout)


# Two in-process sample passes; prints the minor faults of each and how often
# the allocator setting ran.
FAULT_PROBE = """
import json, resource, sys
from causaltraj import cli
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if cli.entrypoint(sys.argv[1:]) != 0:
        sys.exit("sample failed")
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"faults": faults, "kept": cli.keep_freed_heap(),
                  "runs": cli.keep_freed_heap.cache_info().misses}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_repeated_sample_passes_reuse_freed_heap(tmp_path):
    # glibc's default thresholds refault ~12k pages on the second pass here
    held, ckpt = str(tmp_path / "held.ctrj"), str(tmp_path / "model.ckpt")
    data.write_trajectories(held, data.synth_forking_play(24, frames=12, players=2).trajectories)
    save_checkpoint(ckpt, TrajectoryModel(ModelConfig.small(
        num_agents=3, num_components=2, context_frames=4, future_frames=8)))
    proc = run_python("-c", FAULT_PROBE, "sample", "--model", ckpt, "--data", held,
                      "--out", str(tmp_path / "pred.ctrj"), "--scenarios", "20")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["kept"] and report["runs"] == 1
    assert report["faults"][1] < 2000, report["faults"]


@pytest.mark.skipif(platform.libc_ver()[0] == "glibc", reason="checks the non-glibc path")
def test_allocator_setting_is_a_no_op_off_glibc():
    assert cli.keep_freed_heap() is False


def test_eval_without_sidecar_needs_context(paths, workdir):
    bare = str(workdir / "bare.ctrj")
    pred = data.read_trajectories(paths["pred"])
    data.write_trajectories(bare, pred)
    code, _, err = run_cli("eval", "--pred", bare, "--gt", paths["data"])
    assert code == 2
    assert "--context" in err
    code, out, _ = run_cli(
        "eval", "--pred", bare, "--gt", paths["data"], "--context", "4",
    )
    assert code == 0
    # without the sidecar the 24 rows can only be grouped 1:1 with the truths
    assert json.loads(out)["k"] == 1


def test_render(paths):
    code, _, _ = run_cli(
        "render", "--data", paths["data"], "--out", paths["svg"],
        "--index", "1", "--context", "4", "--pred", paths["pred"],
    )
    assert code == 0
    with open(paths["svg"]) as f:
        svg = f.read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def subset(src, dst, rows):
    ts = data.read_trajectories(src)
    data.write_trajectories(dst, data.TrajectorySet(ts.positions[:rows], ts.categories,
                                                    ts.frame_rate))
    return dst


def test_eval_and_render_reject_non_integer_sidecar(paths, workdir):
    pred = subset(paths["pred"], str(workdir / "badmeta.ctrj"), 24)
    data.write_sidecar(pred + ".meta", {"context_frames": 4, "scenarios_per_context": "abc"})
    for argv in (("eval", "--pred", pred, "--gt", paths["data"]),
                 ("render", "--data", paths["data"], "--out", str(workdir / "bad.svg"),
                  "--pred", pred)):
        code, _, err = run_cli(*argv)
        assert code == 1, argv[0]
        assert err.startswith("error:") and "abc" in err
    assert not (workdir / "bad.svg").exists()


def test_render_rejects_ungroupable_predictions(paths, workdir):
    # 2 predictions over 3 truths and no sidecar: eval and render both refuse
    truth = subset(paths["data"], str(workdir / "three.ctrj"), 3)
    pred = subset(paths["pred"], str(workdir / "two.ctrj"), 2)
    for argv in (("eval", "--pred", pred, "--gt", truth, "--context", "4"),
                 ("render", "--data", truth, "--out", str(workdir / "two.svg"),
                  "--context", "4", "--pred", pred)):
        code, _, err = run_cli(*argv)
        assert code == 1, argv[0]
        assert "do not group evenly" in err
    assert not (workdir / "two.svg").exists()


@pytest.mark.parametrize("agents", [2, 4], ids=["fewer", "more"])
def test_render_rejects_predictions_with_another_roster(paths, workdir, agents):
    pr = data.read_trajectories(paths["pred"])
    pos = np.concatenate([pr.positions, pr.positions[:, :, :1]], axis=2)[:, :, :agents]
    cats = np.concatenate([pr.categories, pr.categories[:1]])[:agents]
    pred = str(workdir / f"roster_{agents}.ctrj")
    data.write_trajectories(pred, data.TrajectorySet(pos, cats, pr.frame_rate))
    data.write_sidecar(pred + ".meta", {"context_frames": 4, "scenarios_per_context": 3})
    svg = workdir / f"roster_{agents}.svg"
    code, out, err = run_cli(
        "render", "--data", paths["data"], "--out", str(svg), "--pred", pred,
    )
    assert code == 1
    assert err.startswith("error:") and f"holds {agents} agents" in err
    assert "Traceback" not in err and out == ""
    assert not svg.exists()


def test_render_rejects_index_beyond_predicted_contexts(paths, workdir):
    # the sidecar says 3 scenarios each, so the 24 rows cover contexts 0..7
    code, _, err = run_cli(
        "render", "--data", paths["data"], "--out", str(workdir / "far.svg"),
        "--index", "8", "--context", "4", "--pred", paths["pred"],
    )
    assert code == 1
    assert "8 predicted contexts" in err
    assert not (workdir / "far.svg").exists()


@pytest.mark.parametrize("value", ["-2", "0"])
def test_eval_and_render_reject_context_flag_below_one(paths, workdir, value):
    svg = workdir / "short_context.svg"
    for argv in (("eval", "--pred", paths["pred"], "--gt", paths["data"]),
                 ("render", "--data", paths["data"], "--out", str(svg)),
                 ("render", "--data", paths["data"], "--out", str(svg), "--pred", paths["pred"])):
        code, out, err = run_cli(*argv, "--context", value)
        assert code == 2, argv
        assert err.startswith("error:") and f"--context must be >= 1, got {value}" in err
        assert "Traceback" not in err and out == ""
    assert not svg.exists()


@pytest.mark.parametrize("value", ["-3", "0"])
def test_eval_rejects_a_slice_below_one(paths, value):
    code, out, err = run_cli("eval", "--pred", paths["pred"], "--gt", paths["data"],
                             "--slice", value)
    assert code == 2
    assert err.startswith("error:") and f"--slice must be >= 1, got {value}" in err
    assert "Traceback" not in err and out == ""


def test_eval_rejects_a_slice_beyond_the_horizon(paths):
    # the predictions score an 8-frame horizon
    code, out, err = run_cli("eval", "--pred", paths["pred"], "--gt", paths["data"],
                             "--slice", "9")
    assert code == 1
    assert err.startswith("error:") and "--slice 9 is beyond the scored horizon of 8" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("value", ["-2", "0"])
def test_eval_and_render_reject_sidecar_context_below_one(paths, workdir, value):
    pred = subset(paths["pred"], str(workdir / "short_context.ctrj"), 24)
    data.write_sidecar(pred + ".meta", {"context_frames": value, "scenarios_per_context": 3})
    svg = workdir / "short_context.svg"
    for argv in (("eval", "--pred", pred, "--gt", paths["data"]),
                 ("render", "--data", paths["data"], "--out", str(svg), "--pred", pred)):
        code, out, err = run_cli(*argv)
        assert code == 1, argv[0]
        assert err.startswith("error:") and f"context_frames must be >= 1, got {value}" in err
        assert "Traceback" not in err and out == ""
    assert not svg.exists()


def test_eval_rejects_an_empty_prediction_set(paths, workdir):
    empty = subset(paths["pred"], str(workdir / "empty.ctrj"), 0)
    data.write_sidecar(empty + ".meta", {"context_frames": 4, "scenarios_per_context": 3})
    code, out, err = run_cli("eval", "--pred", empty, "--gt", paths["data"])
    assert code == 1
    assert err.startswith("error:") and "holds no predictions" in err
    assert "Traceback" not in err and out == ""


def test_eval_rejects_an_empty_truth_set(paths, workdir):
    # no sidecar: the rows are grouped over the truths, of which there are none
    truth = subset(paths["data"], str(workdir / "no_truths.ctrj"), 0)
    pred = subset(paths["pred"], str(workdir / "no_sidecar.ctrj"), 24)
    code, out, err = run_cli("eval", "--pred", pred, "--gt", truth, "--context", "4")
    assert code == 1
    assert err.startswith("error:") and "over 0 truths" in err
    assert "Traceback" not in err and out == ""


def test_eval_rejects_a_sidecar_that_is_not_utf8(paths, workdir):
    pred = subset(paths["pred"], str(workdir / "latin.ctrj"), 24)
    with open(pred + ".meta", "wb") as f:
        f.write(b"context_frames=4\nscenarios_per_context=3\nnote=\xff\n")
    code, out, err = run_cli("eval", "--pred", pred, "--gt", paths["data"])
    assert code == 1
    assert err.startswith("error:") and "not UTF-8" in err
    assert "Traceback" not in err and out == ""


def test_train_rejects_a_container_without_scenes(paths, workdir):
    empty = subset(paths["data"], str(workdir / "no_scenes.ctrj"), 0)
    ckpt = workdir / "no_scenes.ckpt"
    code, out, err = run_cli("train", "--data", empty, "--out", str(ckpt),
                             "--epochs", "1", "--context", "4")
    assert code == 1
    assert err.startswith("error:") and "no scenes" in err
    assert "Traceback" not in err and out == ""
    assert not ckpt.exists()


def test_info_rejects_a_nan_frame_rate(paths, workdir):
    raw = bytearray(pathlib.Path(paths["data"]).read_bytes())
    at = len(data.MAGIC) + 12 + 3          # header, then the 3 category bytes
    raw[at: at + 4] = struct.pack("<f", float("nan"))
    bad = workdir / "nan_rate.ctrj"
    bad.write_bytes(bytes(raw))
    code, out, err = run_cli("info", str(bad))
    assert code == 1
    assert err.startswith("error:") and "frame rate must be finite and > 0" in err
    assert "Traceback" not in err and out == ""


def test_render_rejects_a_container_without_frames(paths, workdir):
    ts = data.read_trajectories(paths["data"])
    blank = str(workdir / "no_frames.ctrj")
    data.write_trajectories(blank, data.TrajectorySet(ts.positions[:, :0], ts.categories,
                                                      ts.frame_rate))
    svg = workdir / "no_frames.svg"
    for flags in ((), ("--context", "4")):
        code, out, err = run_cli("render", "--data", blank, "--out", str(svg), *flags)
        assert code == 1, flags
        assert err.startswith("error:") and "no frames" in err
        assert "Traceback" not in err and out == ""
    assert not svg.exists()


def test_info_closes_the_files_it_reads(paths):
    probe = "import sys; from causaltraj import cli; sys.exit(cli.entrypoint(sys.argv[1:]))"
    for path in (paths["data"], paths["ckpt"]):
        proc = run_python("-W", "error::ResourceWarning", "-c", probe, "info", path)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr


def test_a_reader_that_closed_the_pipe_ends_the_run_quietly(paths):
    # ``causaltraj info x.ctrj | head -1``: the write that finds the pipe closed
    # ends the run with exit 0 and nothing on stderr, not even at interpreter exit
    probe = "import sys; from causaltraj import cli; sys.exit(cli.entrypoint(sys.argv[1:]))"
    read_end, write_end = os.pipe()
    os.close(read_end)                   # closed before the child writes a byte
    try:
        proc = run_python("-c", probe, "info", paths["data"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_info_on_both_artifacts(paths):
    code, out, _ = run_cli("info", paths["data"])
    assert code == 0
    assert json.loads(out)["frames"] == 12
    code, out, _ = run_cli("info", paths["ckpt"])
    assert code == 0
    info = json.loads(out)
    assert info["model"]["num_agents"] == 3
    assert info["parameters"] > 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("artifact", ["data", "ckpt"])
def test_info_reads_a_named_pipe_like_the_file(paths, tmp_path, artifact):
    # info opens its input once: a second open of a named pipe would wait for a
    # writer that has already gone
    probe = "import sys; from causaltraj import cli; sys.exit(cli.entrypoint(sys.argv[1:]))"
    want = run_python("-c", probe, "info", paths[artifact])
    assert want.returncode == 0, want.stderr
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(pathlib.Path(paths[artifact]).read_bytes(),), daemon=True)
    writer.start()
    got = run_python("-c", probe, "info", str(fifo), timeout=20)
    writer.join(timeout=20)
    assert not writer.is_alive()
    assert got.returncode == 0, got.stderr
    assert got.stdout == want.stdout


def test_info_on_a_checkpoint_without_extra(paths, workdir):
    bare = rewrite_header(paths["ckpt"], workdir / "no_extra.ckpt",
                          lambda meta: meta.pop("extra"))
    code, out, err = run_cli("info", str(bare))
    assert code == 0, err
    assert '"extra": {}' in out
    assert json.loads(out)["extra"] == {}


def test_missing_file_exits_one(workdir):
    code, _, err = run_cli("info", str(workdir / "nope.ctrj"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["synth", "sample", "train"])
def test_out_into_a_missing_directory_names_the_target(paths, workdir, command):
    target = workdir / "no_such_dir" / f"{command}.out"
    argv = {
        "synth": ["synth", "--count", "4"],
        "sample": ["sample", "--model", paths["ckpt"], "--data", paths["data"],
                   "--scenarios", "2", "--limit", "2"],
        "train": ["train", "--data", paths["data"], "--epochs", "1", "--batch-size", "8",
                  "--context", "4", "--components", "2"],
    }[command]
    code, stdout, err = run_cli(*argv, "--out", str(target))
    assert code == 1
    assert err.splitlines()[-1] == f"error: [Errno 2] No such file or directory: {str(target)!r}"
    assert "Traceback" not in err and ".tmp" not in err
    assert not target.parent.exists()
    # train checks the directory before it trains: no epoch was run and logged
    assert not any(line.startswith("epoch") for line in err.splitlines())


@pytest.mark.parametrize("lr", ["0", "-0.01"])
def test_train_rejects_a_non_positive_learning_rate(paths, workdir, lr):
    out = workdir / "bad_lr.ckpt"
    code, stdout, err = run_cli(
        "train", "--data", paths["data"], "--out", str(out), "--epochs", "1", "--lr", lr,
    )
    assert code == 2
    assert err.startswith("error:") and "lr_max" in err
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()


def test_bad_config_exits_two(paths):
    code, _, err = run_cli(
        "train", "--data", paths["data"], "--out", paths["ckpt"] + ".x",
        "--context", "12",
    )
    assert code == 2
    assert "error:" in err


def test_a_model_too_large_to_allocate_exits_cleanly(paths, workdir, monkeypatch):
    # a real allocation this large can be killed by the OS instead of raising
    def too_large(config):
        raise MemoryError("Unable to allocate 8.72 GiB for an array")

    monkeypatch.setattr(cli, "TrajectoryModel", too_large)
    out = workdir / "too_large.ckpt"
    code, stdout, err = run_cli("train", "--data", paths["data"], "--out", str(out),
                                "--epochs", "1", "--preset", "full", "--components", "100000")
    assert code == 1
    assert err.startswith("error:") and "8.72 GiB" in err and "Traceback" not in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--scenarios", "0"), ("--scenarios", "-1"), ("--limit", "0"), ("--horizon", "0"),
])
def test_sample_rejects_counts_below_one(paths, workdir, flag, value):
    out = str(workdir / "rejected.ctrj")
    code, _, err = run_cli(
        "sample", "--model", paths["ckpt"], "--data", paths["data"],
        "--out", out, flag, value,
    )
    assert code == 2
    assert err.startswith("error:") and flag.lstrip("-") in err
    assert not (workdir / "rejected.ctrj").exists()


def test_sample_refuses_an_output_over_the_size_bound(paths, workdir):
    # unbounded, this would reserve ~11 GB of output arrays before writing anything
    out = workdir / "too_long.ctrj"
    code, stdout, err = run_cli(
        "sample", "--model", paths["ckpt"], "--data", paths["data"], "--out", str(out),
        "--limit", "1", "--scenarios", "2", "--horizon", "100000000",
    )
    assert code == 2
    assert err.startswith("error:") and "agent-steps" in err and "Traceback" not in err
    assert stdout == ""
    assert not out.exists() and not (workdir / "too_long.ctrj.meta").exists()


def test_sample_size_bound_is_inclusive(paths, workdir, monkeypatch):
    agents = data.read_trajectories(paths["data"]).num_agents
    monkeypatch.setattr(cli, "MAX_AGENT_STEPS", 1 * 2 * 3 * agents)
    for horizon, want in ((3, 0), (4, 2)):
        out = workdir / f"bound_{horizon}.ctrj"
        code, _, err = run_cli(
            "sample", "--model", paths["ckpt"], "--data", paths["data"], "--out", str(out),
            "--limit", "1", "--scenarios", "2", "--horizon", str(horizon),
        )
        assert code == want, err
        assert out.exists() == (want == 0)


def test_importing_the_package_loads_no_scipy():
    # scipy is a test-only dependency: importing it costs a process ~0.2 s and ~25 MB
    proc = run_python("-c", "import sys, causaltraj, causaltraj.cli; print(sorted("
                      "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def rewrite_header(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit(meta)`` applied to its JSON header."""
    with open(src, "rb") as f:
        raw = f.read()
    off = len(CHECKPOINT_MAGIC)
    (size,) = struct.unpack("<I", raw[off: off + 4])
    meta = json.loads(raw[off + 4: off + 4 + size])
    edit(meta)
    header = json.dumps(meta).encode()
    dst.write_bytes(raw[:off] + struct.pack("<I", len(header)) + header
                    + raw[off + 4 + size:])
    return dst


def test_sample_rejects_bad_config_in_checkpoint(paths, workdir):
    bad = rewrite_header(paths["ckpt"], workdir / "zero_heads.ckpt",
                         lambda meta: meta["model"].update(attn_heads=0))
    code, _, err = run_cli(
        "sample", "--model", str(bad), "--data", paths["data"],
        "--out", str(workdir / "zero_heads.ctrj"),
    )
    assert code == 2
    assert err.startswith("error:") and "attn_heads" in err
    assert "Traceback" not in err
    assert not (workdir / "zero_heads.ctrj").exists()


def test_checkpoint_with_the_fixed_ssm_layout_in_its_header(paths, workdir):
    # headers written while the SSM layout was a config field carry it at the
    # fixed values; they load and sample exactly like a header without it
    ts = data.read_trajectories(paths["data"])
    cfg = ModelConfig.small(num_agents=ts.num_agents, context_frames=4, future_frames=8,
                            temporal="ssm", seed=2)
    new = workdir / "ssm.ckpt"
    save_checkpoint(new, TrajectoryModel(cfg))
    old = rewrite_header(new, workdir / "ssm_old_header.ckpt", lambda meta: meta["model"].update(
        ssm_blocks=2, ssm_expand=2, ssm_conv=4))
    samples = []
    for ckpt in (new, old):
        out = workdir / f"{ckpt.stem}.ctrj"
        code, _, err = run_cli(
            "sample", "--model", str(ckpt), "--data", paths["data"],
            "--out", str(out), "--scenarios", "2", "--limit", "3",
        )
        assert code == 0, err
        samples.append(out.read_bytes())
    assert samples[0] == samples[1]


def test_sample_rejects_a_changed_ssm_layout(paths, workdir):
    bad = rewrite_header(paths["ckpt"], workdir / "three_blocks.ckpt",
                         lambda meta: meta["model"].update(ssm_blocks=3))
    out = workdir / "three_blocks.ctrj"
    code, stdout, err = run_cli(
        "sample", "--model", str(bad), "--data", paths["data"], "--out", str(out),
    )
    assert code == 2
    assert err.startswith("error:") and "ssm_blocks" in err
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()


def test_sample_stops_on_a_diverging_rollout(paths, workdir):
    model, extra, _ = load_model(paths["ckpt"])
    model.head.bias.data[:] = np.nan
    bad = str(workdir / "poisoned.ckpt")
    save_checkpoint(bad, model, extra)
    code, out, err = run_cli(
        "sample", "--model", bad, "--data", paths["data"],
        "--out", str(workdir / "diverged.ctrj"), "--scenarios", "2",
    )
    assert code == 1
    assert err.startswith("error:") and "context 0, scenario 0, step 0" in err
    assert "Traceback" not in err and out == ""
    assert not (workdir / "diverged.ctrj").exists()
    assert not (workdir / "diverged.ctrj.meta").exists()
