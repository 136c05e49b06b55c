"""Command-line interface: synth, train, sample, eval, render, info."""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import model as model_mod
from . import render as render_mod
from . import trainer as trainer_mod
from .errors import CausalTrajError, ConfigError, DataError
from .model import ModelConfig, TrajectoryModel
from .trainer import keep_freed_heap


# The most agent-steps one ``synth`` or ``sample`` run writes. synth peaks at ~27 bytes
# per agent-step, ~3 GB at this bound; it builds one frame at a time, so one scene over
# a huge roster stays within that too. sample peaks at ~30 (traced with the caller
# running every chunk, N = 5, 10 context and 14 future frames), ~3 GB at this bound:
# the rollout's positions and components, a ScenarioSample per row and the output
# array, which also holds the context frames. Its rollout runs in chunks of scenario
# rows, in the caller or in two forked workers, with ~640 rows in flight either way, so
# the working set besides these does not grow with the run (~36 bytes per agent-step at
# 256 contexts x 20 scenarios, ~30 at 1,024; in mean mode, where the k samples of a
# context share one row, ~24 and ~21). With workers the trace sees the caller only
# (~24 and ~20): the chunks run in the workers, and the outputs are a shared mapping.
MAX_AGENT_STEPS = 100_000_000


def _print(obj) -> None:
    """Write a command's JSON result to stdout, the last thing every command does.

    A reader that stopped early (``causaltraj info x.ctrj | head -1``) ends the run
    quietly: the work is done, and stdout is pointed at devnull so that the flush
    at interpreter exit does not fail again.
    """
    try:
        print(json.dumps(obj, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _check_agent_steps(steps: int, what: str, flags: str) -> None:
    """Refuse an output over ``MAX_AGENT_STEPS`` before anything is allocated."""
    if steps > MAX_AGENT_STEPS:
        raise ConfigError(f"{what} would write {steps:,} agent-steps, over the limit "
                          f"of {MAX_AGENT_STEPS:,}; lower {flags}")


def cmd_synth(args) -> int:
    _check_agent_steps(args.count * args.frames * (args.players + 1),
                       "synth (count x frames x agents)", "--count, --frames or --players")
    fs = data_mod.synth_forking_play(
        count=args.count,
        frames=args.frames,
        players=args.players,
        seed=args.seed,
        turn_deg=args.turn_deg,
    )
    data_mod.write_trajectories(args.out, fs.trajectories)
    data_mod.write_sidecar(
        args.out + ".meta",
        {
            "kind": "synthetic_forking_play",
            "seed": args.seed,
            "fork_frame": fs.fork_frame,
            "turn_deg": fs.turn_deg,
            "branch_counts": f"{int((fs.branch == 0).sum())},{int((fs.branch == 1).sum())}",
        },
    )
    _print({"written": args.out, **fs.trajectories.describe()})
    return 0


def _model_config_for(args, ts: data_mod.TrajectorySet) -> ModelConfig:
    future = ts.frames - args.context
    if future < 1:
        raise ConfigError(
            f"context {args.context} leaves no future frames in {ts.frames}-frame data"
        )
    common = dict(
        num_agents=ts.num_agents,
        num_components=args.components,
        context_frames=args.context,
        future_frames=future,
        temporal=args.temporal,
        use_mesh=not args.no_mesh,
        seed=args.seed,
    )
    if args.preset == "small":
        return ModelConfig.small(**common)
    return ModelConfig(**common)


def cmd_train(args) -> int:
    # the first checkpoint is written after an epoch: fail before training instead
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    ts = data_mod.read_trajectories(args.data)
    if args.resume:
        model, optimizer, cfg, start_epoch = trainer_mod.load_training_checkpoint(args.resume)
        if args.epochs is not None and args.epochs != cfg.epochs:
            raise ConfigError(
                f"resumed run was planned for {cfg.epochs} epochs; drop --epochs or match it"
            )
        if start_epoch >= cfg.epochs:
            raise ConfigError(f"nothing to resume: {start_epoch}/{cfg.epochs} epochs done")
    else:
        model = TrajectoryModel(_model_config_for(args, ts))
        cfg = trainer_mod.TrainConfig(
            epochs=args.epochs if args.epochs is not None else 10,
            batch_size=args.batch_size,
            lr_max=args.lr,
            seed=args.seed,
        )
        optimizer, start_epoch = None, 0
    history, _ = trainer_mod.train(
        model,
        ts,
        cfg,
        start_epoch=start_epoch,
        optimizer=optimizer,
        checkpoint_path=args.out,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    _print(
        {
            "checkpoint": args.out,
            "parameters": model.count_parameters(),
            "steps": len(history),
            "final_loss": history[-1]["loss"] if history else None,
        }
    )
    return 0


def cmd_sample(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    model, _, _ = model_mod.load_model(args.model)
    ts = data_mod.read_trajectories(args.data)
    P = model.config.context_frames
    if ts.frames < P:
        raise DataError(f"data has {ts.frames} frames, model context needs {P}")
    if ts.num_agents != model.config.num_agents:
        raise DataError(
            f"data roster {ts.num_agents} != model roster {model.config.num_agents}"
        )
    count = ts.count if args.limit is None else min(args.limit, ts.count)
    horizon = args.horizon if args.horizon is not None else model.config.future_frames
    _check_agent_steps(count * args.scenarios * horizon * ts.num_agents,
                       "sample (contexts x scenarios x horizon x agents)",
                       "--limit, --scenarios or --horizon")
    contexts = ts.positions[:count, :P].transpose(0, 2, 1, 3)     # a view of the sampled contexts
    samples = model.rollout(
        contexts,
        ts.categories.astype(np.int64),
        horizon=horizon,
        num_scenarios=args.scenarios,
        seed=args.seed,
        mode=args.mode,
    )
    k = args.scenarios
    full = np.empty((count * k, P + horizon, ts.num_agents, 2), dtype=np.float32)
    full.reshape(count, k, *full.shape[1:])[:, :, :P] = ts.positions[:count, None, :P]
    for row, s in zip(full, samples):
        row[P:] = s.positions
    out_ts = data_mod.TrajectorySet(full, ts.categories, ts.frame_rate)
    data_mod.write_trajectories(args.out, out_ts)
    data_mod.write_sidecar(
        args.out + ".meta",
        {
            "kind": "sampled_scenarios",
            "model": os.path.abspath(args.model),
            "source": os.path.abspath(args.data),
            "contexts": count,
            "scenarios_per_context": args.scenarios,
            "context_frames": P,
            "horizon": horizon,
            "mode": args.mode,
            "seed": args.seed,
        },
    )
    _print(
        {
            "written": args.out,
            "contexts": count,
            "scenarios_per_context": args.scenarios,
            "frames": int(full.shape[1]),
        }
    )
    return 0


def _check_context_frames(P, error, source: str) -> None:
    """Refuse a context length below 1 from the --context flag or a sidecar."""
    if P is not None and P < 1:
        raise error(f"{source} must be >= 1, got {P}")


def _prediction_groups(pred_path: str, pred_count: int, truth_count: int):
    """Read a prediction set's sidecar and group its rows by context.

    Returns (context_frames or None, scenarios per context, contexts). Without
    a ``scenarios_per_context`` entry the rows must group evenly over the
    truths; either way they must cover 1 to ``truth_count`` contexts.
    """
    meta_path = pred_path + ".meta"
    meta = data_mod.read_sidecar(meta_path) if os.path.exists(meta_path) else {}
    try:
        P = int(meta["context_frames"]) if "context_frames" in meta else None
        k = int(meta["scenarios_per_context"]) if "scenarios_per_context" in meta else None
    except ValueError as e:
        raise DataError(f"{meta_path}: {e}") from e
    _check_context_frames(P, DataError, f"{meta_path}: context_frames")
    if k is None:
        if truth_count < 1 or pred_count % truth_count != 0:
            raise DataError(
                f"{pred_count} predictions do not group evenly over {truth_count} truths"
            )
        k = pred_count // truth_count
    if k < 1 or pred_count % k != 0:
        raise DataError(f"{pred_count} predictions do not split into groups of {k}")
    contexts = pred_count // k
    if contexts < 1:
        raise DataError(f"{pred_path} holds no predictions")
    if contexts > truth_count:
        raise DataError(f"predictions cover {contexts} contexts but truth has {truth_count}")
    return P, k, contexts


def cmd_eval(args) -> int:
    _check_context_frames(args.context, ConfigError, "--context")
    if args.slice is not None and args.slice < 1:
        raise ConfigError(f"--slice must be >= 1, got {args.slice}")
    pred = data_mod.read_trajectories(args.pred)
    gt = data_mod.read_trajectories(args.gt)
    meta_P, k, contexts = _prediction_groups(args.pred, pred.count, gt.count)
    P = args.context if args.context is not None else meta_P
    if P is None:
        raise ConfigError("pass --context: no sidecar metadata next to the predictions")
    horizon = min(pred.frames - P, gt.frames - P)
    if horizon < 1:
        raise DataError("no overlapping future frames to score")
    if args.slice is not None and args.slice > horizon:
        raise DataError(f"--slice {args.slice} is beyond the scored horizon of {horizon} frames")
    preds = pred.positions[:, P: P + horizon].reshape(
        contexts, k, horizon, pred.num_agents, 2
    )
    gts = gt.positions[:contexts, P: P + horizon]
    scale = metrics_mod.COURT_TO_METERS if args.meters else 1.0
    out = metrics_mod.evaluate_batch(preds, gts, slice_frames=args.slice, scale=scale)
    out["units"] = "meters" if args.meters else "court"
    _print(out)
    return 0


def cmd_render(args) -> int:
    _check_context_frames(args.context, ConfigError, "--context")
    ts = data_mod.read_trajectories(args.data)
    if not 0 <= args.index < ts.count:
        raise DataError(f"index {args.index} out of range for {ts.count} scenarios")
    if ts.frames < 1:
        raise DataError(f"{args.data} holds no frames to draw")
    P = args.context if args.context is not None else ts.frames
    seq = ts.positions[args.index]
    context, future = seq[:P], seq[P:] if P < ts.frames else None
    samples = None
    if args.pred is not None:
        pr = data_mod.read_trajectories(args.pred)
        if pr.num_agents != ts.num_agents:
            raise DataError(
                f"{args.pred} holds {pr.num_agents} agents but {args.data} holds {ts.num_agents}"
            )
        meta_P, k, contexts = _prediction_groups(args.pred, pr.count, ts.count)
        if args.index >= contexts:
            raise DataError(f"index {args.index} beyond the {contexts} predicted contexts")
        pc = P if meta_P is None else meta_P
        rows = pr.positions[args.index * k: (args.index + 1) * k]
        samples = [r[pc:] for r in rows]
    render_mod.save_scene(args.out, context, ts.categories, future, samples)
    _print({"written": args.out})
    return 0


def cmd_info(args) -> int:
    # one open: a named pipe yields its bytes to the first reader only
    with open(args.path, "rb") as f:
        if not f.seekable():
            f = io.BytesIO(f.read())
        magic = f.read(8)
        f.seek(0)
        if magic.startswith(data_mod.MAGIC):
            result = data_mod.read_trajectories(f).describe()
        elif magic.startswith(model_mod.CHECKPOINT_MAGIC):
            meta, arrays = model_mod.load_checkpoint(f)
            params = sum(int(np.prod(a.shape)) for n, a in arrays.items()
                         if n.startswith("param/"))
            result = {"model": meta["model"], "extra": meta["extra"], "parameters": params}
        else:
            raise DataError(f"{args.path} is neither a trajectory set nor a checkpoint")
    _print(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="causaltraj",
        description="Likelihood-based multi-agent trajectory forecasting",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic forking-play dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--count", type=int, default=512)
    s.add_argument("--frames", type=int, default=24)
    s.add_argument("--players", type=int, default=4)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--turn-deg", type=float, default=35.0)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", help="train a forecaster on a trajectory set")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--resume", default=None, help="checkpoint to continue from")
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--batch-size", type=int, default=32)
    s.add_argument("--lr", type=float, default=0.02)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--context", type=int, default=10)
    s.add_argument("--components", type=int, default=8)
    s.add_argument("--temporal", choices=("pointnet", "ssm"), default="pointnet")
    s.add_argument("--preset", choices=("small", "full"), default="small")
    s.add_argument("--no-mesh", action="store_true", help="ablate the pair-mesh blocks")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="roll out futures from contexts in a data file")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--scenarios", type=int, default=20)
    s.add_argument("--horizon", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--mode", choices=("sample", "mean"), default="sample")
    s.add_argument("--limit", type=int, default=None, help="use only the first contexts")
    s.set_defaults(func=cmd_sample)

    s = sub.add_parser("eval", help="score sampled futures against ground truth")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--context", type=int, default=None)
    s.add_argument("--slice", type=int, default=None, help="score only the first frames")
    s.add_argument("--meters", action="store_true")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("render", help="draw a scenario (and predictions) as SVG")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--index", type=int, default=0)
    s.add_argument("--context", type=int, default=None)
    s.add_argument("--pred", default=None)
    s.set_defaults(func=cmd_render)

    s = sub.add_parser("info", help="describe a trajectory set or checkpoint")
    s.add_argument("path")
    s.set_defaults(func=cmd_info)

    return p


def entrypoint(argv=None) -> int:
    keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CausalTrajError, OSError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(entrypoint())
