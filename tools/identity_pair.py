"""Compare two commits' outputs byte for byte over one fixed grid of runs.

Run from the repository root:

    python3 tools/identity_pair.py --base b1ad7e1 --head HEAD [--tiny] [--out F]

Each commit's committed files are exported with ``git archive`` into a
temporary directory (``bench_pair.export``). The grid below runs once per
tree, each in its own process with one BLAS thread, importing that tree's
``src/causaltraj``; every entry is a SHA-256 over the exact bytes of what it
names. The tool prints one line per entry, ``equal`` or ``different`` (or
``missing`` if only one side has it), and exits 1 on any difference. It writes
nothing under the checkout: the trees and every file the grid makes live in
temporary directories, and only ``--out`` (a JSON of both hashes per entry) is
written where asked.

The grid, one definition for every comparison:
- loss, per-step NLL and every parameter gradient of one teacher-forced step
  for small/full x pointnet/ssm x mesh on/off;
- float64 loss and gradients, and a ``grad_check`` result, on the small preset;
- history, parameters, AdamW moments and checkpoint bytes after a 2-epoch
  ``train()``;
- the positions and components of sample-mode and mean-mode rollouts, and
  of rollouts of more rows than one chunk of ``model.ROLLOUT_ROWS``: 768
  sample rows, and 704 contexts in mean mode (on a host with two CPUs free
  these run their chunks on two threads);
- the CLI's synth, train, sample (both modes, and one of 768 rows, more than
  one chunk), eval and render (with ``--pred``) outputs, and ``info`` on the
  container and on each checkpoint;
- several ``synth_forking_play`` sets.

Every entry whose model runs the SSM encoder has ``ssm`` in its name.
``--tiny`` drops the full preset and the 704-context mean rollout and shrinks
every other size, for tests and CI.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes), bytes and strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, str)):
            h.update(part.encode() if isinstance(part, str) else part)
        else:
            a = np.asarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def grid(tiny: bool = False) -> dict[str, str]:
    """Run the grid with the importable ``causaltraj``; returns {entry: sha256}."""
    from causaltraj import cli, data, model as model_mod, tensor as T, trainer

    out: dict[str, str] = {}
    temporals = ("pointnet", "ssm")

    def make_model(preset, temporal, **over):
        if preset == "small":
            cfg = model_mod.ModelConfig.small(temporal=temporal, **over)
        else:
            cfg = model_mod.ModelConfig(temporal=temporal, **over)
        return model_mod.TrajectoryModel(cfg)

    def grads(m):
        return digest(*(x for name, p in m.named_parameters()
                        for x in (name, p.grad if p.grad is not None else "none")))

    # one teacher-forced step
    scenes, frames = (4, 14) if tiny else (8, 24)
    for preset in ("small",) if tiny else ("small", "full"):
        agents = 5 if preset == "small" else 11
        ts = data.synth_forking_play(scenes, frames=frames, players=agents - 1, seed=1).trajectories
        positions, cats = next(data.epoch_batches(ts, scenes, 0, 0))
        for temporal in temporals:
            for mesh in (True, False):
                name = f"step/{preset}/{temporal}/{'mesh' if mesh else 'nomesh'}"
                m = make_model(preset, temporal, num_agents=agents, context_frames=8,
                               future_frames=frames - 8, use_mesh=mesh, seed=2)
                loss, stats = m.loss(positions, cats)
                loss.backward()
                out[f"{name}/loss"] = digest(loss.data, repr(sorted(stats.items())))
                out[f"{name}/grads"] = grads(m)
                out[f"{name}/step_nll"] = digest(m.per_step_nll(positions, cats))

    # float64 gradients and a finite-difference check
    ts = data.synth_forking_play(4, frames=12, players=4, seed=3).trajectories
    positions, cats = next(data.epoch_batches(ts, 4, 0, 0))
    for temporal in temporals:
        m = make_model("small", temporal, context_frames=8, future_frames=4, seed=4)
        params = m.parameters()
        for p in params:
            p.data = p.data.astype(np.float64)
        loss, _ = m.loss(positions, cats)
        loss.backward()
        out[f"float64/{temporal}/loss"] = digest(loss.data)
        out[f"float64/{temporal}/grads"] = grads(m)
        worst = T.grad_check(lambda: m.loss(positions, cats)[0], params[:2],
                             max_coords_per_param=2 if tiny else 4,
                             rng=np.random.default_rng(5))
        out[f"float64/{temporal}/grad_check"] = digest(repr(worst))

    # training, then rollouts from the trained models
    ts = data.synth_forking_play(8 if tiny else 16, frames=12 if tiny else 16,
                                 players=4, seed=6).trajectories
    contexts = ts.agent_major()[:2 if tiny else 4, :, :8]
    cats = ts.categories.astype(np.int64)
    # more rows than one chunk of model.ROLLOUT_ROWS: 768 sample rows, and in the
    # full grid 704 mean rows (a mean rollout runs one row per context)
    chunked = {"sample": (ts.agent_major()[:, :, :8], 768 // ts.count)}
    if not tiny:
        many = data.synth_forking_play(704, frames=12, players=4, seed=17).trajectories
        chunked["mean"] = (many.agent_major()[:, :, :8], 2)
    with tempfile.TemporaryDirectory(prefix="identity-grid-") as tmp:
        for temporal in temporals:
            m = make_model("small", temporal, context_frames=8, future_frames=4, seed=7)
            ckpt = os.path.join(tmp, f"{temporal}.ckpt")
            history, opt = trainer.train(m, ts, trainer.TrainConfig(epochs=2, batch_size=4, seed=8),
                                         checkpoint_path=ckpt)
            out[f"train/{temporal}/history"] = digest(repr(history))
            out[f"train/{temporal}/params"] = digest(*(x for kv in m.state_arrays().items()
                                                       for x in kv))
            out[f"train/{temporal}/moments"] = digest(*(x for kv in opt.state_arrays().items()
                                                        for x in kv))
            out[f"train/{temporal}/checkpoint"] = digest(Path(ckpt).read_bytes())
            for mode in ("sample", "mean"):
                samples = m.rollout(contexts, cats, horizon=3 if tiny else 6,
                                    num_scenarios=2 if tiny else 3, seed=9, mode=mode)
                out[f"rollout/small/{temporal}/{mode}"] = digest(*(
                    x for s in samples for x in (s.positions, s.components)))
            for mode, (chunked_contexts, k) in chunked.items():
                samples = m.rollout(chunked_contexts, cats, horizon=2 if tiny else 4,
                                    num_scenarios=k, seed=18, mode=mode)
                out[f"rollout/chunks/{temporal}/{mode}"] = digest(*(
                    x for s in samples for x in (s.positions, s.components)))
        if not tiny:
            ts_full = data.synth_forking_play(2, frames=12, players=10, seed=10).trajectories
            for temporal in temporals:
                m = make_model("full", temporal, context_frames=8, future_frames=4, seed=11)
                for mode in ("sample", "mean"):
                    samples = m.rollout(ts_full.agent_major()[:, :, :8],
                                        ts_full.categories.astype(np.int64), horizon=4,
                                        num_scenarios=2, seed=12, mode=mode)
                    out[f"rollout/full/{temporal}/{mode}"] = digest(*(
                        x for s in samples for x in (s.positions, s.components)))

        # the CLI, in process: files it writes and what it prints, with the
        # temporary directory's path taken out
        def run_cli(*argv) -> str:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.entrypoint([str(a) for a in argv])
            return f"exit {code}\n{buf.getvalue()}".replace(tmp, "<tmp>")

        def file_digest(path, *printed) -> str:
            return digest(Path(path).read_bytes().replace(tmp.encode(), b"<tmp>"), *printed)

        d = Path(tmp)
        printed = run_cli("synth", "--out", d / "s.ctrj", "--count", 8 if tiny else 16,
                          "--frames", 12 if tiny else 16, "--seed", 13)
        out["cli/synth"] = file_digest(d / "s.ctrj", printed)
        for temporal in temporals:
            ckpt = d / f"cli-{temporal}.ckpt"
            printed = run_cli("train", "--data", d / "s.ctrj", "--out", ckpt, "--epochs", 1,
                              "--batch-size", 4, "--context", 8, "--components", 2,
                              "--temporal", temporal, "--seed", 14)
            out[f"cli/{temporal}/train"] = file_digest(ckpt, printed)
            for mode in ("sample", "mean"):
                pred = d / f"cli-{temporal}-{mode}.ctrj"
                printed = run_cli("sample", "--model", ckpt, "--data", d / "s.ctrj", "--out", pred,
                                  "--scenarios", 2, "--limit", 2 if tiny else 4,
                                  "--mode", mode, "--seed", 15)
                out[f"cli/{temporal}/sample-{mode}"] = file_digest(
                    pred, file_digest(f"{pred}.meta"), printed)
                out[f"cli/{temporal}/eval-{mode}"] = digest(
                    run_cli("eval", "--pred", pred, "--gt", d / "s.ctrj"))
                svg = d / f"cli-{temporal}-{mode}.svg"
                printed = run_cli("render", "--data", d / "s.ctrj", "--out", svg, "--index", 1,
                                  "--context", 8, "--pred", pred)
                out[f"cli/{temporal}/render-{mode}"] = file_digest(svg, printed)
            # every context x 96 or 48 scenarios: 768 rows, over model.ROLLOUT_ROWS
            pred = d / f"cli-{temporal}-chunks.ctrj"
            printed = run_cli("sample", "--model", ckpt, "--data", d / "s.ctrj", "--out", pred,
                              "--scenarios", 96 if tiny else 48, "--horizon", 2 if tiny else 8,
                              "--seed", 16)
            out[f"cli/{temporal}/sample-chunks"] = file_digest(
                pred, file_digest(f"{pred}.meta"), printed)
            out[f"cli/{temporal}/info"] = digest(run_cli("info", ckpt))
        out["cli/info"] = digest(run_cli("info", d / "s.ctrj"))

    # synthetic sets
    for count, frames, players, seed in ((4, 12, 4, 0), (3, 24, 10, 1), (2, 30, 2, 16)):
        fs = data.synth_forking_play(count, frames=frames, players=players, seed=seed)
        out[f"synth/{count}x{frames}x{players}/seed{seed}"] = digest(
            fs.trajectories.positions, fs.trajectories.categories, fs.branch,
            repr((fs.trajectories.frame_rate, fs.fork_frame, fs.turn_deg)))
    return out


WORKER = """
import json, sys
sys.path.insert(0, {tools!r})
import causaltraj, identity_pair
print(json.dumps({{"module": causaltraj.__file__, "hashes": identity_pair.grid({tiny!r})}}))
"""


def run_grid(tree: Path, tiny: bool, cwd: Path) -> dict[str, str]:
    """The grid in a fresh process that imports ``tree``'s package, with one BLAS thread."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    code = WORKER.format(tools=str(TOOLS), tiny=tiny)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"grid in {tree}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"grid in {tree} imported {result['module']}")
    return result["hashes"]


def compare(base: dict[str, str], head: dict[str, str]) -> dict[str, str]:
    """{entry: "equal" | "different" | "missing"} over both sides' entries."""
    return {name: ("missing" if name not in base or name not in head
                   else "equal" if base[name] == head[name] else "different")
            for name in sorted(base.keys() | head.keys())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="parent commit")
    p.add_argument("--head", required=True, help="changed commit")
    p.add_argument("--tiny", action="store_true", help="the reduced grid")
    p.add_argument("--out", type=Path, help="write both sides' hashes here as JSON")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True      # no __pycache__ under the checkout
    sys.path.insert(0, str(TOOLS))
    from bench_pair import SIDES, export, git

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.base, args.head))}
    hashes = {}
    with tempfile.TemporaryDirectory(prefix="identity_pair-") as tmp:
        for side in SIDES:
            tree = Path(tmp) / side
            export(commits[side], tree)
            hashes[side] = run_grid(tree, args.tiny, Path(tmp))
    status = compare(hashes["base"], hashes["head"])
    for name, s in status.items():
        print(f"{s:9}  {name}")
    differ = sum(s != "equal" for s in status.values())
    print(f"{len(status) - differ} equal, {differ} not, of {len(status)} entries "
          f"(base {commits['base'][:12]}, head {commits['head'][:12]}"
          f"{', tiny grid' if args.tiny else ''})")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "base": commits["base"], "head": commits["head"], "tiny": args.tiny,
            "entries": {name: {"status": s, "base": hashes["base"].get(name),
                               "head": hashes["head"].get(name)}
                        for name, s in status.items()},
        }, indent=1) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
