"""Compare two commits on the benchmark with interleaved runs; write a BENCH file.

Run from the repository root:

    python3 tools/bench_pair.py --base 0185752 --head HEAD --pairs 10 \
        --seconds 30 --seed 11 --out BENCH_release_tape.json

Each commit's committed files are exported with ``git archive`` into a
temporary directory, so the working tree and ``.git`` are left alone and
uncommitted edits never enter a run. For every pair and every workload the
tool runs that checkout's own ``perfbench/run.py --trace 0`` once per side,
one process at a time, and alternates which side goes first. The output holds
each run's end-to-end metrics (the names and directions in ``BENCHMARK.json``;
``scenes_per_s`` is scaled by the host probe), its wall-clock rate
(``train_scenes_per_s`` or ``sample_scenarios_per_s``) and its set-up
repetitions (``setup_reps_s``), per-side medians and quartiles of the metrics
and of the wall-clock rate, how many pairs the head side won, the failed
counts, both commits, and the ``env`` block of the head's first report.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` under ``dest``."""
    raw = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(raw)) as tar:
        tar.extractall(dest, filter="data")


# The report's unscaled rate, under the name a user reads, per workload kind.
WALL_RATES = ("train_scenes_per_s", "sample_scenarios_per_s")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py --trace 0`` process; returns (report, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} in {checkout}: exit code {proc.returncode}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summary(base: list[float], head: list[float], better: str) -> dict:
    def quartiles(xs):
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"median": q2, "q1": q1, "q3": q3}

    sign = 1.0 if better == "higher" else -1.0
    b, h = quartiles(base), quartiles(head)
    return {
        "better": better, "base": base, "head": head, "base_quartiles": b, "head_quartiles": h,
        "change_pct": (h["median"] / b["median"] - 1.0) * 100.0,
        "head_better_pairs": sum(sign * (y - x) > 0 for x, y in zip(base, head)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="parent commit")
    p.add_argument("--head", default="HEAD", help="changed commit")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, required=True, help="the same for every run")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.base, args.head))}
    spec = json.loads(git("show", f"{commits['head']}:BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    env = None
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], checkouts[side])
        for i in range(args.pairs):
            for w in workloads:
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    report, result = run_once(checkouts[side], w, args.seed, args.seconds)
                    if side == "head" and env is None:
                        env = report["env"]
                    runs[w][side].append({
                        **{m: result["metrics"][m]["value"] for m in metrics},
                        **{k: report["named"][k]["value"] for k in WALL_RATES
                           if k in report["named"]},
                        "setup_reps_s": report["setup_reps_s"],
                        "failed": result["failed"], "attempted": result["attempted"],
                    })
                    print(f"pair {i + 1}/{args.pairs} {w} {side}: "
                          + " ".join(f"{m}={runs[w][side][-1][m]:.4g}" for m in metrics),
                          file=sys.stderr, flush=True)

    out = {
        "base": {"commit": commits["base"], "subject": git("log", "-1", "--format=%s", commits["base"])},
        "head": {"commit": commits["head"], "subject": git("log", "-1", "--format=%s", commits["head"])},
        "command": f"perfbench/run.py --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "base first in odd-numbered pairs, head first in even-numbered ones",
        "env": env,
        "workloads": {
            w: {
                "runs": runs[w],
                "failed": {side: sum(r["failed"] for r in runs[w][side]) for side in SIDES},
                "metrics": {m: summary([r[m] for r in runs[w]["base"]],
                                       [r[m] for r in runs[w]["head"]], better)
                            for m, better in metrics.items()},
                "wall_clock": {k: summary([r[k] for r in runs[w]["base"]],
                                          [r[k] for r in runs[w]["head"]], "higher")
                               for k in WALL_RATES if k in runs[w]["head"][0]},
            }
            for w in workloads
        },
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
